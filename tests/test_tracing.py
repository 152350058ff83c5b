"""The benchmark's tracer against the package: every name it wraps in
``popdrift.cli`` must still be there, or a traced benchmark run fails."""

import importlib
import pathlib

import pytest

from popdrift import cli, exact

PERFBENCH = pathlib.Path(__file__).parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_tracer_wraps_an_exact_and_a_compare_command(tracing, capsys):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv in (
            ["exact", "--N", "20", "--init", "1,0", "--t", "5"],
            ["compare", "--Ns", "2,5", "--t", "5", "--init", "1,0", "--step", "0.5"],
        ):
            assert tracer.span("cli.main", cli.main, argv) == 0
    finally:
        tracer.uninstall()
    assert cli.transient is exact.transient
    spans = tracer.take()
    names = {span[0] for span in spans}
    assert {"cli.main", "model.load", "exact.enumerate", "exact.transient",
            "exact.poisson_weights", "odesolve.solve"} <= names
    totals = tracing.layer_totals(spans, 1.0)
    assert totals["exact.states"] == 21 + 3 + 6
    assert totals["exact.spmv"] > 0
    assert capsys.readouterr().out.count("\n") == 2 + 3
