"""The benchmark's tracer against the package: every name it wraps in
``popdrift.cli`` must still be there, or a traced benchmark run fails."""

import importlib
import math
import pathlib

import numpy as np
import pytest

from popdrift import cli, exact
from popdrift.model import builtin_example
from popdrift.sim import simulate_ctmc

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


def test_tracer_counts_the_events_and_slots_of_simulate_commands(tracing, tmp_path, capsys):
    ref = tmp_path / "ref.csv"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["ode", "--N", "20", "--init", "1,0", "--t", "100",
                         "--out", str(ref)]) == 0
        tracer.take()
        argv = ["simulate", "--N", "20", "--init", "1,0", "--t", "100", "--reps", "9",
                "--seed", "4", "--points", "5", "--hist", "100,backoff", "--ref", str(ref)]
        assert tracer.span("cli.main", cli.main, argv) == 0
        ctmc = tracing.layer_totals(tracer.take(), 1.0)
        argv = ["simulate", "--N", "10", "--init", "1,0", "--t", "2.05", "--reps", "7",
                "--mode", "slotted:10", "--points", "3"]
        assert tracer.span("cli.main", cli.main, argv) == 0
        slotted = tracing.layer_totals(tracer.take(), 1.0)
    finally:
        tracer.uninstall()
    out = capsys.readouterr().out
    assert "mse_sup,reps,failures" in out and "hist_time,hist_state,k,count" in out
    model = builtin_example()
    events = sum(
        int(simulate_ctmc(model, 20, (20, 0), 100.0, np.random.default_rng(ss), (0.0,))[1].sum())
        for ss in np.random.SeedSequence(4).spawn(9)
    )
    assert events > 0
    assert (ctmc["sim.events"], ctmc["sim.ok"], ctmc["sim.reps"]) == (events, 9, 9)
    assert ctmc["sim.slots"] == 0
    assert slotted["sim.slots"] == 7 * math.floor(2.05 * 10 + 1e-9) == 140
    assert (slotted["sim.events"], slotted["sim.ok"], slotted["sim.reps"]) == (0, 7, 7)
