"""The benchmark's own tests: a wrong output must count as a failed operation.

Run from the repository root, either directly or under pytest:

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import child  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

_CHEAP = {"tiny": (workloads.WORKLOADS["ensemble"][0],)}


def _op(name: str) -> workloads.Op:
    return next(op for ops in workloads.WORKLOADS.values() for op in ops if op.name == name)


def _execute(op: workloads.Op) -> tuple:
    os.makedirs(workloads.WORK, exist_ok=True)  # where --out files go
    return workloads.execute(op, 1)


def _nudge_last_value(text: str, delta: float) -> str:
    lines = text.rstrip("\n").split("\n")
    cells = lines[-1].split(",")
    cells[-1] = repr(float(cells[-1]) + delta)
    lines[-1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _run_tiny(monkey_execute) -> dict:
    saved = workloads.WORKLOADS, workloads.execute
    workloads.WORKLOADS, workloads.execute = _CHEAP, monkey_execute
    try:
        return child._run("tiny", seed=1, seconds=0.0, traced_run=False)
    finally:
        workloads.WORKLOADS, workloads.execute = saved


def test_perturbed_output_counts_as_failed():
    real = workloads.execute
    calls = []

    def perturb_second_run(op, seed):
        code, text, err = real(op, seed)
        calls.append(op.name)
        if len(calls) == 2:
            text = _nudge_last_value(text, 1e-6)
        return code, text, err

    result = _run_tiny(perturb_second_run)
    assert result["attempted"] == child.MIN_PASSES
    assert result["failed"] == 1, result["problems"]


def test_unperturbed_output_passes_and_keeps_its_sha():
    result = _run_tiny(workloads.execute)
    assert result["failed"] == 0, result["problems"]
    expected = workloads.load_expected()
    op = _CHEAP["tiny"][0]
    text = _execute(op)[1]
    tally = workloads.Tally()
    tally.add(op, 1, text, [], expected)
    assert tally.sha_matching_ops() == 1
    tally.add(op, 1, _nudge_last_value(text, 1e-15), [], expected)
    assert tally.sha_matching_ops() == 0


def test_seeded_sha_counts_only_with_the_recorded_seed():
    expected = workloads.load_expected()
    _execute(_op("ode_drift_ref"))  # the --ref file of sim_ctmc
    op = _op("sim_ctmc")
    tally = workloads.Tally()
    tally.add(op, workloads.SHA_SEED + 1, workloads.execute(op, workloads.SHA_SEED + 1)[1],
              [], expected)
    assert tally.sha_matching_ops() == 0 and not tally.sha_match
    tally.add(op, workloads.SHA_SEED, workloads.execute(op, workloads.SHA_SEED)[1], [], expected)
    assert tally.sha_matching_ops() == 1


def test_nonzero_exit_counts_as_failed():
    result = _run_tiny(lambda op, seed: (3, "", "error: numerics: injected"))
    assert result["failed"] == result["attempted"] == child.MIN_PASSES


def test_exact_values_within_tol_pass_and_beyond_fail():
    op = _op("exact_bundled_n2000")
    entry = workloads.load_expected()[op.key]
    tol = float(op.option("--tol"))

    def csv(shift: float) -> str:
        row = [entry["values"][0]] + [v + shift for v in entry["values"][1:]] + ["0|2000"]
        return ",".join(entry["header"]) + "\n" + ",".join(repr(x) for x in row[:-1]) + ",0|2000\n"

    expected = workloads.load_expected()
    assert workloads.check(op, 0, csv(1.5 * tol), "", expected, {}) == []
    assert workloads.check(op, 0, csv(3.0 * tol), "", expected, {}) != []


def test_simulated_mean_shift_and_twin_mismatch_fail():
    op = _op("sim_ctmc")
    expected = workloads.load_expected()
    _execute(_op("ode_drift_ref"))
    code, text, err = _execute(op)
    assert workloads.check(op, code, text, err, expected, {}) == []
    sections = text.split("\n\n")
    lines = sections[0].rstrip("\n").split("\n")
    shifted = [lines[0]]
    for line in lines[1:]:
        cells = [float(x) for x in line.split(",")]
        cells[1] -= 0.03  # five average standard errors are about 0.025 here
        cells[2] += 0.03
        shifted.append(",".join(repr(x) for x in cells))
    bad = "\n".join(shifted) + "\n\n" + "\n\n".join(sections[1:])
    assert workloads.check(op, code, bad, err, expected, {}) != []
    twin = _op("sim_ctmc_jobs2")
    assert workloads.check(twin, code, text, err, expected, {"sim_ctmc": "0" * 64}) != []


def test_sirs_with_a_ten_percent_rate_error_fails():
    op = _op("sim_sirs_long")
    expected = workloads.load_expected()
    code, text, err = _execute(op)
    assert workloads.check(op, code, text, err, expected, {}) == []
    with open(workloads.SIR, "r", encoding="utf-8") as fh:
        doc = fh.read()
    assert "param beta = 2\n" in doc
    for beta in ("2.2", "1.8"):
        path = os.path.join(workloads.WORK, f"sir_beta_{beta}.pop")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc.replace("param beta = 2\n", f"param beta = {beta}\n"))
        wrong = dataclasses.replace(
            op, argv=tuple(path if part == workloads.SIR else part for part in op.argv))
        code, text, err = _execute(wrong)
        assert code == 0, err
        assert workloads.check(op, code, text, err, expected, {}) != [], beta


def test_tracing_leaves_output_unchanged_and_records_layers():
    op = _op("ode_drift_ref")
    plain = _execute(op)[1]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = tracer.span("cli.main", workloads.execute, op, 1)[1]
    finally:
        tracer.uninstall()
    assert traced == plain
    totals = tracing.layer_totals(tracer.take(), 1.0)
    assert totals["odesolve.field_evals"] == 4 * 2000
    assert totals["model.load_s"] > 0.0


if __name__ == "__main__":
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except Exception as exc:  # report every test, then fail
                failed += 1
                print(f"FAIL {name}: {exc}")
    sys.exit(1 if failed else 0)
