"""CLI round trips: CSV output, exit codes, reproducibility."""

import hashlib
import math
import os
import pathlib
import re
import subprocess
import sys
import time
import tracemalloc

import pytest

from popdrift import expr
from popdrift.cli import main
from popdrift.errors import ModelError
from popdrift.expr import _MAX_DEPTH
from popdrift.model import load_model
from popdrift.odesolve import STEP_CAP

ZERO_DOC = "states = a, b\nrate a -> b : 0\n"
BAD_RANGE_DOC = "states = a, b\nrate a -> b : 1 - 3*m[b]\nrate b -> a : 0.1\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows(text):
    return [line.split(",") for line in text.strip().split("\n")]


def write_model(tmp_path, doc):
    path = tmp_path / "model.pop"
    path.write_text(doc)
    return str(path)


# ---------------------------------------------------------------- exit codes


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["drift", "--N", "10"])
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("error: usage:")


def test_unknown_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "validate" in capsys.readouterr().out


def test_model_error_exits_2(capsys, tmp_path):
    path = write_model(tmp_path, "states = a, b\nrate a -> b : 1 + )\n")
    code, out, err = run(capsys, "drift", "--model", path, "--N", "10", "--m", "1,0")
    assert code == 2
    assert err.startswith("error: model: line 2:")
    assert out == ""


def test_missing_model_file_exits_2(capsys, tmp_path):
    code, _, err = run(
        capsys, "drift", "--model", str(tmp_path / "nope.pop"),
        "--N", "10", "--m", "1,0",
    )
    assert code == 2
    assert err.startswith("error: model:")


def test_unknown_state_in_hist_exits_2(capsys):
    code, _, err = run(
        capsys, "simulate", "--N", "5", "--init", "1,0", "--t", "1",
        "--reps", "2", "--hist", "1,bogus",
    )
    assert code == 2
    assert err.startswith("error: model:")


def test_numerics_error_exits_3(capsys, tmp_path):
    # constant rate 1000 with step 0.05 overshoots the simplex
    path = write_model(tmp_path, "states = a, b\nrate a -> b : 1000\n")
    code, _, err = run(
        capsys, "ode", "--model", path, "--variant", "drift",
        "--N", "10", "--init", "0.5,0.5", "--t", "50", "--points", "3",
    )
    assert code == 3
    assert err.startswith("error: numerics:")


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "--N", "10", "--samples", "50"),
        ("drift", "--N", "10", "--m", "1,0"),
        ("meandrift", "--N", "1000", "--m", "0.3,0.7"),
        ("ode", "--variant", "drift", "--N", "10", "--init", "1,0", "--t", "1"),
        ("ode", "--variant", "meandrift", "--N", "10", "--init", "1,0", "--t", "1",
         "--step", "0.5"),
        ("ode", "--variant", "limit", "--init", "1,0", "--t", "1"),
        ("exact", "--N", "10", "--init", "1,0", "--t", "1"),
        ("simulate", "--N", "10", "--init", "1,0", "--t", "1", "--reps", "3"),
        ("simulate", "--N", "10", "--init", "1,0", "--t", "1", "--reps", "3",
         "--mode", "slotted:10"),
        ("compare", "--Ns", "2,5", "--t", "1", "--init", "1,0", "--step", "0.5",
         "--reps", "3"),
    ],
    ids=["validate", "drift", "meandrift", "ode-drift", "ode-meandrift", "ode-limit",
         "exact", "simulate", "simulate-slotted", "compare"],
)
def test_commands_run_on_the_table_kernels_alone(capsys, monkeypatch, argv):
    # the per-rate compile_fn closures are built only when asked for
    def refused(*args):
        raise AssertionError("compile_fn called")

    monkeypatch.setattr(expr, "compile_fn", refused)
    code, _, err = run(capsys, *argv)
    assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--N", "0", "--init", "1,0", "--t", "1"),
        ("exact", "--N", "0", "--init", "1,0", "--t", "1"),
        ("compare", "--Ns", "0,2", "--t", "1", "--init", "1,0"),
        ("validate", "--N", "0"),
        ("drift", "--N", "0", "--m", "1,0"),
        ("drift", "--N", "nan", "--m", "1,0"),
        ("meandrift", "--N", "0.5", "--m", "1,0"),
        ("ode", "--variant", "drift", "--N", "0", "--init", "1,0", "--t", "1"),
        ("ode", "--variant", "meandrift", "--N", "nan", "--init", "1,0",
         "--t", "1"),
        ("chaos", "--Ns", "2,0", "--t", "1", "--init", "1,0", "--reps", "5"),
    ],
    ids=["simulate", "exact", "compare", "validate", "drift", "drift-nan",
         "meandrift", "ode-drift", "ode-meandrift-nan", "chaos"],
)
def test_population_below_one_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err == "error: model: population size N must be at least 1\n"
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "--N", "inf", "--samples", "10"),
        ("drift", "--N", "inf", "--m", "1,0"),
        ("meandrift", "--N", "inf", "--m", "1,0"),
        ("ode", "--variant", "drift", "--N", "inf", "--init", "1,0", "--t", "1"),
    ],
    ids=["validate", "drift", "meandrift", "ode"],
)
def test_infinite_population_exits_2(capsys, argv):
    # the CLI's floor of one agent, then the library's finiteness check
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err == (
        "error: model: population size N must be positive and finite, got inf\n"
    )
    assert out == ""


@pytest.mark.parametrize("tau", ["1.5", "5", "0"])
@pytest.mark.parametrize(
    "argv",
    [
        ("meandrift", "--N", "10", "--m", "1,0"),
        ("ode", "--variant", "meandrift", "--N", "10", "--init", "1,0", "--t", "1"),
    ],
    ids=["meandrift", "ode"],
)
def test_tau_outside_the_unit_interval_exits_2(capsys, argv, tau):
    # the error names the tolerance given, not its per-coordinate share
    code, out, err = run(capsys, *argv, "--tau", tau)
    assert code == 2
    assert err == f"error: model: tail tolerance must be in (0, 1), got {float(tau)}\n"
    assert out == ""


@pytest.mark.parametrize("tau", ["1.5", "0", "5e-324"])
def test_compare_refuses_tau_before_any_cell(capsys, tau):
    # as meandrift and ode do, not one empty mean-drift cell per N
    code, out, err = run(
        capsys, "compare", "--Ns", "2,5", "--t", "10", "--init", "1,0", "--tau", tau
    )
    assert code == 2
    assert err.startswith("error: model: tail tolerance must be ")
    assert err.endswith(f", got {float(tau)}\n")
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("exact", "--N", "5", "--init", "1,0", "--t", "nan"),
        ("exact", "--N", "5", "--init", "1,0", "--t", "inf"),
        ("compare", "--Ns", "1,2", "--init", "1,0", "--t", "nan"),
        ("ode", "--variant", "drift", "--N", "5", "--init", "1,0", "--t", "inf"),
        ("ode", "--variant", "limit", "--init", "1,0", "--t", "nan"),
        ("simulate", "--N", "5", "--init", "1,0", "--t", "inf"),
        ("simulate", "--N", "5", "--init", "1,0", "--t", "nan"),
        ("chaos", "--Ns", "5", "--init", "1,0", "--reps", "2", "--t", "inf"),
    ],
    ids=["exact-nan", "exact-inf", "compare-nan", "ode-drift-inf", "ode-limit-nan",
         "simulate-inf", "simulate-nan", "chaos-inf"],
)
def test_non_finite_horizon_exits_2(capsys, argv):
    # refused before any array is built on the horizon: simulate's sample
    # grid over [0, inf] made numpy warn, an error in this suite
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err == f"error: model: horizon t must be finite, got {argv[-1]}\n"
    assert out == ""


def test_exact_horizon_beyond_the_product_cap_exits_3_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "exact", "--N", "5", "--init", "1,0", "--t", "1e300")
    assert time.perf_counter() - start < 0.5
    assert code == 3
    assert err.startswith("error: numerics:") and "cap" in err
    assert out == ""


def test_meandrift_past_the_window_cap_exits_3_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "meandrift", "--N", "1e20", "--m", "0.5,0.5")
    assert time.perf_counter() - start < 0.5
    assert code == 3
    assert err.startswith("error: numerics: Poisson window at rate 5e+19")
    assert out == ""


@pytest.mark.parametrize("command", ["drift", "meandrift"])
@pytest.mark.parametrize(
    "m, message",
    [
        ("0.5,0.5,0", "occupancy has 3 entries, model has 2 states"),
        ("0.7,0.7", "occupancy must sum to 1, got 1.4"),
    ],
    ids=["length", "sum"],
)
def test_occupancy_argument_is_checked(capsys, command, m, message):
    code, out, err = run(capsys, command, "--N", "10", "--m", m)
    assert code == 2
    assert err == f"error: model: {message}\n"
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("ode", "--variant", "drift", "--N", "5", "--t", "1"),
        ("exact", "--N", "5", "--t", "1"),
        ("simulate", "--N", "5", "--t", "1", "--reps", "2"),
        ("compare", "--Ns", "5,10", "--t", "1", "--reps", "2"),
        ("chaos", "--Ns", "5", "--t", "1", "--reps", "2"),
    ],
    ids=["ode", "exact", "simulate", "compare", "chaos"],
)
@pytest.mark.parametrize(
    "init, message",
    [
        ("0.5,0.5,0", "occupancy has 3 entries, model has 2 states"),
        ("0.7,0.7", "occupancy must sum to 1, got 1.4"),
    ],
    ids=["length", "sum"],
)
def test_malformed_init_exits_2_before_any_output(capsys, argv, init, message):
    # --init is checked once against the model, in --m's words; compare
    # used to print a row of empty cells per N and exit 0
    code, out, err = run(capsys, *argv, "--init", init)
    assert code == 2
    assert err == f"error: model: {message}\n"
    assert out == ""


POINTS_ARGV = pytest.mark.parametrize(
    "argv",
    [
        ("ode", "--variant", "drift", "--N", "5", "--init", "1,0", "--t", "1"),
        ("simulate", "--N", "5", "--init", "1,0", "--t", "1", "--reps", "2"),
    ],
    ids=["ode", "simulate"],
)


@POINTS_ARGV
@pytest.mark.parametrize("points", ["0", "-3"])
def test_points_below_one_exits_2(capsys, argv, points):
    code, out, err = run(capsys, *argv, "--points", points)
    assert code == 2
    assert err == f"error: model: --points must be at least 1, got {points}\n"
    assert out == ""


@POINTS_ARGV
def test_points_above_the_step_cap_exits_2_at_once(capsys, argv):
    # refused before the sample grid is allocated; for ode every sample
    # time is also a step boundary the step cap would not count
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--points", str(STEP_CAP + 1))
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert err == (
        f"error: model: --points must be at most {STEP_CAP}, got {STEP_CAP + 1}\n"
    )
    assert out == ""


@pytest.mark.parametrize(
    "argv, option",
    [
        (("validate",), "--samples"),
        (("simulate", "--N", "10", "--init", "1,0", "--t", "1"), "--reps"),
        (("compare", "--Ns", "2", "--t", "1", "--init", "1,0"), "--reps"),
        (("chaos", "--Ns", "2", "--t", "1", "--init", "1,0"), "--reps"),
    ],
    ids=["validate", "simulate", "compare", "chaos"],
)
@pytest.mark.parametrize("value", [STEP_CAP + 1, 10**14])
def test_counts_above_the_step_cap_exit_2_at_once(capsys, argv, option, value):
    # refused before the samples or the replications' arrays are allocated
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, option, str(value))
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert err == f"error: model: {option} must be at most {STEP_CAP}, got {value}\n"
    assert out == ""


@pytest.mark.parametrize("step", ["1e-300", "1e-8"])
def test_ode_step_beyond_the_step_cap_exits_3_at_once(capsys, step):
    # refused before the step grid is built: 1e-8 over t=5 would be 4 GB
    start = time.perf_counter()
    code, out, err = run(
        capsys, "ode", "--variant", "drift", "--N", "5", "--init", "1,0",
        "--t", "5", "--step", step,
    )
    assert time.perf_counter() - start < 0.5
    assert code == 3
    assert err == (
        f"error: numerics: horizon 5.0 at step {float(step)} needs more "
        f"than {STEP_CAP} steps\n"
    )
    assert out == ""


def fresh_python(*args):
    """(exit code, stdout, stderr) of a fresh interpreter with this
    checkout's src/ on its path."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    path = filter(None, [str(src), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env,
        timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


def run_python(*args):
    code, out, err = fresh_python(*args)
    assert code == 0, err
    return out


def test_one_process_prints_what_a_fresh_process_prints(capsys, monkeypatch):
    # main builds its parser once per process: each call must still print
    # what the same argv prints alone, after any other call
    monkeypatch.setenv("COLUMNS", "80")  # the help text's width
    runs = [
        ("simulate", "--N", "5", "--init", "1,0", "--t", "1", "--reps", "3",
         "--hist", "0.5,idle"),
        ("simulate", "--N", "5", "--init", "1,0", "--t", "1", "--reps", "3"),
        ("drift", "--N", "10"),
        ("ode", "--variant", "limit", "--init", "1,0", "--t", "2", "--points", "3"),
        ("--help",),
        ("drift", "--N", "10", "--m", "0.4,0.6"),
    ]
    codes = []
    for argv in runs:
        try:
            codes.append(main(list(argv)))
        except SystemExit as exc:
            codes.append(exc.code)
        captured = capsys.readouterr()
        want = fresh_python("-m", "popdrift", *argv)
        assert (codes[-1], captured.out, captured.err) == want
    assert codes == [0, 0, 1, 0, 0, 0]


def test_python_m_popdrift_runs_the_cli():
    out = run_python("-m", "popdrift", "validate", "--N", "10")
    assert out.startswith("N,samples,ok,")


def test_import_leaves_scipy_special_unloaded():
    code = "import sys, popdrift; print('scipy.special' in sys.modules)"
    assert run_python("-c", code) == "False\n"


# one command in a fresh interpreter; its last line is the exit code and
# every scipy module then loaded
CLI_THEN_SCIPY = (
    "import sys\n"
    "from popdrift.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(code, *sorted(m for m in sys.modules if m.startswith('scipy')))\n"
)


def run_fresh(*argv):
    lines = run_python("-c", CLI_THEN_SCIPY, *argv).splitlines(keepends=True)
    code, *loaded = lines[-1].split()
    return int(code), "".join(lines[:-1]), loaded


CONTENTION_MODEL = str(
    pathlib.Path(__file__).parents[1] / "perfbench" / "models" / "contention.pop"
)
_SMALL_SIM = ("simulate", "--N", "10", "--init", "1,0", "--t", "5", "--reps", "3",
              "--seed", "1", "--hist", "5,backoff", "--ref", "{ref}")
SCIPY_FREE_COMMANDS = {
    "drift": ("drift", "--N", "10", "--m", "1,0"),
    "meandrift": ("meandrift", "--N", "10", "--m", "1,0"),
    "ode_drift": ("ode", "--variant", "drift", "--N", "10", "--init", "1,0",
                  "--t", "5", "--points", "3"),
    "ode_meandrift": ("ode", "--variant", "meandrift", "--N", "10",
                      "--init", "1,0", "--t", "5", "--points", "3"),
    "ode_limit": ("ode", "--variant", "limit", "--init", "1,0", "--t", "5",
                  "--points", "3"),
    # no limit lines: the limit is detected numerically
    "ode_limit_numeric": ("ode", "--model", CONTENTION_MODEL, "--variant",
                          "limit", "--init", "1,0,0", "--t", "5", "--points", "3"),
    "simulate_ctmc": _SMALL_SIM,
    "simulate_slotted": _SMALL_SIM + ("--mode", "slotted:10"),
    "chaos": ("chaos", "--Ns", "5", "--t", "2", "--init", "1,0", "--reps", "3",
              "--seed", "1"),
}


def test_import_loads_no_scipy():
    code = "import sys, popdrift; print([m for m in sys.modules if m.startswith('scipy')])"
    assert run_python("-c", code) == "[]\n"


@pytest.mark.parametrize("name", sorted(SCIPY_FREE_COMMANDS))
def test_commands_without_exact_load_no_scipy(capsys, tmp_path, name):
    ref = tmp_path / "ref.csv"
    assert main(["ode", "--variant", "drift", "--N", "10", "--init", "1,0",
                 "--t", "5", "--out", str(ref)]) == 0
    argv = [a.format(ref=ref) for a in SCIPY_FREE_COMMANDS[name]]
    code, out, loaded = run_fresh(*argv)
    assert (code, loaded) == (0, [])
    assert out == run(capsys, *argv)[1]


@pytest.mark.parametrize(
    "argv",
    [
        ("exact", "--N", "10", "--init", "1,0", "--t", "5"),
        ("compare", "--Ns", "2", "--t", "5", "--init", "1,0"),
    ],
    ids=["exact", "compare"],
)
def test_exact_generators_load_scipy_sparse_on_first_use(capsys, argv):
    code, out, loaded = run_fresh(*argv)
    assert code == 0 and "scipy.sparse" in loaded
    assert out == run(capsys, *argv)[1]


def test_exact_builds_rows_only_for_the_states_it_touches(capsys):
    # the whole generator at N=400 (80,601 states, 401,401 nonzeros)
    # peaks near 38 MB; the rows of the one segment's active set fit
    # well under 25 MB
    import scipy.sparse._sparsetools  # noqa: F401  (imports are not the run)

    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "exact", "--model", CONTENTION_MODEL, "--N", "400",
                           "--init", "1,0,0", "--t", "0.5", "--tol", "1e-10")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out.startswith("t,")
    assert peak < 25e6


def test_limit_ode_ignores_population(capsys):
    code, out, _ = run(
        capsys, "ode", "--variant", "limit", "--N", "0", "--init", "1,0",
        "--t", "1", "--points", "2",
    )
    assert code == 0
    assert len(rows(out)) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--N", "2", "--init", "1,0", "--t", "1", "--reps", "2"),
        ("compare", "--Ns", "2", "--t", "10", "--init", "1,0"),
        ("chaos", "--Ns", "2", "--t", "1", "--init", "1,0", "--reps", "2"),
    ],
    ids=["simulate", "compare", "chaos"],
)
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_2(capsys, argv, jobs):
    code, out, err = run(capsys, *argv, "--jobs", jobs)
    assert code == 2
    assert err == "error: model: jobs must be at least 1\n"
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--N", "2", "--init", "1,0", "--t", "1", "--reps", "2"),
        ("compare", "--Ns", "2", "--t", "10", "--init", "1,0", "--reps", "2"),
        ("chaos", "--Ns", "2", "--t", "1", "--init", "1,0", "--reps", "2"),
        ("validate", "--samples", "10"),
    ],
    ids=["simulate", "compare", "chaos", "validate"],
)
def test_negative_seed_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert code == 2
    assert err == "error: model: seed must be non-negative, got -1\n"
    assert out == ""


def deep_doc(depth):
    """A model whose a -> b rate nests exactly depth levels deep."""
    k = (depth - 1) // 2
    rate = "1-(" * k + "*".join(["m[a]"] * (depth - 2 * k)) + ")" * k
    return f"states = a, b\nrate a -> b : {rate}\n"


def test_rate_at_the_nesting_limit_runs(capsys, tmp_path):
    path = write_model(tmp_path, deep_doc(_MAX_DEPTH))
    code, out, err = run(capsys, "drift", "--model", path, "--N", "10", "--m", "1,0")
    assert code == 0, err
    assert rows(out)[0] == ["F_a", "F_b"]


@pytest.mark.parametrize("depth", [_MAX_DEPTH + 1, 601])
def test_rate_over_the_nesting_limit_exits_2(capsys, tmp_path, depth):
    with pytest.raises(ModelError, match=r"line 2: expression nests deeper"):
        load_model(deep_doc(depth))
    path = write_model(tmp_path, deep_doc(depth))
    code, out, err = run(capsys, "drift", "--model", path, "--N", "10", "--m", "1,0")
    assert code == 2
    assert re.fullmatch(
        rf"error: model: line 2: expression nests deeper than {_MAX_DEPTH} "
        r"levels \(column \d+\)\n",
        err,
    )
    assert out == ""


def test_validate_failure_exits_2(capsys, tmp_path):
    path = write_model(tmp_path, BAD_RANGE_DOC)
    code, out, err = run(capsys, "validate", "--model", path, "--N", "20")
    assert code == 2
    assert "error: model: validation failed:" in err
    # the report row is still emitted
    header, row = rows(out)
    assert header[2] == "ok"
    assert row[2] == "false"


ZERO_DIVISOR_DOC = "states = a, b\nparam p = 0\nrate a -> b : 1/p\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("drift", "--N", "10", "--m", "1,0"),
        ("validate", "--N", "10", "--samples", "20"),
        ("meandrift", "--N", "10", "--m", "1,0"),
        ("simulate", "--N", "10", "--init", "1,0", "--t", "1", "--reps", "2"),
        ("exact", "--N", "10", "--init", "1,0", "--t", "1"),
    ],
    ids=["drift", "validate", "meandrift", "simulate", "exact"],
)
def test_division_by_a_constant_zero_exits_2(capsys, tmp_path, argv):
    path = write_model(tmp_path, ZERO_DIVISOR_DOC)
    code, _, err = run(capsys, argv[0], "--model", path, *argv[1:])
    assert code == 2
    assert re.search(r"^error: model: .*rate a -> b at m=\(.*\): evaluated to inf$", err, re.M)


# finite on the simplex; exp(-1/m[c]) overflows where m[c] dips below 0
STAGE_DOC = (
    "states = a, b, c\n"
    "rate a -> b : 0.1\nrate b -> c : 1\nrate c -> a : 100\n"
    "rate b -> a : exp(-1/m[c])\n"
)


@pytest.mark.parametrize("variant", ["drift", "meandrift"])
def test_rk4_stage_points_below_the_simplex_are_clipped(capsys, tmp_path, variant):
    path = write_model(tmp_path, STAGE_DOC)
    code, out, err = run(
        capsys, "ode", "--model", path, "--variant", variant, "--N", "20",
        "--init", "1,0,0", "--t", "30", "--points", "31",
    )
    assert code == 0, err
    table = rows(out)
    assert len(table) == 32
    final = [float(x) for x in table[-1][1:]]
    assert min(final) >= 0.0 and sum(final) == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------------- values


def test_drift_csv_value(capsys):
    code, out, _ = run(capsys, "drift", "--N", "10", "--m", "1,0")
    assert code == 0
    header, row = rows(out)
    assert header == ["F_idle", "F_backoff"]
    expected = 0.008 * (1.0 - (1.0 - 0.008 / 2.0) ** 10)
    assert math.isclose(float(row[1]), expected, rel_tol=1e-12)
    assert math.isclose(float(row[0]), -expected, rel_tol=1e-12)


def test_meandrift_matches_library(capsys):
    import numpy as np

    from popdrift.meandrift import mean_drift
    from popdrift.model import builtin_example

    code, out, _ = run(capsys, "meandrift", "--N", "10", "--m", "0.5,0.5")
    assert code == 0
    _, row = rows(out)
    vec = mean_drift(builtin_example(), 10, np.array([0.5, 0.5]))
    assert math.isclose(float(row[0]), vec[0], rel_tol=1e-12)
    assert math.isclose(float(row[1]), vec[1], rel_tol=1e-12)


def test_ode_limit_final_value(capsys):
    code, out, _ = run(
        capsys, "ode", "--variant", "limit", "--init", "1,0",
        "--t", "1000", "--points", "11",
    )
    assert code == 0
    table = rows(out)
    assert table[0] == ["t", "phi_idle", "phi_backoff"]
    assert len(table) == 12
    assert float(table[-1][0]) == 1000.0
    assert abs(float(table[-1][2]) - (1.0 - math.exp(-0.008 * 1000.0))) < 1e-6


def test_exact_matches_detailed_balance(capsys):
    code, out, _ = run(capsys, "exact", "--N", "1", "--init", "1,0", "--t", "1000")
    assert code == 0
    header, row = rows(out)
    assert header == ["t", "E_phi_idle", "E_phi_backoff", "mode"]
    assert abs(float(row[2]) - 6.5598e-4) < 1e-8
    assert row[3] == "1|0"


def test_exact_full_distribution_sums_to_one(capsys):
    code, out, _ = run(
        capsys, "exact", "--N", "4", "--init", "1,0", "--t", "100", "--full"
    )
    assert code == 0
    summary, dump = out.split("\n\n")
    table = rows(dump)
    assert table[0] == ["state_counts", "probability"]
    assert len(table) == 1 + 5
    total = sum(float(r[1]) for r in table[1:])
    assert abs(total - 1.0) < 1e-12
    counts = [r[0] for r in table[1:]]
    assert counts[0] == "0|4" and counts[-1] == "4|0"
    # expected occupancy from the dump agrees with the summary row
    occ2 = sum(float(r[1]) * int(r[0].split("|")[1]) / 4.0 for r in table[1:])
    assert abs(occ2 - float(rows(summary)[1][2])) < 1e-12


def test_simulate_sections(capsys, tmp_path):
    ref = tmp_path / "ref.csv"
    code, _, _ = run(
        capsys, "ode", "--variant", "drift", "--N", "10", "--init", "1,0",
        "--t", "200", "--points", "9", "--out", str(ref),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "simulate", "--N", "10", "--init", "1,0", "--t", "200",
        "--reps", "40", "--seed", "5", "--points", "9",
        "--hist", "200,backoff", "--ref", str(ref),
    )
    assert code == 0
    mean_sec, hist_sec, sup_sec = out.split("\n\n")
    table = rows(mean_sec)
    assert table[0] == [
        "t", "mean_phi_idle", "mean_phi_backoff",
        "stderr_phi_idle", "stderr_phi_backoff",
    ]
    assert len(table) == 10
    # means stay on the simplex
    for r in table[1:]:
        assert abs(float(r[1]) + float(r[2]) - 1.0) < 1e-12

    hist = rows(hist_sec)
    assert hist[0] == ["hist_time", "hist_state", "k", "count"]
    assert sum(int(r[3]) for r in hist[1:]) == 40
    assert all(r[1] == "backoff" for r in hist[1:])

    sup = rows(sup_sec)
    assert sup[0] == ["mse_sup", "reps", "failures"]
    assert float(sup[1][0]) >= 0.0
    assert sup[1][1] == "40" and sup[1][2] == "0"


MALFORMED_INPUTS = {
    "columns": ("--ref", b"t,phi_a\n0,1\n1,0.5\n", "columns"),
    "non_numeric": ("--ref", b"t,a,b\n0,x,1\n", "could not convert"),
    "nan_time": ("--ref", b"t,idle,backoff\n0,1,0\nnan,1,0\n", "non-finite"),
    "nan_value": ("--ref", b"t,idle,backoff\n0,1,0\n1,nan,0\n", "non-finite"),
    "header_only": ("--ref", b"t,idle,backoff\n", "no rows"),
    "ref_not_utf8": ("--ref", b"t,idle,backoff\n0,\xff,0\n", "utf-8"),
    "model_not_utf8": ("--model", b"states = a, \xff\n", "not UTF-8"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_simulate_rejects_malformed_reference(capsys, tmp_path, case):
    flag, content, words = MALFORMED_INPUTS[case]
    path = tmp_path / "input"
    path.write_bytes(content)
    code, out, err = run(
        capsys, "simulate", "--N", "5", "--init", "1,0", "--t", "1",
        "--reps", "2", flag, str(path),
    )
    assert code == 2
    assert err.startswith("error: model:") and words in err
    assert out == ""


def test_compare_small_populations(capsys):
    code, out, err = run(
        capsys, "compare", "--Ns", "1,2,5", "--t", "1000", "--init", "1,0",
        "--step", "0.5",
    )
    assert code == 0
    assert err == ""
    table = rows(out)
    assert table[0] == ["N", "phi2_drift", "phi2_meandrift", "phi2_exact"]
    assert [r[0] for r in table[1:]] == ["1", "2", "5"]
    row1 = table[1]
    assert abs(float(row1[3]) - 6.5598e-4) < 1e-8
    # the Poisson-averaged ODE tracks the exact mean at tiny N
    for r in table[1:]:
        assert abs(float(r[2]) - float(r[3])) < 0.02
        assert float(r[1]) > 0.0


def test_compare_leaves_exact_empty_past_the_state_space_cap(capsys, tmp_path):
    # 6 states at N=50: C(55, 5) = 3,478,761 count vectors
    doc = "states = a, b, c, d, e, f\nrate a -> b : 1\nrate b -> c : 0.5\n"
    path = write_model(tmp_path, doc)
    code, out, err = run(
        capsys, "compare", "--model", path, "--Ns", "50", "--t", "1",
        "--init", "1,0,0,0,0,0", "--step", "0.5", "--reps", "0",
    )
    assert code == 0
    assert err == (
        "warning: N=50 phi2_exact failed: state space needs 3478761 count "
        "vectors, above the cap 1000000\n"
    )
    header, row = rows(out)
    assert header == ["N", "phi2_drift", "phi2_meandrift", "phi2_exact"]
    assert row[0] == "50" and float(row[1]) > 0 and float(row[2]) > 0
    assert row[3] == ""


def test_compare_sim_columns_and_zero_rate_model(capsys, tmp_path):
    path = write_model(tmp_path, ZERO_DOC)
    code, out, _ = run(
        capsys, "compare", "--model", path, "--Ns", "2,4", "--t", "10",
        "--init", "0.5,0.5", "--reps", "10", "--seed", "3",
    )
    assert code == 0
    table = rows(out)
    assert table[0][-2:] == ["phi2_sim_mean", "phi2_sim_stderr"]
    for r in table[1:]:
        # nothing moves, so every column reports the initial occupancy
        for col in (1, 2, 3, 4):
            assert float(r[col]) == 0.5
        assert float(r[5]) == 0.0


def test_chaos_output_shape(capsys):
    code, out, _ = run(
        capsys, "chaos", "--Ns", "5,10", "--t", "50", "--init", "1,0",
        "--reps", "100", "--seed", "7", "--step", "0.5",
    )
    assert code == 0
    table = rows(out)
    assert table[0] == ["N", "lambda", "tv_backoff"]
    assert [r[0] for r in table[1:]] == ["5", "10"]
    for r in table[1:]:
        assert 0.0 < float(r[1]) < 1.0
        assert 0.0 <= float(r[2]) <= 1.0


def test_validate_default_model(capsys):
    code, out, err = run(capsys, "validate", "--N", "100", "--samples", "200")
    assert code == 0
    assert err == ""
    header, row = rows(out)
    assert header[0] == "N" and row[2] == "true"
    assert float(row[4]) < 1.0  # rates here are small probabilities


# ---------------------------------------------------------- reproducibility


def test_repeated_runs_byte_identical(tmp_path, capsys):
    args = [
        "simulate", "--N", "20", "--init", "1,0", "--t", "100",
        "--reps", "30", "--seed", "42", "--points", "5",
        "--hist", "100,backoff",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != b""


SIR_MODEL = str(pathlib.Path(__file__).parents[1] / "perfbench" / "models" / "sir.pop")
_SIM_BASE = ("simulate", "--N", "160", "--init", "1,0", "--t", "200", "--seed", "0")
_SIM_REF = ("--reps", "100", "--hist", "200,backoff", "--ref", "{ref}")
# sha256 of the stdout of the benchmark's seeded simulate commands at
# seed 0; a change that alters the random streams on purpose updates
# them and says so
GOLDEN_SIMULATE = {
    "sim_ctmc": (
        _SIM_BASE + _SIM_REF,
        "4170846b09877f67e803ee079a00937ca811e847552ed7660a9026f5034efd38",
    ),
    "sim_slotted": (
        _SIM_BASE + ("--reps", "32", "--mode", "slotted:10"),
        "3ce1396bef69ce17cb1fa40471278650b00ec58f4a0a9f8b2e144ac377b6e666",
    ),
    "sim_ctmc_jobs2": (
        _SIM_BASE + _SIM_REF + ("--jobs", "2"),
        "4170846b09877f67e803ee079a00937ca811e847552ed7660a9026f5034efd38",
    ),
    "sim_sirs_long": (
        ("simulate", "--model", SIR_MODEL, "--N", "500", "--init", "0.9,0.1,0",
         "--t", "100", "--reps", "4", "--seed", "0"),
        "3fe28443529288ef8d20e149ee198ffaf1d700e692df88753d850c398af25f5a",
    ),
}


# sha256 of the stdout of seeded compare and chaos sweeps with a
# simulation column, recorded beside GOLDEN_SIMULATE
GOLDEN_SWEEPS = {
    "compare_reps": (
        ("compare", "--Ns", "1,2,5,20", "--t", "200", "--init", "1,0",
         "--step", "0.5", "--reps", "200", "--seed", "13"),
        "c84d27bf5afbc8139ec2ea85ab6b99e210b140dd491e1f8a0f913d008ceb7f08",
    ),
    "chaos": (
        ("chaos", "--Ns", "10,40", "--t", "200", "--init", "1,0",
         "--reps", "500", "--seed", "1"),
        "30fa15828c4bcf7c41d2d7cd40d4471266b71a106216e4f1e898a5b1d737e28e",
    ),
}


CONTENTION_MODEL = str(
    pathlib.Path(__file__).parents[1] / "perfbench" / "models" / "contention.pop"
)
# sha256 of the stdout of mean-drift ODEs: the benchmark's two (the
# bundled model's split path at N=1000, SIRS's joint sum over two
# coordinates) and a contention ODE that moves its windows at N=200
GOLDEN_MEAN_DRIFT = {
    "ode_meandrift_n1000": (
        ("ode", "--variant", "meandrift", "--N", "1000", "--init", "1,0",
         "--t", "50", "--step", "0.5", "--tau", "1e-10"),
        "6319852754ee4b2c56ad009616f7efbca4cd8dc29a317b75f8bfb0bfec7787d9",
    ),
    "ode_meandrift_sirs_n100": (
        ("ode", "--model", SIR_MODEL, "--variant", "meandrift", "--N", "100",
         "--init", "0.9,0.1,0", "--t", "0.5", "--step", "0.25", "--tau", "1e-10"),
        "20906e0dc8ae6b0706897a173013bd430eb19a29564fcbdd9434f403713fdb38",
    ),
    "ode_meandrift_contention_n200": (
        ("ode", "--model", CONTENTION_MODEL, "--variant", "meandrift", "--N", "200",
         "--init", "1,0,0", "--t", "20", "--step", "0.1"),
        "0b2d0b810dad440c138b441de6a72f1e60677401af975c09989defa19dc93193",
    ),
}
# sha256 of the stdout of drift and limit ODEs: the benchmark's bundled
# drift ODE, its declared limit ODE and the simulate reference ODE, a
# SIRS drift ODE, whose kernel calls no numpy, and contention's drift
# and its limit, which contention declares no rates for, so it runs
# the numeric limit
GOLDEN_DRIFT = {
    "ode_drift_n50": (
        ("ode", "--variant", "drift", "--N", "50", "--init", "1,0", "--t", "500"),
        "869d26c5ae08e4ce25d591c45fa9ec218dff37615d2331217ca41c3484a0be80",
    ),
    "ode_limit": (
        ("ode", "--variant", "limit", "--init", "1,0", "--t", "500"),
        "d95073aa02ff41ef0ed9b7279e03b8d81130a978f6838ecfb30a517295fbc9a2",
    ),
    "ode_drift_ref_n160": (
        ("ode", "--variant", "drift", "--N", "160", "--init", "1,0", "--t", "200"),
        "62eb877df741fb0228f2516b4a284d0c5f73a0de72216ce7491eb42e62c5c802",
    ),
    "ode_drift_sirs_n100": (
        ("ode", "--model", SIR_MODEL, "--variant", "drift", "--N", "100",
         "--init", "0.9,0.1,0", "--t", "50"),
        "28a1e9be2ab19bd621df48b49e6479bf7e82360292da15aa1ad11a5d16899485",
    ),
    "ode_drift_contention_n200": (
        ("ode", "--model", CONTENTION_MODEL, "--variant", "drift", "--N", "200",
         "--init", "1,0,0", "--t", "20"),
        "39885d97573db6fd3a147d64739c72826a5b2bf647a7e9f620f2f8a4fd167863",
    ),
    "ode_limit_contention": (
        ("ode", "--model", CONTENTION_MODEL, "--variant", "limit",
         "--init", "1,0,0", "--t", "20"),
        "ed039bf4d65ef675f81ed8d78cdf87bf4d46244d4762cfa05733b316b5e107c2",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DRIFT))
def test_drift_ode_output_matches_its_digest(capsys, name):
    argv, digest = GOLDEN_DRIFT[name]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(GOLDEN_MEAN_DRIFT))
def test_mean_drift_ode_output_matches_its_digest(capsys, name):
    argv, digest = GOLDEN_MEAN_DRIFT[name]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(GOLDEN_SWEEPS))
def test_seeded_sweep_output_matches_its_digest(capsys, name):
    argv, digest = GOLDEN_SWEEPS[name]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(GOLDEN_SIMULATE))
def test_seeded_simulate_output_matches_its_digest(capsys, tmp_path, name):
    argv, digest = GOLDEN_SIMULATE[name]
    ref = tmp_path / "ref.csv"
    assert main([
        "ode", "--variant", "drift", "--N", "160", "--init", "1,0",
        "--t", "200", "--out", str(ref),
    ]) == 0
    code, out, err = run(capsys, *(a.replace("{ref}", str(ref)) for a in argv))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_jobs_do_not_change_simulate_output(tmp_path, capsys):
    args = [
        "simulate", "--N", "15", "--init", "1,0", "--t", "150",
        "--reps", "130", "--seed", "9", "--points", "4",
    ]
    a, b = tmp_path / "j1.csv", tmp_path / "j4.csv"
    assert main(args + ["--jobs", "1", "--out", str(a)]) == 0
    assert main(args + ["--jobs", "4", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_jobs_do_not_change_compare_output(tmp_path, capsys):
    args = [
        "compare", "--Ns", "1,2,5,8", "--t", "200", "--init", "1,0",
        "--step", "0.5", "--reps", "25", "--seed", "13",
    ]
    a, b = tmp_path / "j1.csv", tmp_path / "j3.csv"
    assert main(args + ["--jobs", "1", "--out", str(a)]) == 0
    assert main(args + ["--jobs", "3", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
