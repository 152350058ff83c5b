"""Workloads of the benchmark: their operations and the output checks.

An operation is one README command, run in-process through
``popdrift.cli.main``.  A workload is a fixed list of operations; one
pass runs each of them once.  Only the commands that take ``--seed``
depend on the workload seed; the deterministic commands have fixed
inputs, so their CSV is compared with values recorded by
``record.py`` in ``expected.json``.

Checks:

- ``ode``: every value matches the recorded row within
  ``tau * (1 + t)``, where ``tau`` is the command's ``--tau`` (its
  default, 1e-10, when the command does not set it).
- ``exact``: every expected occupancy matches within ``2 * tol`` (both
  runs are within ``--tol`` of the exact law).
- ``sim``: each state's simulated mean, averaged over the sample grid,
  lies within ``SIM_K`` standard errors of the same average of the
  recorded exact transient means.  The standard error of the average
  is bounded by the average of the per-point standard errors, which
  holds however the points are correlated but is loose.  For a model
  that mixes within a few time units (SIRS) a batch-means test adds a
  sharp bound: the grid without t=0 is cut into ``batches`` equal
  windows, and the mean of the window averages of simulated minus
  reference must lie within ``BATCH_K`` standard errors, estimated
  from the spread of the window averages.  (The mean-drift ODE is no
  reference for it: on SIRS at N=500 its endemic S is off by about
  two such standard errors.)  Means lie in [0, 1] and each row sums to
  1; histograms hold one count per replication; the reference section
  reports no failed replication.
- a command that repeats another with ``--jobs 2`` must print the same
  bytes as it (``twin``).

Every CSV's sha256 is compared with the one ``record.py`` recorded:
for a deterministic command on every run, for a seeded command only
when it runs with ``SHA_SEED`` (the traced run adds such a pass).
Matches are reported as a count, not as a check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import statistics
from dataclasses import dataclass, field
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
MODELS = os.path.join("perfbench", "models")
WORK = os.path.join("perfbench", "_work")
EXPECTED = os.path.join(HERE, "expected.json")

SIR = os.path.join(MODELS, "sir.pop")
CONTENTION = os.path.join(MODELS, "contention.pop")
REF_CSV = os.path.join(WORK, "ref.csv")

# standard errors allowed between a simulated grid average and its
# reference; the bound on the standard error is conservative, so a
# correct sampler stays far inside it
SIM_K = 5.0
# batch-means standard errors allowed; over 70 seeds of the SIRS
# operation the largest statistic was 3.8, and with beta 10% off the
# smallest was 10.6
BATCH_K = 7.0
DEFAULT_TAU = 1e-10
# seed of the pass whose seeded CSVs have a recorded sha256
SHA_SEED = 0


@dataclass(frozen=True)
class Op:
    """One command of a workload.

    ``argv`` may hold ``{seed}``.  ``kind`` selects the check; ``key``
    names the recorded values in expected.json; ``twin`` names an
    earlier operation of the pass whose CSV this one must equal;
    ``batches`` > 0 adds the batch-means test of a simulated mean.
    Everything else (``--reps``, ``--out``, ...) is read from ``argv``.
    """

    name: str
    argv: tuple
    kind: str
    key: Optional[str] = None
    twin: Optional[str] = None
    batches: int = 0

    def command(self, seed: int) -> list:
        return [part.replace("{seed}", str(seed)) for part in self.argv]

    @property
    def seeded(self) -> bool:
        return "{seed}" in self.argv

    def option(self, flag: str, default=None):
        """The value after ``flag`` in ``argv``, or ``default``."""
        if flag in self.argv:
            return self.argv[self.argv.index(flag) + 1]
        return default


def _sim(name, extra, key, reps, **kw):
    argv = (
        "simulate", "--N", "160", "--init", "1,0", "--t", "200",
        "--reps", str(reps), "--seed", "{seed}",
    ) + tuple(extra)
    return Op(name, argv, "sim", key=key, **kw)


_CTMC_EXTRA = ("--hist", "200,backoff", "--ref", REF_CSV)

# Why these workloads: `ensemble` spends its time in the samplers and
# scalar rate calls of `sim`, and its long SIRS paths make per-event
# snapshot memory show in peak RSS; `meanfield` runs the ODE layers
# (`meandrift` windows and lattice sums, `drift`, `odesolve`) with the
# rate kernel in batched use; `exact` runs enumeration, generator
# assembly and uniformization.  Each bypasses the others' layers.
WORKLOADS = {
    "ensemble": (
        Op(
            "ode_drift_ref",
            ("ode", "--variant", "drift", "--N", "160", "--init", "1,0",
             "--t", "200", "--out", REF_CSV),
            "ode", key="ode_drift_ref",
        ),
        _sim("sim_ctmc", _CTMC_EXTRA, "ref_bundled_n160", 100),
        _sim("sim_slotted", ("--mode", "slotted:10"), "ref_bundled_n160", 32),
        _sim("sim_ctmc_jobs2", _CTMC_EXTRA + ("--jobs", "2"),
             "ref_bundled_n160", 100, twin="sim_ctmc"),
        # SIRS relaxes at rate 0.42, so 20 windows of 5 time units are
        # close to independent for the batch-means test
        Op(
            "sim_sirs_long",
            ("simulate", "--model", SIR, "--N", "500", "--init", "0.9,0.1,0",
             "--t", "100", "--reps", "4", "--seed", "{seed}"),
            "sim", key="ref_sirs_n500", batches=20,
        ),
    ),
    "meanfield": (
        Op(
            "ode_meandrift_n1000",
            ("ode", "--variant", "meandrift", "--N", "1000", "--init", "1,0",
             "--t", "50", "--step", "0.5", "--tau", "1e-10"),
            "ode", key="ode_meandrift_n1000",
        ),
        Op(
            "ode_meandrift_sirs_n100",
            ("ode", "--model", SIR, "--variant", "meandrift", "--N", "100",
             "--init", "0.9,0.1,0", "--t", "0.5", "--step", "0.25",
             "--tau", "1e-10"),
            "ode", key="ode_meandrift_sirs_n100",
        ),
        Op(
            "ode_drift_n50",
            ("ode", "--variant", "drift", "--N", "50", "--init", "1,0",
             "--t", "500"),
            "ode", key="ode_drift_n50",
        ),
        Op(
            "ode_limit",
            ("ode", "--variant", "limit", "--init", "1,0", "--t", "500"),
            "ode", key="ode_limit",
        ),
    ),
    "exact": (
        Op(
            "exact_contention_n200",
            ("exact", "--model", CONTENTION, "--N", "200", "--init", "1,0,0",
             "--t", "20", "--tol", "1e-10"),
            "exact", key="exact_contention_n200",
        ),
        Op(
            "exact_contention_n400",
            ("exact", "--model", CONTENTION, "--N", "400", "--init", "1,0,0",
             "--t", "0.5", "--tol", "1e-10"),
            "exact", key="exact_contention_n400",
        ),
        Op(
            "exact_bundled_n2000",
            ("exact", "--N", "2000", "--init", "1,0", "--t", "400",
             "--tol", "1e-10"),
            "exact", key="exact_bundled_n2000",
        ),
    ),
}

# model documents each workload loads; set-up time covers loading them
MODEL_DOCS = {
    "ensemble": (None, SIR),
    "meanfield": (None, SIR),
    "exact": (None, CONTENTION),
}


def load_expected() -> dict:
    with open(EXPECTED, "r", encoding="utf-8") as fh:
        return json.load(fh)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def execute(op: Op, seed: int) -> tuple:
    """Run one command in-process; returns (exit code, CSV text, stderr)."""
    from popdrift.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(op.command(seed))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    text = stdout.getvalue()
    out = op.option("--out")
    if code == 0 and out is not None:
        with open(out, "r", encoding="utf-8") as fh:
            text = fh.read()
    return code, text, stderr.getvalue()


def parse_table(section: str) -> tuple:
    lines = section.strip("\n").split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _close(got: float, want: float, tol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= tol


def _check_ode(op: Op, text: str, expected: dict) -> list:
    header, rows = parse_table(text)
    want = expected["rows"]
    if header != expected["header"] or len(rows) != len(want):
        return [f"{op.name}: header or row count differs from the record"]
    tau = float(op.option("--tau", DEFAULT_TAU))
    for row, ref in zip(rows, want):
        tol = tau * (1.0 + abs(ref[0]))
        if len(row) != len(ref) or not all(_close(float(g), w, tol) for g, w in zip(row, ref)):
            return [f"{op.name}: row t={row[0]} differs from {ref} by more than {tol:g}"]
    return []


def _check_exact(op: Op, text: str, expected: dict) -> list:
    header, rows = parse_table(text)
    if header != expected["header"] or len(rows) != 1:
        return [f"{op.name}: header or row count differs from the record"]
    tol = 2.0 * float(op.option("--tol", 1e-12))
    got = [float(x) for x in rows[0][:-1]]
    if not all(_close(g, w, tol) for g, w in zip(got, expected["values"])):
        return [f"{op.name}: {got} differs from {expected['values']} by more than {tol:g}"]
    return []


def _check_sim(op: Op, text: str, expected: dict) -> list:
    sections = text.split("\n\n")
    header, rows = parse_table(sections[0])
    n = (len(header) - 1) // 2
    times = expected["times"]
    if len(rows) != len(times) or n != len(expected["mean"][0]):
        return [f"{op.name}: grid or state count differs from the reference"]
    problems = []
    values = [[float(x) for x in row] for row in rows]
    for row in values:
        means = row[1:1 + n]
        if not all(-1e-12 <= v <= 1.0 + 1e-12 for v in means) or abs(sum(means) - 1.0) > 1e-9:
            problems.append(f"{op.name}: means at t={row[0]} leave the simplex")
            break
    for s in range(n):
        sim_avg = sum(row[1 + s] for row in values) / len(values)
        ref_avg = sum(ref[s] for ref in expected["mean"]) / len(values)
        se_avg = sum(row[1 + n + s] for row in values) / len(values)
        if not abs(sim_avg - ref_avg) <= SIM_K * se_avg + 1e-12:
            problems.append(
                f"{op.name}: {header[1 + s]} grid average {sim_avg:.6g} is "
                f"{abs(sim_avg - ref_avg):.3g} from the reference {ref_avg:.6g}, "
                f"above {SIM_K:g} standard errors ({se_avg:.3g})"
            )
    if op.batches:
        problems += _batch_means(op, header, values, expected["mean"], n)
    rest = sections[1:]
    want_reps = int(op.option("--reps"))
    if "--hist" in op.argv:
        _, hist_rows = parse_table(rest.pop(0))
        if sum(int(r[3]) for r in hist_rows) != want_reps:
            problems.append(f"{op.name}: histogram does not hold {want_reps} counts")
    if "--ref" in op.argv:
        _, ref_rows = parse_table(rest.pop(0))
        mse, reps, failures = ref_rows[0]
        if not (math.isfinite(float(mse)) and float(mse) >= 0.0
                and int(reps) == want_reps and int(failures) == 0):
            problems.append(f"{op.name}: reference statistics {ref_rows[0]} are invalid")
    return problems


def _batch_means(op: Op, header: list, values: list, ref: list, n: int) -> list:
    size = (len(values) - 1) // op.batches
    problems = []
    for s in range(n):
        diff = [row[1 + s] - want[s] for row, want in zip(values[1:], ref[1:])]
        avgs = [sum(diff[b * size:(b + 1) * size]) / size for b in range(op.batches)]
        mean = statistics.fmean(avgs)
        se = statistics.stdev(avgs) / math.sqrt(op.batches)
        if not abs(mean) <= BATCH_K * se:
            problems.append(
                f"{op.name}: {header[1 + s]} is {mean:.3g} from the reference on "
                f"average over {op.batches} windows, above {BATCH_K:g} batch-means "
                f"standard errors ({se:.3g})"
            )
    return problems


_CHECKS = {"ode": _check_ode, "exact": _check_exact, "sim": _check_sim}


def check(op: Op, code: int, text: str, stderr: str, expected: dict,
          pass_shas: dict) -> list:
    """Problems with one operation's result; empty when it is correct."""
    if code != 0:
        return [f"{op.name}: exit code {code}: {stderr.strip()[:300]}"]
    try:
        problems = _CHECKS[op.kind](op, text, expected[op.key])
    except (ValueError, IndexError, KeyError) as exc:
        problems = [f"{op.name}: unreadable output: {exc!r}"]
    if op.twin is not None and pass_shas.get(op.twin) != sha256(text):
        problems.append(f"{op.name}: output differs from {op.twin}")
    return problems


@dataclass
class Tally:
    """Counts of operations run and failed, and which kept their CSV."""

    attempted: int = 0
    failed: int = 0
    sha_match: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def add(self, op: Op, seed: int, text: str, problems: list, expected: dict) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(problems)
        if not op.seeded or seed == SHA_SEED:
            same = sha256(text) == expected["sha256"].get(op.name)
            self.sha_match[op.name] = self.sha_match.get(op.name, True) and same

    def sha_matching_ops(self) -> int:
        """Operations whose every CSV with a recorded sha256 matched it.

        A seeded operation counts only once it has run with ``SHA_SEED``.
        """
        return sum(self.sha_match.values())
