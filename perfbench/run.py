"""Benchmark of popdrift's README commands, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``ensemble`` (samplers), ``meanfield``
(ODE vector fields) and ``exact`` (enumeration, generator assembly,
uniformization).  Each workload runs in one fresh child interpreter that
calls ``popdrift.cli.main`` in-process on its operations, pass after
pass, and checks every output.  Set-up time is measured in
``SETUP_REPEATS`` further fresh interpreters.  Times are normalised by
a calibration loop run around each timed piece (``calib.py``), because
the speed of a small shared machine wanders by a factor of two within
seconds.

With ``--trace 0`` the metrics are the end-to-end ones:

- ``norm_wall_s``: the median over passes of a pass's normalised wall
  time, each operation's time scaled by its own calibration;
- ``setup_s``: median normalised time to import popdrift and load the
  workload's model documents in a fresh interpreter;
- ``peak_rss_mb``: the workload child's peak resident set.

With ``--trace 1`` they are the per-layer metrics named in
BENCHMARK.json (see ``tracing.py``).  The last line of standard output
is the result as JSON; the line before it, starting with ``info``,
records the machine, the versions and the calibration spread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONHASHSEED"] = "0"
    # no operation may use more than two threads (--jobs 2 at most)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(args: list, env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py")] + args,
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_s(workload: str, env: dict) -> tuple:
    values, calibs = [], []
    for _ in range(SETUP_REPEATS):
        out = _child(["--setup", "--workload", workload], env)
        if not out["popdrift"].startswith(os.path.abspath("src") + os.sep):
            raise RuntimeError(f"imported popdrift from {out['popdrift']}, not ./src")
        calibs += [out["calib_before"], out["calib_after"]]
        values.append(out["load_s"] * calib.CALIB_REF_S / (0.5 * (calibs[-2] + calibs[-1])))
    return statistics.median(values), calibs


def _info(child: dict, setup_calibs: list) -> dict:
    import numpy
    import scipy

    info = {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "calib_ref_s": calib.CALIB_REF_S,
        "calib_now_median_s": child["calib_median_s"],
        "calib_now_iqr_frac": child["calib_iqr_frac"],
        "passes": child["passes"],
        "pass_norm_iqr_frac": child["norm_iqr_frac"],
        "op_norm_s": child["op_norm_s"],
        "fail_frac": child["failed"] / child["attempted"],
    }
    if setup_calibs:
        info["setup_calib_iqr_frac"] = calib.spread(setup_calibs)
    else:
        info["computed_counts"] = tracing.COMPUTED
    return info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "popdrift", "__init__.py")):
        sys.stderr.write("error: run from the root of a popdrift checkout (no src/popdrift)\n")
        return 2
    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = _env()

    try:
        setup_calibs = []
        if not args.trace:
            setup_s, setup_calibs = _setup_s(args.workload, env)
        child = _child(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env,
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    for problem in child["problems"]:
        sys.stderr.write(f"check failed: {problem}\n")
    if args.trace:
        values = child["layers"]
    else:
        values = {"norm_wall_s": child["norm_wall_s"], "setup_s": setup_s,
                  "peak_rss_mb": child["peak_rss_mb"]}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        sys.stderr.write(f"error: no value for {', '.join(missing)}\n")
        return 1
    print("info " + json.dumps(_info(child, setup_calibs), sort_keys=True))
    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
