"""Steadiness check: two sets of benchmark runs and each metric's spread.

Run from the repository root:

    python3 perfbench/steady.py

Each of ``SETS`` sets runs ``run.py`` ``RUNS`` times on every workload
of BENCHMARK.json, each time with another seed and for the file's
``run_seconds``.  For every end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread (the
distance between the quartiles over the median) against the metric's
bound from BENCHMARK.json, and how far the second set's median moved
from the first one's in the worse direction, also against the bound.
The raw results go to ``perfbench/_work/steady.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402

SETS = 2
RUNS = 10


def _run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2][len("info "):])
    if not result["correct"]:
        sys.stderr.write(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
    return result


def _stats(values: list) -> tuple:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, calib.spread(values)


def main() -> int:
    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for i in range(RUNS):
            for w in workloads:
                out = _run(w, 1 + 1000 * s + i, spec["run_seconds"])
                results[w][s].append(out)
                values = {k: round(v["value"], 4) for k, v in out["metrics"].items()}
                values["pass_iqr"] = round(out["info"]["pass_norm_iqr_frac"], 3)
                values["failed"] = out["failed"]
                print(f"set {s + 1} run {i + 1} {w}: {values}", flush=True)
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    with open(os.path.join(HERE, "_work", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh)

    print(f"{'workload/metric':28s} set   median       q1       q3  spread  bound  spread/bound")
    for w in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s in range(SETS):
                values = [r["metrics"][name]["value"] for r in results[w][s]]
                median, q1, q3, spread = _stats(values)
                medians.append(median)
                print(f"{w + '/' + name:28s} {s + 1:3d} {median:8.4g} {q1:8.4g} {q3:8.4g}"
                      f" {spread:7.3f} {bound:6.2f} {spread / bound:8.2f}")
            for s in range(1, SETS):
                shift = (medians[s] - medians[0]) / medians[0]
                if metric["better"] == "higher":
                    shift = -shift
                print(f"{w + '/' + name:28s} set {s + 1} vs 1: worse by {shift:+.3f}"
                      f" ({shift / bound:+.2f} of the bound)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
