"""Child interpreters of the benchmark; ``run.py`` starts them.

``--setup``: in this fresh interpreter, time importing popdrift and
loading the workload's model documents, between two calibration samples.

Otherwise: run the workload's passes until ``--seconds`` would be
exceeded (at least ``MIN_PASSES``), checking every output, and print
the results as one JSON line.  With ``--trace 1`` untraced and traced
passes alternate; an untimed pass with ``workloads.SHA_SEED`` and the
public-API micro-timings run at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

# numpy comes in with the calibration loop, so the set-up time is
# popdrift's own import (scipy included) and the model loads
import calib
import tracing
import workloads

MIN_PASSES = 3


def _setup(workload: str) -> dict:
    before = calib.sample()
    start = time.perf_counter()
    import popdrift

    for path in workloads.MODEL_DOCS[workload]:
        if path is None:
            popdrift.builtin_example()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                popdrift.load_model(fh.read())
    load_s = time.perf_counter() - start
    return {"load_s": load_s, "calib_before": before, "calib_after": calib.sample(),
            "popdrift": os.path.abspath(popdrift.__file__)}


def _run(workload: str, seed: int, seconds: float, traced_run: bool) -> dict:
    ops = workloads.WORKLOADS[workload]
    expected = workloads.load_expected()
    os.makedirs(workloads.WORK, exist_ok=True)
    tally = workloads.Tally()
    tracer = tracing.Tracer()
    norm, norm_traced = [], []
    pass_walls, pass_cpus, pass_layers, calibs = [], [], [], []
    op_norm = {op.name: [] for op in ops}

    deadline = time.perf_counter() + seconds
    calibs.append(calib.sample())
    n_pass = 0
    while True:
        traced = traced_run and n_pass % 2 == 1
        if traced:
            tracer.install()
        pass_start, cpu_start = time.perf_counter(), time.process_time()
        shas, totals, pass_norm = {}, None, 0.0
        try:
            for op in ops:
                start = time.perf_counter()
                if traced:
                    code, text, err = tracer.span("cli.main", workloads.execute, op, seed)
                else:
                    code, text, err = workloads.execute(op, seed)
                elapsed = time.perf_counter() - start
                calibs.append(calib.sample())
                factor = calib.CALIB_REF_S / (0.5 * (calibs[-2] + calibs[-1]))
                problems = workloads.check(op, code, text, err, expected, shas)
                shas[op.name] = workloads.sha256(text)
                tally.add(op, seed, text, problems, expected)
                pass_norm += elapsed * factor
                if not traced:
                    op_norm[op.name].append(elapsed * factor)
                else:
                    layers = tracing.layer_totals(tracer.take(), factor)
                    totals = layers if totals is None else {
                        k: totals[k] + layers[k] for k in totals}
        finally:
            if traced:
                tracer.uninstall()
        wall = time.perf_counter() - pass_start
        (norm_traced if traced else norm).append(pass_norm)
        if traced:
            pass_layers.append(tracing.pass_metrics(totals))
        else:
            pass_walls.append(wall)
            pass_cpus.append(time.process_time() - cpu_start)
        n_pass += 1
        remaining = deadline - time.perf_counter()
        if n_pass >= MIN_PASSES and remaining < wall:
            break

    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "passes": n_pass,
        "norm_wall_s": statistics.median(norm),
        "norm_iqr_frac": calib.spread(norm),
        "op_norm_s": {k: statistics.median(v) for k, v in op_norm.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calib_median_s": statistics.median(calibs),
        "calib_iqr_frac": calib.spread(calibs),
    }
    if traced_run:
        _sha_pass(ops, expected, tally)
        result.update(attempted=tally.attempted, failed=tally.failed)
        layers = {k: statistics.median(p[k] for p in pass_layers) for k in pass_layers[0]}
        layers.update(tracing.micro_timings())
        layers["check.csv_sha_match"] = tally.sha_matching_ops()
        layers["run.wall_s"] = statistics.median(pass_walls)
        layers["run.cpu_s"] = statistics.median(pass_cpus)
        layers["run.calib_s"] = statistics.median(calibs)
        layers["trace.overhead"] = statistics.median(norm_traced) / statistics.median(norm)
        result["layers"] = layers
    return result


def _sha_pass(ops: tuple, expected: dict, tally: workloads.Tally) -> None:
    """One checked, untimed pass with the seed whose CSVs have recorded shas."""
    seed, shas = workloads.SHA_SEED, {}
    for op in ops:
        code, text, err = workloads.execute(op, seed)
        problems = workloads.check(op, code, text, err, expected, shas)
        shas[op.name] = workloads.sha256(text)
        tally.add(op, seed, text, problems, expected)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.setup:
        result = _setup(args.workload)
    elif args.seed is None or args.seconds is None:
        parser.error("a workload run needs --seed and --seconds")
    else:
        result = _run(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
