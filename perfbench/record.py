"""Record the values the benchmark checks outputs against.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/record.py

It runs every operation once with ``SHA_SEED`` and stores its CSV's
sha256, and the values of each deterministic one.  It also computes
the simulation references, the exact transient means on the
simulation grid of the bundled model at N=160 and of the SIRS model
at N=500 (a few minutes).  Re-record only when an output is meant to
change, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import popdrift as pd  # noqa: E402
from workloads import (  # noqa: E402
    EXPECTED, SHA_SEED, SIR, WORK, WORKLOADS, execute, parse_table, sha256,
)


def _exact_means(model, counts: tuple, t_end: float, points: int) -> dict:
    N = sum(counts)
    space = pd.enumerate_states(model.n_states, N)
    gen = pd.generator(model, space)
    dist = pd.point_mass(space, counts)
    times = np.linspace(0.0, t_end, points)
    means = [pd.expected_occupancy(dist).tolist()]
    for t0, t1 in zip(times[:-1], times[1:]):
        dist = pd.transient(gen, dist, float(t1 - t0), tol=1e-12)
        means.append(pd.expected_occupancy(dist).tolist())
    return {"times": times.tolist(), "mean": means, "source": "exact"}


def main() -> int:
    os.makedirs(WORK, exist_ok=True)
    with open(SIR, "r", encoding="utf-8") as fh:
        sirs = pd.load_model(fh.read())
    expected = {
        "ref_bundled_n160": _exact_means(pd.builtin_example(), (160, 0), 200.0, 101),
        "ref_sirs_n500": _exact_means(sirs, (450, 50, 0), 100.0, 101),
        "sha256": {},
    }
    for ops in WORKLOADS.values():
        for op in ops:
            code, text, err = execute(op, SHA_SEED)
            if code != 0:
                raise SystemExit(f"{op.name} failed: {err}")
            expected["sha256"][op.name] = sha256(text)
            if op.kind == "sim":
                continue
            header, rows = parse_table(text)
            entry = {"header": header}
            if op.kind == "exact":
                entry["values"] = [float(x) for x in rows[0][:-1]]
            else:
                entry["rows"] = [[float(x) for x in row] for row in rows]
            expected[op.key] = entry
            print(f"recorded {op.key}", flush=True)
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
