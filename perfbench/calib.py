"""Calibration loop that tracks the speed of the machine.

The loop uses no popdrift code.  It mixes interpreter work (integer
arithmetic, dict stores) with small and medium numpy work, the blend
that popdrift's commands run.  Every timed operation is scaled by
``CALIB_REF_S / calib_now``, where ``calib_now`` is the mean of the
calibration samples taken just before and just after it, so a result
reads as seconds on a machine whose calibration sample takes
``CALIB_REF_S``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median calibration sample on a 2-vCPU x86-64 virtual machine (Python 3.11,
# numpy 2.4); a constant, so results from different runs compare
CALIB_REF_S = 0.012

_MEDIUM = np.linspace(0.0, 1.0, 200_000)


def _loop() -> float:
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(12_000):
        acc += (i * 7) % 13
        table[i & 255] = acc
    small = np.arange(64, dtype=float)
    total = 0.0
    for _ in range(800):
        small = np.sqrt(small * small + 1.0) - 0.5
        total += float(small.sum())
    medium = _MEDIUM
    for _ in range(6):
        medium = np.exp(-medium) * 0.5 + medium * 0.25
        total += float(medium.sum())
    if not total > 0.0:
        raise RuntimeError("calibration loop lost its result")
    return time.perf_counter() - start


def sample() -> float:
    """One calibration sample: the mean of two loop runs, in seconds."""
    return 0.5 * (_loop() + _loop())


def spread(values: list) -> float:
    """Distance between the first and third quartile over the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
