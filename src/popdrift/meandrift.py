"""Poisson-averaged mean drift.

The mean drift replaces each intensity m_s * Q(m) by its expectation
under independent Poisson coordinates K_i with means N*m_i:

    E[(K_s/N) * Q(K_1/N, ..., K_I/N)]

evaluated by truncated rectangular enumeration.  Each coordinate's
Poisson pmf is truncated to a window around its mode holding all but
tau/(2I) of the mass, which bounds the neglected joint mass by tau.
Lattice points with K_s = 0 contribute nothing (the intensity factor
vanishes), so rates singular in an empty state stay harmless.  The
coordinates are independent, so each transition is summed only over
the windows of its source and of the occupancies its rate reads; every
other coordinate contributes its window mass as a factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .drift import VectorField
from .errors import ModelError, NumericsError
from .model import ModelSpec

__all__ = [
    "PoissonWeights",
    "poisson_weights",
    "poisson_mean_intensity",
    "mean_drift",
    "mean_drift_field",
    "LATTICE_POINT_CAP",
]

LATTICE_POINT_CAP = 10**8

# rate values per chunk of the rectangular sum, counted across all
# transitions, to bound peak memory while keeping numpy batches large
_CHUNK = 1 << 22


@dataclass(frozen=True)
class PoissonWeights:
    """Truncated Poisson pmf: probs[k - k_min] = P(K = k).

    ``tail`` is the mass left outside the window, at most the requested
    tolerance (up to float accumulation).
    """

    lam: float
    k_min: int
    probs: np.ndarray
    tail: float

    @property
    def k_max(self) -> int:
        return self.k_min + len(self.probs) - 1

    def support(self) -> np.ndarray:
        return self.k_min + np.arange(len(self.probs))


def _mode_probability(lam: float, mode: int) -> float:
    """P(K = mode) for K ~ Poisson(lam), mode = floor(lam), to a few ulps.

    Below mode 16 a product of lam/k terms.  Above it the saddle-point
    form of Loader (2000), with the Stirling series for ln(mode!) -
    ((mode + 1/2) ln(mode) - mode + ln(2 pi)/2); it avoids the
    cancellation between mode*ln(lam), lam and ln(mode!) that costs
    about lam*ln(lam) ulps.
    """
    if mode < 16:
        p = math.exp(-lam)
        for k in range(1, mode + 1):
            p *= lam / k
        return p
    nn = float(mode) * mode
    stirlerr = (1/12 - (1/360 - (1/1260 - (1/1680 - 1/1188/nn)/nn)/nn)/nn)/mode
    f = lam - mode
    return math.exp(
        mode * math.log1p(f / mode) - f - 0.5 * math.log(2.0 * math.pi * mode)
        - stirlerr
    )


def poisson_weights(lam: float, tau: float) -> PoissonWeights:
    """Poisson pmf window covering at least 1-tau of the mass.

    The window is the one the greedy walk outward from the mode gives:
    step to whichever neighbour has the larger probability (the lower
    one on a tie) until the mass taken, summed in that order, reaches
    1-tau or both neighbours underflow to zero.  Probabilities are
    running products of the ratios lam/(k+1) and k/lam from the mode,
    which stay in range for any lam a float can hold.  The candidates
    span a Chernoff bound on the tails and widen when the walk runs
    past them.
    """
    if lam < 0:
        raise ModelError(f"Poisson rate must be non-negative, got {lam}")
    if not 0 < tau < 1:
        raise ModelError(f"tail tolerance must be in (0, 1), got {tau}")
    if lam == 0.0:
        return PoissonWeights(lam=0.0, k_min=0, probs=np.array([1.0]), tail=0.0)
    mode = int(math.floor(lam))
    p_mode = _mode_probability(lam, mode)
    nats = math.log(2.0 / tau)
    width = int(math.sqrt(2.0 * lam * nats) + nats) + 2
    while True:
        # candidates k = mode-n_low .. mode+width; p[n_low] is the mode
        n_low = min(width, mode)
        ks = np.arange(mode - n_low + 1, mode + width + 1, dtype=float)
        p = np.empty(n_low + 1 + width)
        np.divide(ks[:n_low], lam, out=p[:n_low])  # p_{k-1}/p_k = k/lam
        np.divide(lam, ks[n_low:], out=p[n_low + 1:])  # p_k/p_{k-1} = lam/k
        for side in (p[:n_low][::-1], p[n_low + 1:]):  # outward from the mode
            if len(side):
                side[0] *= p_mode
                side.cumprod(out=side)
        p[n_low] = p_mode
        # the walk takes the mode, then the larger neighbour, the lower
        # one on a tie: a stable sort by decreasing p in k order
        key = -p
        key[n_low] = -math.inf
        order = key.argsort(kind="stable")
        total = p[order].cumsum()  # the mass taken, in the walk's order
        steps = int(total.searchsorted(1.0 - tau))
        if steps == len(p):  # 1-tau is out of reach: stop at underflow
            steps = int(np.count_nonzero(p)) - 1
        lo = int(np.minimum.reduce(order[:steps + 1]))
        # the walk stayed inside the candidates on both sides
        if (lo > 0 or n_low == mode) and lo + steps < len(p) - 1:
            break
        width *= 2
    return PoissonWeights(
        lam=lam, k_min=mode - n_low + lo, probs=p[lo:lo + steps + 1],
        tail=max(0.0, 1.0 - float(total[steps])),
    )


def _window_lattice_sum(table, N: float, m, windows, ks=None) -> list:
    """Poisson averages of the intensities (k_s/N) * Q_{s,t}(k/N).

    Returns one sum per transition in ks (default: all of the table).
    The coordinates are independent, so transition k is summed only
    over the sub-rectangle of its axes, its source and the occupancies
    its rate reads (``table.reads[k]``); every other coordinate sums to
    its window mass ``probs.sum()``, and the product of those masses
    multiplies the result, so it equals the sum over the full rectangle
    of all I coordinates.  Transitions with the same axes are evaluated
    together in chunks along their first axis, each chunk holding at
    most _CHUNK rate values, and each transition's rates are contracted
    with the window weights (the source's times k_s/N).  The chunk sums
    are added in order, so the float result can change in its last bits
    with the chunk size.  A RateError reports the lattice point on the
    axes and m on the other coordinates.
    """
    ks = range(len(table.fns)) if ks is None else ks
    groups: dict = {}
    for k in ks:
        axes = tuple(sorted({table.sources[k], *table.reads[k]}))
        groups.setdefault(axes, []).append(k)
    sizes = [len(w.probs) for w in windows]
    for axes in groups:
        points = math.prod(sizes[c] for c in axes)
        if points > LATTICE_POINT_CAP:
            raise NumericsError(
                f"mean intensity enumeration needs {points} lattice points "
                f"(cap {LATTICE_POINT_CAP}); use a larger tail tolerance"
            )
    supports = [w.support() / N for w in windows]
    totals = {}
    for axes, group in groups.items():
        shape = [sizes[c] for c in axes]
        step = max(1, min(shape[0], _CHUNK // (math.prod(shape[1:]) * len(group))))
        sums = [0.0] * len(group)
        for start in range(0, shape[0], step):
            cut = slice(start, start + step)
            coords, weights = list(m), {}
            for a, c in enumerate(axes):
                along = cut if a == 0 else slice(None)
                # along axis a of the sub-rectangle, by trailing unit axes
                coords[c] = supports[c][along].reshape((-1,) + (1,) * (len(axes) - 1 - a))
                weights[c] = windows[c].probs[along]
            q = table.evaluate(N, coords, (len(weights[axes[0]]), *shape[1:]), group)
            table.check(q, coords, occupied=True, ks=group)
            for pos, k in enumerate(group):
                i = table.sources[k]
                part = q[pos]
                if coords[i].item(0) == 0:
                    # the k_i = 0 face carries no intensity, whatever the rate
                    part[(slice(None),) * axes.index(i) + (0,)] = 0.0
                for c in reversed(axes):
                    w = weights[c] * coords[i].ravel() if c == i else weights[c]
                    part = part @ w
                sums[pos] += float(part)
        other = math.prod(
            float(w.probs.sum()) for c, w in enumerate(windows) if c not in axes
        )
        for k, total in zip(group, sums):
            totals[k] = total * other
    return [totals[k] for k in ks]


def _clamped(x: float) -> float:
    # an occupancy a rounding error below the simplex boundary counts
    # as boundary; reject anything worse
    if x < 0.0:
        if x < -1e-9:
            raise ModelError(f"occupancy coordinate {x} is negative")
        return 0.0
    return x


def _coordinate_windows(model: ModelSpec, N: float, m, tau: float):
    arr = np.asarray(m, dtype=float)
    budget = tau / (2 * model.n_states)
    windows = [poisson_weights(N * _clamped(float(x)), budget) for x in arr]
    return arr, windows


def poisson_mean_intensity(
    model: ModelSpec, N: float, m, s: str, t: str, tau: float = 1e-10
) -> float:
    """Expectation of the intensity under Poisson coordinate counts.

    Truncated so the neglected joint tail mass is at most tau.  Raises
    NumericsError when the rectangular enumeration would exceed the
    lattice point cap.
    """
    k = model._pair(s, t)
    if k is None:
        return 0.0
    arr, windows = _coordinate_windows(model, N, m, tau)
    return _window_lattice_sum(model._rate_table, N, arr, windows, ks=(k,))[0]


def mean_drift(model: ModelSpec, N: float, m, tau: float = 1e-10) -> np.ndarray:
    """Mean drift vector: Poisson-averaged intensities on e_t - e_s."""
    arr, windows = _coordinate_windows(model, N, m, tau)
    table = model._rate_table
    return table.net(_window_lattice_sum(table, N, arr, windows))


def mean_drift_field(
    model: ModelSpec, N: float, tau: float = 1e-10
) -> VectorField:
    """The mean drift as a reusable vector field."""
    return VectorField(
        kind="mean-drift", N=N, fn=lambda m: mean_drift(model, N, m, tau=tau)
    )
