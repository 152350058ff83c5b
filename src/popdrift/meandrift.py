"""Poisson-averaged mean drift.

The mean drift replaces each intensity m_s * Q(m) by its expectation
under independent Poisson coordinates K_i with means N*m_i:

    E[(K_s/N) * Q(K_1/N, ..., K_I/N)]

evaluated by truncated rectangular enumeration.  Each coordinate's
Poisson pmf is truncated to a window around its mode holding all but
tau/(2I) of the mass, which bounds the neglected joint mass by tau.
Lattice points with K_s = 0 contribute nothing (the intensity factor
vanishes), so rates singular in an empty state stay harmless.
``mean_drift`` always sums over the full rectangle of all I
coordinates.
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


def poisson_weights(lam: float, tau: float) -> PoissonWeights:
    """Poisson pmf window covering at least 1-tau of the mass.

    Probabilities are built by the recurrence p_{k+1} = p_k*lam/(k+1)
    outward from the mode, which stays in range for any lam a float
    can hold.
    """
    if lam < 0:
        raise ModelError(f"Poisson rate must be non-negative, got {lam}")
    if not 0 < tau < 1:
        raise ModelError(f"tail tolerance must be in (0, 1), got {tau}")
    if lam == 0.0:
        return PoissonWeights(lam=0.0, k_min=0, probs=np.array([1.0]), tail=0.0)
    mode = int(math.floor(lam))
    p_mode = math.exp(mode * math.log(lam) - lam - math.lgamma(mode + 1))
    below: list[float] = []  # k = mode-1, mode-2, ...
    above: list[float] = []  # k = mode+1, mode+2, ...
    total = p_mode
    lo, hi = mode, mode
    p_lo, p_hi = p_mode, p_mode
    while total < 1.0 - tau:
        cand_down = p_lo * lo / lam if lo > 0 else 0.0
        cand_up = p_hi * lam / (hi + 1)
        if cand_down == 0.0 and cand_up == 0.0:
            break  # mass is numerically exhausted
        if cand_down >= cand_up:
            lo -= 1
            p_lo = cand_down
            below.append(cand_down)
            total += cand_down
        else:
            hi += 1
            p_hi = cand_up
            above.append(cand_up)
            total += cand_up
    probs = np.array(below[::-1] + [p_mode] + above)
    return PoissonWeights(
        lam=lam, k_min=lo, probs=probs, tail=max(0.0, 1.0 - total)
    )


def _window_lattice_sum(table, N: float, windows, ks=None) -> list:
    """Sum (k_s/N) * Q_{s,t}(k/N) * prod(weights) over the window rectangle.

    Returns one sum per transition in ks (default: all of the table).
    Evaluates in chunks along coordinate 0, each chunk holding at most
    _CHUNK rate values across those transitions, and adds the chunk
    sums in order; the float result can therefore change in its last
    bits with the chunk size.
    """
    n_states = len(windows)
    sizes = [len(w.probs) for w in windows]
    points = math.prod(sizes)
    if points > LATTICE_POINT_CAP:
        raise NumericsError(
            f"mean intensity enumeration needs {points} lattice points "
            f"(cap {LATTICE_POINT_CAP}); use a larger tail tolerance"
        )
    ks = range(len(table.fns)) if ks is None else ks
    rest = math.prod(sizes[1:])
    chunk0 = max(1, min(sizes[0], _CHUNK // max(rest * len(ks), 1)))

    def shaped(arr: np.ndarray, axis: int) -> np.ndarray:
        shape = [1] * n_states
        shape[axis] = len(arr)
        return arr.reshape(shape)

    supports = [w.support().astype(float) for w in windows]
    totals = [0.0] * len(ks)
    for start in range(0, sizes[0], chunk0):
        stop = min(sizes[0], start + chunk0)
        coords = []
        for c in range(n_states):
            sup = supports[c][start:stop] if c == 0 else supports[c]
            coords.append(shaped(sup / N, c))
        q = table.evaluate(N, coords, (stop - start, *sizes[1:]), ks)
        table.check(q, coords, occupied=True, ks=ks)
        for pos, k in enumerate(ks):
            i = table.sources[k]
            part = q[pos]
            if coords[i].flat[0] == 0:
                # the k_i = 0 face carries no intensity, whatever the rate
                np.moveaxis(part, i, 0)[0] = 0.0
            for c in range(n_states):
                w = windows[c].probs[start:stop] if c == 0 else windows[c].probs
                part = part * shaped(w, c)
            part = part * (coords[i])  # intensity factor k_i/N
            totals[pos] += float(part.sum())
    return totals


def _clamped(x: float) -> float:
    # ODE stage points may sit a rounding error below the simplex
    # boundary; treat those as boundary, reject anything worse
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
    _, windows = _coordinate_windows(model, N, m, tau)
    return _window_lattice_sum(model._rate_table, N, windows, ks=(k,))[0]


def mean_drift(model: ModelSpec, N: float, m, tau: float = 1e-10) -> np.ndarray:
    """Mean drift vector: Poisson-averaged intensities on e_t - e_s."""
    _, windows = _coordinate_windows(model, N, m, tau)
    table = model._rate_table
    return table.net(_window_lattice_sum(table, N, windows))


def mean_drift_field(
    model: ModelSpec, N: float, tau: float = 1e-10
) -> VectorField:
    """The mean drift as a reusable vector field."""
    return VectorField(
        kind="mean-drift", N=N, fn=lambda m: mean_drift(model, N, m, tau=tau)
    )
