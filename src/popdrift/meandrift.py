"""Poisson-averaged mean drift.

The mean drift replaces each intensity m_s * Q(m) by its expectation
under independent Poisson coordinates K_i with means N*m_i:

    E[(K_s/N) * Q(K_1/N, ..., K_I/N)]

evaluated by truncated rectangular enumeration.  Each coordinate's
Poisson pmf is truncated to a window around its mode holding all but
tau/(2I) of the mass, which bounds the neglected joint mass by tau.
Lattice points with K_s = 0 contribute nothing: the intensity factor
vanishes and the rate check sets a rate singular there to 0.  The
coordinates are independent, so the average of a product of factors
that read disjoint coordinates is the product of their averages: a
rate the rate table's plan writes as a sum of such products is
averaged one factor group at a time, each over its own coordinates'
windows, and any other rate over the windows of its source and of the
occupancies it reads.  Every coordinate a term does not read
contributes its window mass as a factor.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .drift import VectorField, _field
from .errors import ModelError, NumericsError
from .model import ModelSpec, _check_length, _check_population

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

# a transition whose sub-rectangle holds at most this many lattice points
# is summed whole: averaging its factor groups apart costs about as much
# as summing that many rate values, in numpy calls on short windows
_WHOLE_POINTS = 1 << 14


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


def _check_tolerance(tau: float, parts: int = 1) -> float:
    """The share tau/parts, once tau is in (0, 1) and the share is a
    normal float: below that, poisson_weights' log(2/share) overflows."""
    share = tau / parts
    if not 0 < tau < 1:
        bound = "in (0, 1)"
    elif not share >= sys.float_info.min:
        bound = f"at least {parts * sys.float_info.min:g}"
    else:
        return share
    raise ModelError(f"tail tolerance must be {bound}, got {tau}")


def poisson_weights(lam: float, tau: float) -> PoissonWeights:
    """Poisson pmf window covering at least 1-tau of the mass.

    The window is the one the greedy walk outward from the mode gives:
    step to whichever neighbour has the larger probability (the lower
    one on a tie) until the mass taken, summed in that order, reaches
    1-tau or both neighbours underflow to zero.  Probabilities are
    running products of the ratios lam/(k+1) and k/lam from the mode,
    which stay in range for any lam a float can hold.  The candidates
    span a Chernoff bound on the tails and widen when the walk runs
    past them; more than LATTICE_POINT_CAP of them raise NumericsError.
    """
    if not 0 <= lam < math.inf:
        raise ModelError(f"Poisson rate must be finite and non-negative, got {lam}")
    if not sys.float_info.min <= tau < 1:  # the taus _check_tolerance refuses
        _check_tolerance(tau)
    mode = int(math.floor(lam))
    p_mode = _mode_probability(lam, mode)
    nats = math.log(2.0 / tau)
    width = int(math.sqrt(2.0 * lam * nats) + nats) + 2
    while True:
        # candidates k = mode-n_low .. mode+width; p[n_low] is the mode
        n_low = min(width, mode)
        if n_low + 1 + width > LATTICE_POINT_CAP:
            raise NumericsError(
                f"Poisson window at rate {lam:g} needs {n_low + 1 + width} "
                f"candidate counts (cap {LATTICE_POINT_CAP})"
            )
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


def _rectangle_sums(probs, weighted, supports, m, axes, sources, block,
                    bounded=False):
    """Window-weighted sums of a block of rows over the sub-rectangle of axes.

    ``block(coords, shape)`` gives the rows' values, an array
    (len(sources), *shape), at the lattice points coords, which hold m on
    the other coordinates.  Row r is contracted with the window weights
    ``probs``, and along its axis ``sources[r]``, when that is not None,
    with ``weighted``, the weights times k/N.  The rows are evaluated in
    chunks along the first axis, each holding at most _CHUNK values, and
    the chunk sums are added in order, so the float result can change in
    its last bits with the chunk size.  Returns each row's sum or, when
    ``bounded``, each row's (sum, (min, max)).
    """
    shape = [len(probs[c]) for c in axes]
    step = max(1, min(shape[0], _CHUNK // (math.prod(shape[1:]) * len(sources))))
    sums = [0.0] * len(sources)
    lows, highs = np.inf, -np.inf
    for start in range(0, shape[0], step):
        cut = slice(start, start + step)
        coords = list(m)
        for a, c in enumerate(axes):
            along = cut if a == 0 else slice(None)
            # along axis a of the sub-rectangle, by trailing unit axes
            coords[c] = supports[c][along].reshape((-1,) + (1,) * (len(axes) - 1 - a))
        q = block(coords, (len(coords[axes[0]]), *shape[1:]))
        if bounded:
            flat = q.reshape(len(sources), -1)
            # np.minimum and np.maximum keep a nan
            lows = np.minimum(lows, flat.min(axis=1))
            highs = np.maximum(highs, flat.max(axis=1))
        for r, i in enumerate(sources):
            part = q[r]
            for a in reversed(range(len(axes))):
                w = (weighted if axes[a] == i else probs)[axes[a]]
                part = part @ (w[cut] if a == 0 else w)
            sums[r] += float(part)
    if bounded:
        return list(zip(sums, zip(lows.tolist(), highs.tolist())))
    return sums


def _check_cap(windows, rectangles) -> None:
    for axes in rectangles:
        points = math.prod(len(windows[c].probs) for c in axes)
        if points > LATTICE_POINT_CAP:
            raise NumericsError(
                f"mean intensity enumeration needs {points} lattice points "
                f"(cap {LATTICE_POINT_CAP}); use a larger tail tolerance"
            )


def _window_lattice_sum(table, N: float, m, windows, ks=None) -> list:
    """Poisson averages of the intensities (k_s/N) * Q_{s,t}(k/N).

    Returns one sum per transition in ks (default: all of the table).
    The coordinates are independent, so a product of factors that read
    disjoint coordinates averages to the product of their averages, and
    a coordinate no factor reads sums to its window mass ``probs.sum()``.
    Each transition has the sub-rectangle of its axes, its source and
    ``table.reads[k]``.  Where that holds more than _WHOLE_POINTS points,
    ``table.split_flows`` gives the transitions whose rates split into
    such products, their groups averaged here each over its own axes'
    windows.  Every other transition is summed over its sub-rectangle,
    as one group of checked rates; transitions with the same axes are
    evaluated together.  A transition whose source window is {0} has no
    intensity.  A RateError reports the lattice point on the axes and m
    on the other coordinates.
    """
    ks = range(len(table.sources)) if ks is None else ks
    supports = [w.support() / N for w in windows]
    probs = [w.probs for w in windows]
    weighted = [p * x for p, x in zip(probs, supports)]
    masses = [float(p.sum()) for p in probs]

    def average(axes, block, sources):
        _check_cap(windows, [axes])
        return _rectangle_sums(
            probs, weighted, supports, m, axes, sources, block, bounded=True
        )

    rectangles = {
        k: tuple(sorted({table.sources[k], *table.reads[k]}))
        for k in ks if windows[table.sources[k]].k_max > 0
    }
    large = [
        k for k, axes in rectangles.items()
        if math.prod(len(windows[c].probs) for c in axes) > _WHOLE_POINTS
    ]
    totals = table.split_flows(N, large, average, masses)
    whole: dict = {}
    for k, axes in rectangles.items():
        if k not in totals:
            whole.setdefault(axes, []).append(k)
    _check_cap(windows, whole)
    for axes, group in whole.items():
        sums = _rectangle_sums(
            probs, weighted, supports, m, axes, [table.sources[k] for k in group],
            lambda coords, shape: table.rates(N, coords, shape, group, occupied=True),
        )
        other = math.prod(masses[c] for c in range(len(windows)) if c not in axes)
        for k, total in zip(group, sums):
            totals[k] = total * other
    return [totals.get(k, 0.0) for k in ks]


def _clamped(x: float) -> float:
    # an occupancy a rounding error below the simplex boundary counts
    # as boundary; reject anything worse
    if x < 0.0:
        if x < -1e-9:
            raise ModelError(f"occupancy coordinate {x} is negative")
        return 0.0
    return x


def _window_budget(model: ModelSpec, tau: float) -> float:
    # each coordinate's window leaves out tau/(2I), so the joint tail is at most tau
    return _check_tolerance(tau, 2 * model.n_states)


def _windows(N: float, m: list, budget: float) -> list:
    # the occupancy need not sum to 1: RK4 stage points leave the simplex
    return [poisson_weights(N * _clamped(x), budget) for x in m]


def poisson_mean_intensity(
    model: ModelSpec, N: float, m, s: str, t: str, tau: float = 1e-10
) -> float:
    """Expectation of the intensity under Poisson coordinate counts.

    Truncated so the neglected joint tail mass is at most tau.  Raises
    NumericsError when the rectangular enumeration would exceed the
    lattice point cap.
    """
    (m, windows), k = model._single_pair(
        N, m, s, t, check=lambda: _window_budget(model, tau),
        at=lambda m, budget: (m, _windows(N, m, budget)))
    if k is None:
        return 0.0
    return _window_lattice_sum(model._rate_table, N, m, windows, ks=(k,))[0]


def mean_drift(model: ModelSpec, N: float, m, tau: float = 1e-10) -> np.ndarray:
    """Mean drift vector: Poisson-averaged intensities on e_t - e_s."""
    return mean_drift_field(model, N, tau)(m)


def mean_drift_field(
    model: ModelSpec, N: float, tau: float = 1e-10
) -> VectorField:
    """The mean drift as a reusable vector field, N and tau checked once."""
    _check_population(N)
    budget = _window_budget(model, tau)
    table = model._rate_table

    def lists(m: list) -> list:
        _check_length(m, model.n_states)
        return table.net(_window_lattice_sum(table, N, m, _windows(N, m, budget)))

    return _field("mean-drift", N, lists)
