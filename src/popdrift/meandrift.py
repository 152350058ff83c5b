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

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .drift import VectorField, _field
from .errors import ModelError, NumericsError, RateError
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

# most lattice points a mean-drift field keeps a block of rows over,
# one table of values per row: a box past it is not kept
_BOX_POINTS = 1 << 14


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


def _contract(q, axes, sources, probs, weighted, sums, cut=slice(None)) -> None:
    """Add to sums[r] the window-weighted sum of row r of q.

    q holds the rows' values over the sub-rectangle of axes, cut along
    the first axis.  Row r is contracted with the window weights
    ``probs``, and along its axis ``sources[r]``, when that is not None,
    with ``weighted``, the weights times k/N, last axis first.
    """
    for r, i in enumerate(sources):
        part = q[r]
        for a in reversed(range(len(axes))):
            w = (weighted if axes[a] == i else probs)[axes[a]]
            part = part @ (w[cut] if a == 0 else w)
        sums[r] += float(part)


def _along(x, a: int, dims: int):
    """The vector x along axis a of dims axes, by trailing unit axes."""
    return x.reshape((-1,) + (1,) * (dims - 1 - a))


def _check_cap(windows, rectangles) -> None:
    for axes in rectangles:
        points = math.prod(len(windows[c].probs) for c in axes)
        if points > LATTICE_POINT_CAP:
            raise NumericsError(
                f"mean intensity enumeration needs {points} lattice points "
                f"(cap {LATTICE_POINT_CAP}); use a larger tail tolerance"
            )


def _points(lo, hi) -> int:
    return math.prod([h + 1 - l for l, h in zip(lo, hi)])


def _cut(box, axes, lo, hi):
    """The windows lo[c]..hi[c] of the coordinates c on axes, cut from a
    kept box (lo, hi, values), rows first; None unless they lie inside it."""
    cut = [slice(None)]
    for c, b_lo, b_hi in zip(axes, box[0], box[1]):
        if lo[c] < b_lo or hi[c] > b_hi:
            return None
        cut.append(slice(lo[c] - b_lo, hi[c] + 1 - b_lo))
    return box[2][tuple(cut)]


def _grown(box, lo, hi):
    """The union of a kept box (lo, hi, values) with the window lo..hi,
    widened by half its width past each side the window crossed.  The
    box's counts more than half the window's width past the window, on
    a side it did not cross, are dropped first: a window that travels
    has left them."""
    out_lo, out_hi = [], []
    for b_lo, b_hi, w_lo, w_hi in zip(box[0], box[1], lo, hi):
        keep = (w_hi - w_lo + 1) // 2
        b_lo, b_hi = max(b_lo, w_lo - keep), min(b_hi, w_hi + keep)
        u_lo, u_hi = min(b_lo, w_lo), max(b_hi, w_hi)
        margin = (u_hi - u_lo + 1) // 2
        out_lo.append(max(0, u_lo - margin) if w_lo < b_lo else u_lo)
        out_hi.append(u_hi + margin if w_hi > b_hi else u_hi)
    return out_lo, out_hi


def _whole_groups(table, ks) -> list:
    """The transitions ks grouped by their axes, in order of first
    appearance: (axes, group, the group's sources, the other coordinates)."""
    groups: dict = {}
    for k in ks:
        groups.setdefault(table.axes[k], []).append(k)
    n = len(table.state_names)
    return [
        (axes, tuple(group), [table.sources[k] for k in group],
         [c for c in range(n) if c not in axes])
        for axes, group in groups.items()
    ]


def _lattice_sums(table, N: float):
    """Poisson averages of the intensities (k_s/N) * Q_{s,t}(k/N) at
    population N: ``sums(m, windows, ks=None)`` gives one per transition
    in ks (default: all of the table).

    The coordinates are independent, so a product of factors that read
    disjoint coordinates averages to the product of their averages, and
    a coordinate no factor reads sums to its window mass.  Transition k
    has the sub-rectangle of its axes, its source and ``table.reads[k]``.
    Where that holds more than _WHOLE_POINTS points, ``table.split_flows``
    averages the rates that split into such products group by group,
    each group over its own axes' windows.  Every other transition whose
    source window is not {0} is summed over its sub-rectangle as checked
    rates, those with the same axes together.  A RateError names the
    lattice point on the axes and m on the other coordinates.

    ``build`` alone evaluates a block of rows, the checked rates of a
    group of whole transitions or the group values ``split_flows`` asks
    for.  A block depends only on N and the lattice point on its axes,
    so its values are kept over a box of integer counts, one range per
    axis, and a window inside the box is read as a slice of it.  A window
    outside the box grows it, by _grown; past _BOX_POINTS points, or
    where its rates raise RateError, the window alone is the new box, so
    an error names the point a field with no box would name.  A window
    past _BOX_POINTS points keeps no box: it is built in chunks of at
    most _CHUNK values along its first axis, and the chunk sums are added
    in order, so the last bits can change with the chunk size.  The split
    blocks and whole groups of a set of transitions and the k/N supports
    up to _BOX_POINTS are built once.
    """
    # a group of whole transitions or a block's split uses
    # -> (lo, hi, values over the box, rows first)
    boxes: dict = {}
    # without these two memos and the k/N grid, the mean-drift ODEs ran 5-15% slower
    split_blocks = functools.cache(table.split_blocks)
    whole_groups = functools.cache(functools.partial(_whole_groups, table))
    grid = np.empty(0)  # k/N for k = 0, 1, ...

    def boxed(key, axes, lo, hi, build):
        """Block key's values on the windows lo[c]..hi[c] of its axes,
        from its box; None when no box is kept for them."""
        box = boxes.get(key)
        if box is not None:
            q = _cut(box, axes, lo, hi)
            if q is not None:
                return q
        window = [lo[c] for c in axes], [hi[c] for c in axes]
        span = window
        if box is not None:
            grown = _grown(box, *window)
            if _points(*grown) <= _BOX_POINTS:
                span = grown
        if span is window and _points(*window) > _BOX_POINTS:
            return None
        try:
            values = build(*span)
        except RateError:
            if span is window:
                raise
            # the error lies outside the window, or the window names it
            span = window
            values = build(*span)
        values.setflags(write=False)  # every read is a view of it
        box = boxes[key] = (*span, values)
        return values if span is window else _cut(box, axes, lo, hi)

    def support(lo, hi) -> list:
        """Each coordinate's k/N over its window, cut from one kept grid."""
        nonlocal grid
        top = max(hi) + 1
        if top > len(grid):
            if top > _BOX_POINTS:
                return [(l + np.arange(h + 1 - l)) / N for l, h in zip(lo, hi)]
            grid = np.arange(top if not len(grid) else min(_BOX_POINTS, top * 3 // 2)) / N
        return [grid[l:h + 1] for l, h in zip(lo, hi)]

    def sums(m, windows, ks=None) -> list:
        ks = range(len(table.sources)) if ks is None else ks
        probs = [w.probs for w in windows]
        sizes = [len(p) for p in probs]
        lo = [w.k_min for w in windows]
        hi = [k + size - 1 for k, size in zip(lo, sizes)]
        weighted = [p * x for p, x in zip(probs, support(lo, hi))]
        masses = [float(np.add.reduce(p)) for p in probs]  # p.sum(), without its wrapper

        def summed(key, axes, sources, block, bounded=False):
            """Each row's window-weighted sum of block key, with ``bounded``
            as (sum, (min, max)); ``block(coords, shape)`` gives the rows'
            values at the lattice points coords of the axes' windows."""
            def build(b_lo, b_hi):
                coords, xs = list(m), support(b_lo, b_hi)
                for a, (c, x) in enumerate(zip(axes, xs)):
                    coords[c] = _along(x, a, len(axes))
                return block(coords, tuple(map(len, xs)))

            q = boxed(key, axes, lo, hi, build)
            chunks = [(q, slice(None))]
            if q is None:
                _check_cap(windows, [axes])
                w_lo, w_hi = [lo[c] for c in axes], [hi[c] for c in axes]
                rows = _CHUNK // (_points(w_lo[1:], w_hi[1:]) * len(sources))
                step = max(1, min(sizes[axes[0]], rows))
                chunks = (
                    (build([k, *w_lo[1:]], [min(k + step - 1, w_hi[0]), *w_hi[1:]]),
                     slice(k - w_lo[0], k - w_lo[0] + step))
                    for k in range(w_lo[0], w_hi[0] + 1, step)
                )
            out, lows, highs = [0.0] * len(sources), None, None
            for q, cut in chunks:
                _contract(q, axes, sources, probs, weighted, out, cut)
                if bounded:
                    flat = q.reshape(len(sources), -1)
                    low, high = np.minimum.reduce(flat, axis=1), np.maximum.reduce(flat, axis=1)
                    if lows is not None:  # np.minimum and np.maximum keep a nan
                        low, high = np.minimum(lows, low), np.maximum(highs, high)
                    lows, highs = low, high
            return list(zip(out, zip(lows.tolist(), highs.tolist()))) if bounded else out

        rectangles = {k: table.axes[k] for k in ks if hi[table.sources[k]] > 0}
        large = tuple(
            k for k, axes in rectangles.items()
            if math.prod([sizes[c] for c in axes]) > _WHOLE_POINTS
        )
        totals = table.split_flows(N, split_blocks(large), summed, masses)
        groups = whole_groups(tuple(k for k in rectangles if k not in totals))
        if large:  # only a rectangle past _WHOLE_POINTS can pass the cap
            _check_cap(windows, [axes for axes, *_ in groups])
        for axes, group, sources, rest in groups:
            got = summed(
                group, axes, sources,
                lambda coords, shape: table.rates(N, coords, shape, group, occupied=True),
            )
            other = math.prod([masses[c] for c in rest])
            for k, total in zip(group, got):
                totals[k] = total * other
        return [totals.get(k, 0.0) for k in ks]

    return sums


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
    return _lattice_sums(model._rate_table, N)(m, windows, (k,))[0]


def mean_drift(model: ModelSpec, N: float, m, tau: float = 1e-10) -> np.ndarray:
    """Mean drift vector: Poisson-averaged intensities on e_t - e_s."""
    return mean_drift_field(model, N, tau)(m)


def mean_drift_field(
    model: ModelSpec, N: float, tau: float = 1e-10
) -> VectorField:
    """The mean drift as a reusable vector field, N and tau checked once.

    The field keeps the block values its evaluations read, over boxes of
    lattice points near the windows it has seen (see _lattice_sums);
    they are freed with it.
    """
    _check_population(N)
    budget = _window_budget(model, tau)
    table = model._rate_table
    sums = _lattice_sums(table, N)

    def lists(m: list) -> list:
        _check_length(m, model.n_states)
        return table.net(sums(m, _windows(N, m, budget)))

    return _field("mean-drift", N, lists)
