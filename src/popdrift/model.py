"""Population model definitions.

A model is a finite set of agent states, named parameters, and per
ordered state pair a transition rate expression over the parameters,
the population size ``N`` and the occupancy vector ``m``.  Missing
pairs default to rate zero.  A model may additionally declare
population-limit rates, which must not reference ``N``.

Models are specified either in code or as a small line-oriented
document:

    # comment
    states = idle, backoff
    param p1 = 0.008
    rate idle -> backoff : p1*(1 - pow(1-p1/2, N*m[idle]))
    limit idle -> backoff : p1
"""

from __future__ import annotations

import bisect
import functools
import math
import numbers
import re
from dataclasses import dataclass, field
from importlib import resources
from itertools import accumulate
from typing import Mapping, Optional

import numpy as np

from . import expr as ex
from .errors import ModelError, RateError, SlotResolutionError

__all__ = [
    "ModelSpec",
    "ValidationReport",
    "load_model",
    "builtin_example",
    "builtin_example_text",
    "rate",
    "slot_probability",
    "validate",
    "check_occupancy",
    "check_counts",
    "largest_remainder_counts",
    "sample_simplex",
]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


# most a split rate's terms may cancel: the sum of their absolute values
# over the absolute value of their sum.  Past it the split would lose
# more than two bits of the average and the rate is summed whole.
_CANCELLATION = 4.0


def _batched(kernel, ks, N, m, shape):
    """Rows ks of kernel(N, m), at occupancies m that broadcast to shape."""
    with np.errstate(all="ignore"):
        # numpy operands: plain floats raise on x/0
        values = kernel(np.float64(N), [np.asarray(c, dtype=float) for c in m])
        q = np.empty((len(ks), *shape))
        for pos, k in enumerate(ks):
            q[pos] = values[k]
        return q


def _at_point(kernel, calls_numpy: bool):
    """kernel(N, m) at one point of plain floats, under numpy semantics,
    as (guarded, held).

    guarded sets numpy's error state around a kernel that calls numpy,
    and otherwise only around the retry: plain float arithmetic warns of
    nothing, but raises ZeroDivisionError on x/0 where numpy scalars
    give inf or nan.  held sets nothing; its caller holds
    ``np.errstate(all="ignore")`` over many points.
    """

    def retry(N, m):
        return kernel(np.float64(N), [np.float64(x) for x in m])

    def held(N, m):
        try:
            return kernel(N, m)
        except ZeroDivisionError:
            return retry(N, m)

    def plain(N, m):
        try:
            return kernel(N, m)
        except ZeroDivisionError:
            with np.errstate(all="ignore"):
                return retry(N, m)

    def guarded(N, m):
        with np.errstate(all="ignore"):
            try:
                return kernel(N, m)
            except ZeroDivisionError:
                return retry(N, m)

    return guarded if calls_numpy else plain, held


def _read_groups(factors, source) -> tuple:
    """(factor, reads) pairs as (axes, factors) groups of connected reads.

    The source's group, with no factors if none reads it, also takes the
    factors that read no occupancy.
    """
    scalars, groups = [], [({source}, ())]
    for f, reads in factors:
        if not reads:
            scalars.append(f)
            continue
        joined = [g for g in groups if g[0] & reads]
        groups = [g for g in groups if not g[0] & reads]
        axes = reads.union(*(a for a, _ in joined))
        groups.append((axes, tuple(x for _, fs in joined for x in fs) + (f,)))
    return tuple(
        (tuple(sorted(axes)), fs + tuple(scalars) if source in axes else fs)
        for axes, fs in groups
    )


def _certified(terms, stats, masses) -> Optional[float]:
    """A split rate's average from its groups' (mean, (min, max)) stats,
    or None when ``_RateTable.certified`` does not certify it."""
    flow = low = size = 0.0
    for c, uses, rest in terms:
        lo = hi = mean = c
        for use in uses:
            g_mean, (g_lo, g_hi) = stats[use]
            if not (math.isfinite(g_lo) and math.isfinite(g_hi)):
                return None
            ends = (lo * g_lo, lo * g_hi, hi * g_lo, hi * g_hi)
            lo, hi, mean = min(ends), max(ends), mean * g_mean
            if not (math.isfinite(lo) and math.isfinite(hi)):
                return None
        term = mean * math.prod(masses[x] for x in rest)
        low += lo
        flow += term
        size += abs(term)
    if low < 0.0 or not size <= _CANCELLATION * abs(flow) < math.inf:
        return None
    return flow


def _product(factors) -> ex.Expr:
    return functools.reduce(functools.partial(ex.BinOp, "*"), factors)


class _RateTable:
    """One rate table, in canonical (source, target) order.

    Transition k runs from ``sources[k]`` to ``targets[k]`` at the rate
    ``nodes[k]``, which reads the occupancies ``reads[k]`` (sorted
    indices).  ``index`` maps a (source, target) index pair to k and
    ``out[i]`` is the range of k whose source is state i.  Every place
    that evaluates transitions takes them checked from ``rates``, on all
    transitions or on the positions ``ks``; only ``validate`` reads
    ``kernel``'s values unchecked.  At one point or over arrays, every
    rate comes from one generated straight-line call, and ``drift`` and
    ``jump_law`` are that call with the check's common case and their
    sums fused in; ``_fused_step`` runs the fused drift at the four stage
    points of one RK4 step of the drift ODE.
    The mean drift reads the rates that ``plan`` splits from
    ``split_blocks``'s blocks, and ``certified`` stands in for ``check``.
    Compiled forms are built on first use.  ``entries[k]`` = (source,
    target, f) holds transition k's own ``compile_fn`` closure, which
    computes its rate alone: a view of the table kernel would compute
    every rate, and raise or warn where another one divides by zero.
    """

    def __init__(self, state_index, compiled, params):
        self.state_index = state_index
        self.state_names = tuple(state_index)
        self.params = params
        self.sources = tuple(i for i, _, _, _ in compiled)
        self.targets = tuple(j for _, j, _, _ in compiled)
        self.reads = tuple(reads for _, _, reads, _ in compiled)
        self.nodes = tuple(node for *_, node in compiled)
        self.index = {(i, j): k for k, (i, j, _, _) in enumerate(compiled)}
        starts = [bisect.bisect_left(self.sources, i)
                  for i in range(len(state_index) + 1)]
        self.out = tuple(map(range, starts, starts[1:]))

    def rates(self, N, m, shape=None, ks=None, occupied: bool = False,
              held: bool = False):
        """Rates of the transitions ks (default: all) at occupancy m, once
        ``check`` has refused or excused them.

        With ``shape`` None, m is one point, a list of plain floats,
        and the result is a list of floats, picked from ``kernel``'s;
        with ``held``, from its form that leaves numpy's error state to
        the caller.  Otherwise m holds floats or arrays that broadcast
        to ``shape`` and the result is an array of shape (len(ks), *shape).
        """
        if shape is not None:
            ks = range(len(self.sources)) if ks is None else ks
            q = _batched(self._generated[0], ks, N, m, shape)
        else:
            q = self._point[held](N, m)
            q = q if ks is None else [q[k] for k in ks]
        self.check(q, m, occupied, ks)
        return q

    def check(self, q, m, occupied: bool = False, ks=None) -> None:
        """Raise RateError at the first negative or non-finite rate in q.

        q holds the unchecked rates at the same m and ks.  With
        ``occupied``, a transition whose source occupancy is zero has no
        intensity whatever its rate: such a rate is excused and set to 0.
        """
        ks = range(len(q)) if ks is None else ks
        if isinstance(q, np.ndarray):
            if not q.size or q.min() >= 0.0 and q.max() < math.inf:
                return
            valid = np.isfinite(q) & (q >= 0.0)
            bad = ~valid
            if occupied:
                for pos, k in enumerate(ks):
                    bad[pos] &= m[self.sources[k]] != 0
                q[~(valid | bad)] = 0.0
            if not bad.any():
                return
            pos, *where = np.unravel_index(np.argmax(bad), bad.shape)
            value = q[(pos, *where)]
            m = [np.broadcast_to(c, q.shape[1:])[tuple(where)] for c in m]
        else:
            for pos, value in enumerate(q):
                if not 0.0 <= value < math.inf:
                    if not occupied or m[self.sources[ks[pos]]] != 0:
                        break
                    q[pos] = 0.0
            else:
                return
        k = ks[pos]
        raise RateError(
            self.state_names[self.sources[k]],
            self.state_names[self.targets[k]],
            m,
            f"evaluated to {float(value)}",
        )

    @functools.cached_property
    def axes(self) -> tuple:
        """axes[k]: the sorted occupancies transition k's intensity reads,
        its source and ``reads[k]``."""
        return tuple(tuple(sorted({s, *r})) for s, r in zip(self.sources, self.reads))

    @functools.cached_property
    def _generated(self):
        """(f, calls_numpy): f(N, m) lists every rate; built on first use."""
        return ex._kernel(self.nodes, self.params, self.state_index)

    @functools.cached_property
    def _point(self):
        """``_at_point``'s (guarded, held) forms of ``_generated``."""
        return _at_point(*self._generated)

    @property
    def kernel(self):
        """Every rate at one point, as a list."""
        return self._point[0]

    @functools.cached_property
    def _fused_drift(self):
        """(guarded, held, calls_numpy): ``drift`` at one point where every
        rate is in [0, inf), else None, and whether it calls numpy."""
        moves = (self.sources, self.targets)
        kernel, calls_numpy = ex._kernel(self.nodes, self.params, self.state_index, moves)
        return (*_at_point(kernel, calls_numpy), calls_numpy)

    @functools.cached_property
    def _fused_jump(self):
        """``jump_law`` at counts where every rate is in [0, inf), else None."""
        moves = (self.sources, self.targets)
        return _at_point(*ex._kernel(self.nodes, self.params, self.state_index, moves,
                                     "jump"))[0]

    @functools.cached_property
    def _fused_step(self):
        """step(N, y, dt): one RK4 step of the drift ODE from the point y,
        or None where some stage's rate is not in [0, inf); see
        ``expr._kernel``'s step form.  Its caller holds numpy's error
        state and catches ZeroDivisionError."""
        moves = (self.sources, self.targets)
        return ex._kernel(self.nodes, self.params, self.state_index, moves, "step")[0]

    @functools.cached_property
    def entries(self) -> tuple:
        return tuple((i, j, ex.compile_fn(e, self.params, self.state_index))
                     for i, j, e in zip(self.sources, self.targets, self.nodes))

    @functools.cached_property
    def plan(self):
        """Each rate split into products of independent factor groups.

        Built on first use, for the mean drift.  Returns (terms, axes,
        kernel), where group g, a product of factors that together read
        exactly the occupancies ``axes[g]`` (or of none, 1), is entry g
        of the list one generated ``kernel`` returns.  ``terms[k]`` is
        None when transition k stays whole: summed over the sub-rectangle
        of its axes, its source and ``reads[k]``.  Otherwise it is a
        tuple of (c, uses, rest): the rate is the sum over its terms of c
        times the product of the groups g for (g, source) in uses, whose
        axes are disjoint, and rest are the coordinates none reads.
        ``source`` is the transition's source in the one group that reads
        it, where the intensity weight k_s/N goes, and None in the
        others.  The terms
        come from ``expr._product_terms``, their factors grouped by
        connected read sets; equal groups are one group, and terms with
        the same groups are one term.  A transition stays whole when it
        needs too many terms or has a group of factors spanning all its
        axes, so a rate splits when its factors read fewer coordinates at
        a time or it is constant.
        """
        index = self.state_index
        n = len(self.state_names)
        groups, ids, plan = [], {}, []  # groups: (axes, factors)
        for k, node in enumerate(self.nodes):
            s, width = self.sources[k], len({self.sources[k], *self.reads[k]})
            terms = ex._product_terms(node, self.params)
            split = [
                (c, _read_groups([(f, {index[x] for x in r}) for f, r in fs], s))
                for c, fs in terms or ()
            ]
            if not split or any(
                fs and len(a) == width for _, parts in split for a, fs in parts
            ):
                plan.append(None)
                continue
            entry: dict = {}  # (uses, rest) -> c
            for c, parts in split:
                uses = []
                for key in parts:
                    if key not in ids:
                        ids[key] = len(groups)
                        groups.append(key)
                    uses.append((ids[key], s if s in key[0] else None))
                read = {a for axes, _ in parts for a in axes}
                like = (tuple(sorted(uses)), tuple(x for x in range(n) if x not in read))
                entry[like] = entry.get(like, 0.0) + c
            plan.append(tuple((c, *like) for like, c in entry.items()))
        products = [_product(fs or (ex.Num(1.0),)) for _, fs in groups]
        kernel, _ = ex._kernel(products, self.params, index)
        return tuple(plan), tuple(axes for axes, _ in groups), kernel

    def split_blocks(self, N, ks) -> tuple:
        """What the mean drift evaluates at population N for the
        transitions among ks that ``plan`` splits: (split, blocks), where
        split lists them and each block (axes, uses, sources, rows) holds
        the (group, source) uses of their groups over the same axes, each
        use once, in order, the source of each use, and ``rows(m,
        shape)``, the uses' values by ``_group_rows``.  It depends on the
        table and N alone, so a caller may keep it.
        """
        terms, group_axes, _ = self.plan
        split = tuple(k for k in ks if terms[k] is not None)
        blocks: dict = {}  # axes -> {(g, source): None}, in order
        for k in split:
            for _, uses, _ in terms[k]:
                for g, s in uses:
                    blocks.setdefault(group_axes[g], {})[g, s] = None
        return split, tuple(
            (axes, uses, [s for _, s in uses], functools.partial(self._group_rows, N, uses))
            for axes, uses in zip(blocks, map(tuple, blocks.values()))
        )

    def certified(self, split, stats, masses) -> dict:
        """{k: Poisson average of the intensity} for the transitions k in
        split whose split is certified.  ``stats[use]`` is a use's window-
        weighted sum over its block, times k/N along its source, and the
        (min, max) of its values; ``masses[c]`` is coordinate c's window
        mass.  A split is certified when every group value is finite, the
        interval lower bound of the term sum, from each group's (min, max),
        is not negative, so no lattice point would fail ``check``, and the
        terms cancel by at most _CANCELLATION.
        """
        terms = self.plan[0]
        flows = {k: _certified(terms[k], stats, masses) for k in split}
        return {k: flow for k, flow in flows.items() if flow is not None}

    def _group_rows(self, N, uses, m, shape) -> np.ndarray:
        """Values of the (group, source) uses at occupancies m that
        broadcast to shape, stacked, each group evaluated once.  Where the
        source occupancy is zero there is no intensity, so a source group
        value that is not finite is set to 0, as ``check`` does with
        ``occupied``."""
        gids = list(dict.fromkeys(g for g, _ in uses))
        q = _batched(self.plan[2], gids, N, m, shape)
        if len(gids) < len(uses):
            q = q[[gids.index(g) for g, _ in uses]]
        if not np.isfinite(q).all():
            for row, (_, s) in zip(q, uses):
                if s is not None:
                    row[(m[s] == 0) & ~np.isfinite(row)] = 0.0
        return q

    def intensities(self, q, m) -> list:
        """m_s * rate for every transition, q as ``rates`` returns it."""
        return [m[i] * value for i, value in zip(self.sources, q)]

    def net(self, flows) -> list:
        """Sum of each transition's flow along e_t - e_s."""
        out = [0.0] * len(self.state_names)
        for i, j, flow in zip(self.sources, self.targets, flows):
            out[i] -= flow
            out[j] += flow
        return out

    def drift(self, N, m: list, held: bool = False) -> list:
        """The drift at occupancy m, a list of floats, one per state.

        With ``held``, the caller holds ``np.errstate(all="ignore")`` and
        no kernel sets it again.
        """
        _check_length(m, len(self.state_names))
        out = self._fused_drift[held](N, m)
        if out is None:
            # check refuses the first bad rate or excuses it at an empty source
            q = self.rates(N, m, occupied=True, held=held)
            out = self.net(self.intensities(q, m))
        return out

    def jump_law(self, N, c) -> tuple:
        """The jump chain's law at the count vector c: (total, cum).

        The intensities c_s * q_k at m = c/N, in table order, give total,
        their math.fsum, and cum, their running sums as
        ``itertools.accumulate`` adds them.  One generated call computes
        both where every rate is in [0, inf); otherwise ``rates``
        refuses the first bad rate or excuses it at an empty source.
        """
        law = self._fused_jump(N, c)
        if law is None:
            weights = self.intensities(self.rates(N, [x / N for x in c], occupied=True), c)
            law = math.fsum(weights), tuple(accumulate(weights))
        return law

    def slot_row(self, rates, i: int, D: int):
        """Per-agent move probabilities out of state i in a slot of width 1/D.

        ``rates`` are the rates of the transitions in ``out[i]``, in
        order.  Returns their probabilities and total; a total above 1
        means the slot is too coarse and raises SlotResolutionError.
        """
        eps = 1.0 / D
        probs = [eps * q for q in rates]
        total = math.fsum(probs)
        if total > 1.0:
            raise SlotResolutionError(
                f"total slot probability {total:.6g} out of state "
                f"{self.state_names[i]} exceeds 1; increase D above "
                f"{math.ceil(D * total)}"
            )
        return probs, total


@dataclass(frozen=True)
class ModelSpec:
    """A population model: states, parameters, and rate expressions.

    ``rates`` and ``limit_rates`` map ordered state-name pairs to
    expression ASTs.  ``limit_rates=None`` means no limit model was
    declared; an empty mapping declares an identically-zero limit.
    """

    state_names: tuple[str, ...]
    params: Mapping[str, float]
    rates: Mapping[tuple[str, str], ex.Expr]
    limit_rates: Optional[Mapping[tuple[str, str], ex.Expr]] = None

    _index: Mapping[str, int] = field(init=False, repr=False, compare=False)
    _rate_table: _RateTable = field(init=False, repr=False, compare=False)
    _limit_table: Optional[_RateTable] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        names = self.state_names
        if len(names) < 2:
            raise ModelError("a model needs at least two states", ("states",))
        if len(set(names)) != len(names):
            raise ModelError("state names must be distinct", ("states",))
        for name in names:
            if not _IDENT_RE.match(name):
                raise ModelError(f"invalid state name {name!r}", ("states",))
        for pname in self.params:
            entry = ("param", pname)
            if pname == "N":
                raise ModelError("parameter name 'N' is reserved", entry)
            if not _IDENT_RE.match(pname):
                raise ModelError(f"invalid parameter name {pname!r}", entry)
            value = self.params[pname]
            try:
                number = float(value)
            except (TypeError, ValueError):
                number = math.nan
            if math.isnan(number):
                raise _not_numeric(pname, value)
        index = {s: i for i, s in enumerate(names)}
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_rate_table", self._compile_table(self.rates, "rate"))
        limit = None
        if self.limit_rates is not None:
            limit = self._compile_table(self.limit_rates, "limit")
        object.__setattr__(self, "_limit_table", limit)

    def _compile_table(self, table, kind: str):
        """Check the "rate" or "limit" table; each refusal carries its entry."""
        what = "rate" if kind == "rate" else "limit rate"
        compiled = []
        for (s, t), node in table.items():
            entry, pair = (kind, (s, t)), f"{what} {s} -> {t}"
            if s not in self._index or t not in self._index:
                unknown = s if s not in self._index else t
                raise ModelError(f"{what} references unknown state {unknown!r}", entry)
            if s == t:
                raise ModelError(f"self-loop {pair} is not allowed", entry)
            problem = ex._malformed(node)
            if problem is not None:
                raise ModelError(f"{pair} {problem}", entry)
            if ex.depth(node) > ex._MAX_DEPTH:
                depth = ex._MAX_DEPTH
                raise ModelError(f"{pair} nests deeper than {depth} levels", entry)
            reads = []
            for var in ex.free_vars(node):
                if var.startswith("m["):
                    state = var[2:-1]
                    if state not in self._index:
                        raise ModelError(f"{pair} uses unknown state in {var}", entry)
                    reads.append(self._index[state])
                elif var == "N":
                    if kind == "limit":
                        raise ModelError(f"{pair} must not reference N", entry)
                elif var not in self.params:
                    raise ModelError(f"{pair} uses undeclared parameter {var!r}", entry)
            compiled.append(
                (self._index[s], self._index[t], tuple(sorted(reads)), node)
            )
        # canonical order: by (source, target) index
        compiled.sort(key=lambda item: (item[0], item[1]))
        return _RateTable(self._index, compiled, self.params)

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    def index_of(self, state: str) -> int:
        try:
            return self._index[state]
        except KeyError:
            raise ModelError(f"unknown state {state!r}") from None

    def _pair(self, s: str, t: str) -> Optional[int]:
        """Position of transition s -> t in the rate table; None if undeclared."""
        if s == t:
            raise ModelError("rates are defined for distinct state pairs")
        return self._rate_table.index.get((self.index_of(s), self.index_of(t)))

    def _single_pair(self, N, m, s: str, t: str):
        """The single-pair preamble: check N, flatten m to a list of one
        float per state, resolve s -> t.  Returns m and _pair(s, t)."""
        _check_population(N)
        return _flat_occupancy(m, self.n_states).tolist(), self._pair(s, t)

    def transitions(self) -> tuple:
        """Declared transitions as (source_index, target_index, rate_fn)."""
        return self._rate_table.entries

    def _limit(self) -> _RateTable:
        if self._limit_table is None:
            raise ModelError("model declares no limit rates")
        return self._limit_table

    @property
    def has_limit(self) -> bool:
        return self.limit_rates is not None

    def rate_expr(self, s: str, t: str) -> ex.Expr:
        """Rate expression for an ordered pair; zero when undeclared."""
        self._pair(s, t)
        return self.rates.get((s, t), ex.Num(0.0))


def _check_population(N) -> None:
    if not 0 < N < math.inf:
        raise ModelError(f"population size N must be positive and finite, got {N}")


def _check_seed(seed) -> None:
    if seed < 0:
        raise ModelError(f"seed must be non-negative, got {seed}")


def _check_integer(name: str, value) -> None:
    if not isinstance(value, numbers.Integral):
        raise ModelError(f"{name} must be an integer, got {value!r}")


def _check_resolution(D) -> None:
    """The slotted sampler's time resolution: an integer D >= 1."""
    if not isinstance(D, numbers.Integral) or D < 1:
        raise ModelError(
            f"slotted mode needs an integer time resolution D >= 1, got {D!r}"
        )


def _check_length(m, n_states: int) -> None:
    if len(m) != n_states:
        raise ModelError(f"occupancy has {len(m)} entries, model has {n_states} states")


def _flat_occupancy(m, n_states: Optional[int] = None) -> np.ndarray:
    """m as a flat float vector, with n_states entries when given."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 1:
        raise ModelError("occupancy must be a flat vector")
    if n_states is not None:
        _check_length(arr, n_states)
    return arr


def check_occupancy(m, n_states: Optional[int] = None) -> np.ndarray:
    """Validate an occupancy vector: entries >= 0, sum 1 within 1e-12."""
    arr = _flat_occupancy(m, n_states)
    if not np.all(np.isfinite(arr)):
        raise ModelError("occupancy entries must be finite")
    if np.any(arr < 0):
        raise ModelError("occupancy entries must be non-negative")
    if abs(float(arr.sum()) - 1.0) > 1e-12:
        raise ModelError(f"occupancy must sum to 1, got {float(arr.sum())!r}")
    return arr


def check_counts(counts, N: int, n_states: Optional[int] = None) -> np.ndarray:
    """Validate a count vector: non-negative integers summing to N."""
    arr = np.asarray(counts)
    if arr.ndim != 1:
        raise ModelError("counts must be a flat vector")
    if n_states is not None and arr.shape[0] != n_states:
        raise ModelError(
            f"counts have {arr.shape[0]} entries, model has {n_states} states"
        )
    if not np.all(arr == np.floor(arr)):
        raise ModelError("counts must be integers")
    arr = arr.astype(np.int64)
    if np.any(arr < 0):
        raise ModelError("counts must be non-negative")
    if int(arr.sum()) != N:
        raise ModelError(f"counts must sum to N={N}, got {int(arr.sum())}")
    return arr


def largest_remainder_counts(m, N: int) -> np.ndarray:
    """Round N*m to an integer count vector by largest remainder.

    Ties are broken toward the lowest state index, so the result is
    deterministic.
    """
    _check_integer("N", N)
    if N < 0:
        raise ModelError(f"N must be non-negative, got {N}")
    arr = check_occupancy(m)
    scaled = N * arr
    base = np.floor(scaled).astype(np.int64)
    missing = int(N - base.sum())
    if missing > 0:
        order = np.argsort(-(scaled - base), kind="stable")
        base[order[:missing]] += 1
    return base


def rate(model: ModelSpec, N: float, m, s: str, t: str) -> float:
    """Evaluate the transition rate for one agent in state s toward t.

    The result must be finite and non-negative; anything else raises
    RateError identifying the transition and the occupancy.
    Undeclared pairs have rate zero.
    """
    m, k = model._single_pair(N, m, s, t)
    if k is None:
        return 0.0
    return float(model._rate_table.rates(N, m, ks=(k,))[0])


def slot_probability(
    model: ModelSpec, N: float, m, s: str, t: str, D: int
) -> float:
    """Per-agent transition probability in one slot of width 1/D.

    The probability is rate/D.  If the total probability of leaving s
    in one slot exceeds 1 the slot width is too coarse and
    SlotResolutionError suggests a larger D.
    """
    _check_population(N)
    _check_resolution(D)
    m, k = model._single_pair(N, m, s, t)
    table = model._rate_table
    i = model.index_of(s)
    ks = table.out[i]
    q = table.rates(N, m, ks=ks)
    probs, _ = table.slot_row(q, i, D)
    return 0.0 if k is None else float(probs[k - ks.start])


def sample_simplex(n_states: int, count: int, seed: int) -> np.ndarray:
    """Deterministic low-discrepancy sample of occupancy vectors.

    Scrambled Halton points are mapped through coordinate-wise
    exponentials and normalized, which distributes them uniformly over
    the simplex.  Returns an array of shape (count, n_states).
    """
    from scipy.stats import qmc

    sampler = qmc.Halton(d=n_states, scramble=True, seed=seed)
    u = sampler.random(count)
    x = -np.log1p(-np.clip(u, 0.0, 1.0 - 1e-15))
    totals = x.sum(axis=1, keepdims=True)
    totals[totals == 0.0] = 1.0
    x /= totals
    return x


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of sampling-based model validation.

    ``lipschitz_estimate`` is the largest drift increment ratio over
    consecutive sampled occupancy pairs; ``bound_estimate`` the largest
    drift norm seen.  Rates above 1 are legal (rates are not
    probabilities) but flagged, since they often indicate a modelling
    slip.
    """

    N: float
    sample_count: int
    nonnegative: bool
    lipschitz_estimate: float
    bound_estimate: float
    max_rate: float
    rate_warning: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.nonnegative and not self.failures


def validate(
    model: ModelSpec, N: float, sample_count: int = 1000, seed: int = 0
) -> ValidationReport:
    """Probe a model on quasi-random occupancies.

    Checks that every declared rate is finite and non-negative, and
    estimates the drift's Lipschitz constant and bound from consecutive
    sample pairs.
    """
    _check_population(N)
    _check_integer("sample_count", sample_count)
    _check_integer("seed", seed)
    if sample_count < 2:
        raise ModelError("sample_count must be at least 2")
    _check_seed(seed)
    table = model._rate_table
    points = sample_simplex(model.n_states, sample_count, seed)
    failures: list[str] = []
    max_rate = 0.0
    bound = 0.0
    lipschitz = 0.0
    drifts = np.full((sample_count, model.n_states), np.nan)
    for k, m in enumerate(points.tolist()):
        q = table.kernel(N, m)
        valid = [float(x) for x in q if 0.0 <= x < math.inf]
        max_rate = max([max_rate, *valid])
        try:
            table.check(q, m)
        except RateError as err:
            if len(failures) < 10:
                failures.append(str(err))
            continue
        drifts[k] = vec = table.net(table.intensities(q, m))
        bound = max(bound, float(np.linalg.norm(vec)))
    for k in range(sample_count - 1):
        if np.any(np.isnan(drifts[k])) or np.any(np.isnan(drifts[k + 1])):
            continue
        gap = float(np.linalg.norm(points[k + 1] - points[k]))
        if gap == 0.0:
            continue
        ratio = float(np.linalg.norm(drifts[k + 1] - drifts[k])) / gap
        lipschitz = max(lipschitz, ratio)
    return ValidationReport(
        N=N,
        sample_count=sample_count,
        nonnegative=not failures,
        lipschitz_estimate=lipschitz,
        bound_estimate=bound,
        max_rate=max_rate,
        rate_warning=max_rate > 1.0,
        failures=tuple(failures),
    )


_LINE_STATES = re.compile(r"states\s*=\s*(.+)\Z")
_LINE_PARAM = re.compile(r"param\s+([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(\S+)\Z")
_LINE_RATE = re.compile(
    r"(rate|limit)\s+([A-Za-z_][A-Za-z0-9_]*)\s*->\s*"
    r"([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(.+)\Z"
)


def _not_numeric(name: str, value) -> ModelError:
    """The refusal of a parameter value that is no number, or NaN."""
    return ModelError(f"param {name!r} needs a numeric value, got {value!r}",
                      ("param", name))


def load_model(document: str) -> ModelSpec:
    """Parse a model document into a ModelSpec.

    Problems are reported with their 1-based line number.
    """
    states: Optional[tuple[str, ...]] = None
    params: dict[str, float] = {}
    rates: dict[tuple[str, str], ex.Expr] = {}
    limits: dict[tuple[str, str], ex.Expr] = {}
    lines: dict[tuple, int] = {}  # ModelError.entry -> its line

    def located(err: ModelError) -> ModelError:
        return ModelError(f"line {lines[err.entry]}: {err}", err.entry)

    for lineno, raw in enumerate(document.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = _LINE_STATES.fullmatch(line)
        if match:
            if states is not None:
                raise ModelError(f"line {lineno}: duplicate states line")
            states = tuple(part.strip() for part in match.group(1).split(","))
            lines[("states",)] = lineno
            continue
        match = _LINE_PARAM.fullmatch(line)
        if match:
            name, text = match.group(1), match.group(2)
            if name in params:
                raise ModelError(f"line {lineno}: duplicate param {name!r}")
            lines[("param", name)] = lineno
            try:
                params[name] = float(text)
            except ValueError:
                raise located(_not_numeric(name, text)) from None
            continue
        match = _LINE_RATE.fullmatch(line)
        if match:
            kind, src, dst, text = match.groups()
            table = rates if kind == "rate" else limits
            if (src, dst) in table:
                raise ModelError(
                    f"line {lineno}: duplicate {kind} {src} -> {dst}"
                )
            try:
                node = ex.parse(text)
            except ex.ExprSyntaxError as err:
                raise ModelError(f"line {lineno}: {err}") from None
            table[(src, dst)] = node
            lines[(kind, (src, dst))] = lineno
            continue
        raise ModelError(f"line {lineno}: unrecognized directive {line!r}")

    if states is None:
        raise ModelError("model declares no states line")
    try:
        return ModelSpec(states, params, rates, limits or None)
    except ModelError as err:
        if err.entry is None:
            raise
        raise located(err) from None


def builtin_example_text() -> str:
    """Document text of the bundled saturated-channel model."""
    return (
        resources.files("popdrift")
        .joinpath("data")
        .joinpath("saturated_channel.pop")
        .read_text(encoding="utf-8")
    )


def builtin_example() -> ModelSpec:
    """Two-state saturated-channel contention model.

    States idle/backoff with p1 = 0.008, p2 = 0.05; the success
    probability of a transmission attempt decays geometrically in the
    number of competing agents, and in the large-population limit every
    attempt collides.
    """
    return load_model(builtin_example_text())
