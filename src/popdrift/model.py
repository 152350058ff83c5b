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
import math
import re
from dataclasses import dataclass, field
from importlib import resources
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


class _RateTable:
    """One rate table compiled once, in canonical (source, target) order.

    Built from (source, target, fn, reads) tuples.  Transition k is
    ``entries[k]`` = (source, target, fn), also held as ``sources[k]``,
    ``targets[k]`` and ``fns[k]``; ``reads[k]`` are the sorted indices
    of the occupancies its rate reads.  ``index`` maps a (source,
    target) index pair to k and ``out[i]`` is the range of k whose
    source is state i.  Every place that evaluates transitions goes
    through ``evaluate`` and ``check``, on all transitions or on the
    positions ``ks``.
    """

    def __init__(self, state_names, compiled):
        self.state_names = state_names
        self.entries = tuple((i, j, fn) for i, j, fn, _ in compiled)
        self.sources = tuple(i for i, _, _ in self.entries)
        self.targets = tuple(j for _, j, _ in self.entries)
        self.fns = tuple(fn for _, _, fn in self.entries)
        self.reads = tuple(reads for _, _, _, reads in compiled)
        self.index = {(i, j): k for k, (i, j, _) in enumerate(self.entries)}
        starts = [bisect.bisect_left(self.sources, i)
                  for i in range(len(state_names) + 1)]
        self.out = tuple(map(range, starts, starts[1:]))

    def evaluate(self, N, m, shape=None, ks=None):
        """Rates of the transitions ks (default: all) at occupancy m.

        With ``shape`` None, m is one point and the result is a list of
        floats.  Otherwise m holds floats or arrays that broadcast to
        ``shape`` and the result is an array of shape (len(ks), *shape).
        Domain violations give inf or nan as under numpy; ``check``
        rejects them.
        """
        fns = self.fns if ks is None else [self.fns[k] for k in ks]
        with np.errstate(all="ignore"):
            if shape is not None:
                # numpy operands: plain floats raise on x/0
                N, m = np.float64(N), [np.asarray(c, dtype=float) for c in m]
                q = np.empty((len(fns), *shape))
                for pos, fn in enumerate(fns):
                    q[pos] = fn(N, m)
                return q
            try:
                return [fn(N, m) for fn in fns]
            except ZeroDivisionError:
                # plain floats raise on x/0 where numpy gives inf or nan
                m = [np.float64(x) for x in m]
                return [fn(np.float64(N), m) for fn in fns]

    def check(self, q, m, occupied: bool = False, ks=None) -> None:
        """Raise RateError at the first negative or non-finite rate in q.

        q comes from ``evaluate`` at the same m and ks.  With
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

    def intensities(self, q, m) -> list:
        """m_s * rate for every transition, q as ``check`` leaves it."""
        return [m[i] * value for i, value in zip(self.sources, q)]

    def net(self, flows) -> np.ndarray:
        """Sum of each transition's flow along e_t - e_s."""
        out = [0.0] * len(self.state_names)
        for i, j, flow in zip(self.sources, self.targets, flows):
            out[i] -= flow
            out[j] += flow
        return np.array(out, dtype=float)

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
        index = {s: i for i, s in enumerate(names)}
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_rate_table", self._compile_table(self.rates, "rate"))
        limit = None
        if self.limit_rates is not None:
            limit = self._compile_table(self.limit_rates, "limit")
        object.__setattr__(self, "_limit_table", limit)

    def _compile_table(self, table, kind: str):
        """Compile the "rate" or "limit" table; each refusal carries its entry."""
        what = "rate" if kind == "rate" else "limit rate"
        compiled = []
        for (s, t), node in table.items():
            entry, pair = (kind, (s, t)), f"{what} {s} -> {t}"
            if s not in self._index or t not in self._index:
                unknown = s if s not in self._index else t
                raise ModelError(f"{what} references unknown state {unknown!r}", entry)
            if s == t:
                raise ModelError(f"self-loop {pair} is not allowed", entry)
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
            fn = ex.compile_fn(node, self.params, self._index)
            compiled.append(
                (self._index[s], self._index[t], fn, tuple(sorted(reads)))
            )
        # canonical order: by (source, target) index
        compiled.sort(key=lambda item: (item[0], item[1]))
        return _RateTable(self.state_names, compiled)

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

    def transitions(self) -> tuple:
        """Declared transitions as (source_index, target_index, rate_fn)."""
        return self._rate_table.entries

    def limit_transitions(self) -> tuple:
        return self._limit().entries

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


def check_occupancy(m, n_states: Optional[int] = None) -> np.ndarray:
    """Validate an occupancy vector: entries >= 0, sum 1 within 1e-12."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 1:
        raise ModelError("occupancy must be a flat vector")
    if n_states is not None and arr.shape[0] != n_states:
        raise ModelError(
            f"occupancy has {arr.shape[0]} entries, model has {n_states} states"
        )
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
    k = model._pair(s, t)
    if k is None:
        return 0.0
    table = model._rate_table
    arr = np.asarray(m, dtype=float)
    q = table.evaluate(N, arr, ks=(k,))
    table.check(q, arr, ks=(k,))
    return float(q[0])


def slot_probability(
    model: ModelSpec, N: float, m, s: str, t: str, D: int
) -> float:
    """Per-agent transition probability in one slot of width 1/D.

    The probability is rate/D clipped to [0, 1].  If the total
    probability of leaving s in one slot exceeds 1 the slot width is
    too coarse and SlotResolutionError suggests a larger D.
    """
    if D <= 0:
        raise ModelError("slot count D must be positive")
    k = model._pair(s, t)
    table = model._rate_table
    i = model.index_of(s)
    ks = table.out[i]
    arr = np.asarray(m, dtype=float)
    q = table.evaluate(N, arr, ks=ks)
    table.check(q, arr, ks=ks)
    probs, _ = table.slot_row(q, i, D)
    wanted = 0.0 if k is None else float(probs[k - ks.start])
    return min(1.0, max(0.0, wanted))


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
    if sample_count < 2:
        raise ModelError("sample_count must be at least 2")
    table = model._rate_table
    points = sample_simplex(model.n_states, sample_count, seed)
    failures: list[str] = []
    max_rate = 0.0
    bound = 0.0
    lipschitz = 0.0
    drifts = np.full((sample_count, model.n_states), np.nan)
    for k, m in enumerate(points.tolist()):
        q = table.evaluate(N, m)
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


def load_model(document: str) -> ModelSpec:
    """Parse a model document into a ModelSpec.

    Problems are reported with their 1-based line number.
    """
    states: Optional[tuple[str, ...]] = None
    params: dict[str, float] = {}
    rates: dict[tuple[str, str], ex.Expr] = {}
    limits: dict[tuple[str, str], ex.Expr] = {}
    lines: dict[tuple, int] = {}  # ModelError.entry -> its line

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
                value = float(text)
            except ValueError:
                raise ModelError(
                    f"line {lineno}: param {name!r} needs a numeric value, "
                    f"got {text!r}"
                ) from None
            params[name] = value
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
        raise ModelError(f"line {lines[err.entry]}: {err}", err.entry) from None


def builtin_example_text() -> str:
    """Document text of the bundled saturated-channel model."""
    return (
        resources.files("popdrift.data")
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
