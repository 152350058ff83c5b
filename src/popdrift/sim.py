"""Stochastic simulation of the population process plus diagnostics.

Two path generators: an event-driven jump chain with exponential
holding times, and a slotted variant where every agent moves
independently within global slots of width 1/D using the slot-start
occupancy.  Each records its path only at the sorted times it is
given, so memory does not grow with the number of events.  Each reads
its law at a count vector from a memo keyed by that vector (_JumpLaw,
_SlotLaw), which the paths of one ensemble share and which starts
over once it holds _MEMO_CAP of them.  On top of
those, replicated ensembles with deterministic per-replication random
streams, sup-distance statistics against a reference trajectory, a
Poisson marginal diagnostic and a finite-difference check of the mean
dynamics.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import islice
from typing import Optional

import numpy as np

from .drift import drift_field
from .errors import ModelError, NumericsError
from .meandrift import poisson_weights
from .model import ModelSpec, _check_integer, _check_resolution, _check_seed, check_counts
from .odesolve import Trajectory, _time_vector

__all__ = ["SimConfig", "SimStats", "GeneratorCheck", "simulate_ctmc",
           "simulate_slotted", "ensemble", "poisson_marginal_fit", "generator_check"]

_CHUNK_REPS = 64
_SLOT_BLOCK = 1024
_LIST_SCAN = 64  # longest block whose first moving slot is found in lists
_DEFAULT_GRID_POINTS = 1000
_FIT_TAU = 1e-15  # Poisson mass poisson_marginal_fit's window may leave out
_SIGMA_LIMIT = 4.0  # GeneratorCheck.ok: every |discrepancy| within 4 stderrs
_MEMO_CAP = 1024  # count vectors a law memo holds before it starts over


def _sample_times(ts, t_end: float) -> np.ndarray:
    """ts as odesolve's sample times, also non-empty, sorted, within [0, t_end]."""
    ts = _time_vector(ts)
    if ts.size == 0:
        raise ModelError("sample times must be a non-empty vector")
    if np.any(ts < 0) or np.any(ts > t_end):
        raise ModelError("sample times must lie within [0, t_end]")
    if np.any(np.diff(ts) < 0):
        raise ModelError("sample times must be non-decreasing")
    return ts


def _check_horizon(t_end: float) -> None:
    if not math.isfinite(t_end) or t_end < 0:
        raise ModelError("t_end must be finite and non-negative")


@dataclass(frozen=True)
class SimConfig:
    """Replicated-simulation settings.

    mode is "ctmc" or "slotted"; slotted mode needs a time resolution D
    (slot width 1/D).  sample_times defaults to a uniform 1000-point
    grid over [0, t_end].  hist lists (time, state index) pairs whose
    agent-count histograms the ensemble should collect.
    """

    N: int
    init: tuple
    t_end: float
    reps: int = 1
    seed: int = 0
    mode: str = "ctmc"
    resolution: Optional[int] = None
    sample_times: Optional[tuple] = None
    hist: tuple = ()

    def __post_init__(self):
        for name in ("N", "reps", "seed"):
            _check_integer(name, getattr(self, name))
        if self.N < 1:
            raise ModelError("population size N must be at least 1")
        _check_horizon(self.t_end)
        if self.reps < 1:
            raise ModelError("replication count must be at least 1")
        _check_seed(self.seed)
        if self.mode not in ("ctmc", "slotted"):
            raise ModelError(f"unknown simulation mode {self.mode!r}")
        if self.mode == "slotted":
            _check_resolution(self.resolution)
        if self.sample_times is not None:
            _sample_times(self.sample_times, self.t_end)
        for t, s in self.hist:
            if not 0 <= t <= self.t_end:
                raise ModelError("histogram times must lie within [0, t_end]")
            _check_integer("histogram state index", s)

    def grid(self) -> np.ndarray:
        if self.sample_times is not None:
            return np.asarray(self.sample_times, dtype=float)
        return np.linspace(0.0, self.t_end, _DEFAULT_GRID_POINTS)


def _start(model: ModelSpec, N: int, init, t_end: float, at):
    """Checked start of a path: counts, sample times with a sentinel, output rows."""
    _check_horizon(t_end)
    at = _sample_times(at, t_end)
    counts = check_counts(init, N, model.n_states).astype(np.int64)
    rows = np.empty((at.size, model.n_states), dtype=np.int64)
    return counts, at.tolist() + [math.inf], rows


class _LawMemo:
    """A model's checked law at population N, memoized by count vector.

    law(c) for a count tuple c returns the law a subclass's build(c)
    makes.  A count vector whose law build refuses is never stored.
    The memo starts over once it holds _MEMO_CAP vectors, so a path
    that wanders over many vectors keeps it bounded.
    """

    def __init__(self, model: ModelSpec, N: int):
        self.model = model
        self.N = N
        self.memo = {}

    def __call__(self, c: tuple):
        return self.memo.get(c) or self.miss(c)

    def miss(self, c: tuple):
        """c's law, built and stored."""
        law = self.build(c)
        if len(self.memo) >= _MEMO_CAP:
            self.memo.clear()
        self.memo[c] = law
        return law


class _JumpLaw(_LawMemo):
    """The jump law: ``_RateTable.jump_law``'s (total, cum), the
    math.fsum of the transition intensities at c and their running sums
    in table order.  A count vector whose rates fail the check raises
    RateError.
    """

    def build(self, c: tuple):
        return self.model._rate_table.jump_law(self.N, c)


class _SlotLaw(_LawMemo):
    """The slot law at resolution D: (rows, p_move, block_cap).

    rows holds (i, c[i], targets, pvec) for each source i that can
    move: pvec is the read-only multinomial law of one agent of i over
    the transitions out of i, to ``targets`` in table order, then
    staying.  p_move is the chance that some agent moves in a slot, and
    block_cap the number of slots sampled at once.  A count vector whose
    rates fail the check raises RateError, one whose slot is too coarse
    raises SlotResolutionError.
    """

    def __init__(self, model: ModelSpec, N: int, D: int):
        super().__init__(model, N)
        self.D = D

    def build(self, c: tuple):
        table = self.model._rate_table
        q = table.rates(self.N, [x / self.N for x in c], occupied=True)
        rows = []
        stay_all = 1.0
        for i, ks in enumerate(table.out):
            if c[i] == 0:
                continue
            probs, total = table.slot_row(q[ks.start:ks.stop], i, self.D)
            if total <= 0.0:
                continue
            pvec = np.array(probs + [max(0.0, 1.0 - total)])
            pvec.flags.writeable = False
            rows.append((i, c[i], [table.targets[k] for k in ks], pvec))
            stay_all *= (1.0 - total) ** c[i]
        p_move = 1.0 - stay_all
        # block size tracks the expected gap between moving slots
        block_cap = max(1, min(_SLOT_BLOCK, int(0.5 / p_move) + 1)) if p_move > 0.0 else 0
        return rows, p_move, block_cap


def simulate_ctmc(model: ModelSpec, N: int, init, t_end: float, rng, at):
    """One jump-chain path over [0, t_end], read at the sorted times at.

    Exponential holding times in the total rate, jump selection
    proportional to n_s * Q_{s,s'}(n/N); the path ends at the first
    jump time past t_end.  Returns (counts, jump_totals): counts[k] is
    the count vector at at[k], an event at exactly at[k] included, and
    jump_totals[s, t] the number of s -> t jumps over the whole path.
    """
    return _jump_path(_JumpLaw(model, N), init, t_end, rng, at)


def _jump_path(law: _JumpLaw, init, t_end: float, rng, at):
    """simulate_ctmc on a jump law that other paths of its model and N may share."""
    counts, stops, out = _start(law.model, law.N, init, t_end, at)
    table = law.model._rate_table
    moves = list(zip(table.sources, table.targets))
    every = len(moves)
    # plain lists and bound methods: this runs once per event
    get, miss = law.memo.get, law.miss
    exponential, random = rng.exponential, rng.random
    c = counts.tolist()
    picks = [0] * every
    pos = 0
    stop = stops[0]
    t = 0.0
    while True:
        key = tuple(c)
        total, cum = get(key) or miss(key)
        if total <= 0.0:
            break
        t += exponential(1.0 / total)
        if t > t_end:
            break
        # the first k with u < cum[k], as a scan of the running sums finds it
        pick = bisect_right(cum, random() * total)
        if pick == every:
            # u reached the rounded sum: the last transition at which it rose
            pick = bisect_left(cum, cum[-1])
        while stop < t:
            out[pos] = c
            pos += 1
            stop = stops[pos]
        picks[pick] += 1
        i, j = moves[pick]
        c[i] -= 1
        c[j] += 1
    out[pos:] = c
    z = np.zeros((law.model.n_states,) * 2, dtype=np.int64)
    for (i, j), count in zip(moves, picks):
        z[i, j] = count
    return out, z


def simulate_slotted(model: ModelSpec, N: int, D: int, init, t_end: float, rng, at):
    """One slotted path: agents move independently inside width-1/D slots.

    All moves within a slot use the slot-start occupancy; per-source
    move counts are multinomial.  A per-agent slot probability total
    above 1 means the resolution is too coarse and raises
    SlotResolutionError.  Quiet stretches are sampled in vectorized
    blocks, which leaves the law of the path unchanged.  Returns
    (counts, jump_totals) as simulate_ctmc does; a slot's moves take
    effect at its end, so a time on that boundary reads them.
    """
    _check_resolution(D)
    return _slot_path(_SlotLaw(model, N, D), init, t_end, rng, at)


def _slot_path(law: _SlotLaw, init, t_end: float, rng, at):
    """simulate_slotted on a slot law that other paths of its model, N
    and D may share."""
    counts, stops, out = _start(law.model, law.N, init, t_end, at)
    D = law.D
    n = law.model.n_states
    n_slots = int(math.floor(t_end * D + 1e-9))
    # plain lists and bound methods, as in _jump_path
    get, miss = law.memo.get, law.miss
    multinomial = rng.multinomial
    c = counts.tolist()
    z = [[0] * n for _ in range(n)]
    pos = 0
    slot = 0
    while slot < n_slots:
        key = tuple(c)
        rows, p_move, block_cap = get(key) or miss(key)
        if p_move <= 0.0:
            break
        while slot < n_slots:
            block = min(block_cap, n_slots - slot)
            draws = [multinomial(ci, pvec, size=block) for _, ci, _, pvec in rows]
            # the first slot in which some source kept fewer than its c[i]
            # agents.  On short blocks plain lists beat numpy's per-call
            # cost; on long ones one numpy pass beats a list of every slot.
            first = block
            for (_, ci, _, _), d in zip(rows, draws):
                if block > _LIST_SCAN:
                    gone = d[:, -1] != ci
                    s = int(gone.argmax())
                    if gone[s] and s < first:
                        first = s
                else:
                    stay = d[:, -1].tolist()
                    if stay.count(ci) < block:
                        for s in range(first):
                            if stay[s] != ci:
                                first = s
                                break
            if first == block:
                slot += block
                continue
            slot += first + 1
            while stops[pos] < slot / D:
                out[pos] = c
                pos += 1
            for (i, _, targets, _), d in zip(rows, draws):
                # zip stops before the stay column
                for j, k in zip(targets, d[first].tolist()):
                    if k:
                        c[i] -= k
                        c[j] += k
                        z[i][j] += k
            break
    out[pos:] = c
    return out, np.array(z, dtype=np.int64)


def _replication_rngs(config: SimConfig):
    """Replication r's generator, r = 0 .. reps-1: the r-th spawn of the seed."""
    root = np.random.SeedSequence(config.seed)
    for _ in range(config.reps):  # spawned one at a time, as reps may be 10^7
        yield np.random.default_rng(root.spawn(1)[0])


def _sampler(model: ModelSpec, config: SimConfig):
    """path(rng, at) in config's mode; all paths share one jump or slot law."""
    check_counts(config.init, config.N, model.n_states)
    if config.mode == "slotted":
        law = _SlotLaw(model, config.N, config.resolution)
        return lambda rng, at: _slot_path(law, config.init, config.t_end, rng, at)
    law = _JumpLaw(model, config.N)
    return lambda rng, at: _jump_path(law, config.init, config.t_end, rng, at)


@dataclass(frozen=True)
class SimStats:
    """Ensemble statistics over the configured sample grid.

    sup_distances and mse_sup are present only when a reference
    trajectory was supplied; z_counts sums the successful replications'
    jump-count matrices at t_end; histograms maps (time, state index)
    to agent-count tallies over replications.
    """

    sample_times: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    z_counts: np.ndarray
    histograms: dict = field(repr=False)
    reps: int = 0
    failures: int = 0
    sup_distances: Optional[np.ndarray] = None
    mse_sup: Optional[float] = None


def ensemble(
    model: ModelSpec,
    config: SimConfig,
    reference: Optional[Trajectory] = None,
) -> SimStats:
    """Run config.reps independent replications and aggregate.

    Replication r uses the r-th spawn of the master seed.  Replications
    run in fixed chunks of 64; each chunk's moment sums are formed
    first and then added to the totals in chunk order.  Of each
    replication only its sup distance from a reference is kept.
    More than 1% failed replications aborts.
    """
    for _, s in config.hist:
        if not 0 <= s < model.n_states:
            raise ModelError(f"histogram state index {s} out of range")
    grid = config.grid()
    at = np.unique(np.concatenate([grid, [t for t, _ in config.hist]]))
    grid_pos = np.searchsorted(at, grid)
    ref_vals = reference.sample(grid) if reference is not None else None
    R = config.reps
    n = model.n_states
    rngs = _replication_rngs(config)

    total = np.zeros((grid.size, n))
    totalsq = np.zeros((grid.size, n))
    jumps = np.zeros((n, n), dtype=np.int64)
    sups = np.empty(R) if ref_vals is not None else None
    n_ok = 0
    histograms = {
        key: np.zeros(config.N + 1, dtype=np.int64) for key in config.hist
    }
    hist_reads = [(h, np.searchsorted(at, t), s) for (t, s), h in histograms.items()]
    first_error = None
    path = _sampler(model, config)
    for _ in range(0, R, _CHUNK_REPS):
        part = np.zeros((grid.size, n))
        partsq = np.zeros((grid.size, n))
        for rng in islice(rngs, _CHUNK_REPS):
            try:
                counts, jump_totals = path(rng, at)
            except (ModelError, NumericsError) as exc:
                if first_error is None:
                    first_error = str(exc)
                continue
            occ = counts[grid_pos] / float(config.N)
            part += occ
            partsq += occ * occ
            if sups is not None:
                sups[n_ok] = np.sqrt(((occ - ref_vals) ** 2).sum(axis=1)).max()
            jumps += jump_totals
            for h, k, s in hist_reads:
                h[counts[k, s]] += 1
            n_ok += 1
        total += part
        totalsq += partsq

    failures = R - n_ok
    if failures > 0.01 * R:
        raise ModelError(
            f"{failures} of {R} replications failed; "
            f"first failure: {first_error}"
        )

    mean = total / n_ok
    if n_ok > 1:
        var = np.maximum(0.0, (totalsq - n_ok * mean * mean) / (n_ok - 1))
        stderr = np.sqrt(var / n_ok)
    else:
        stderr = np.zeros_like(mean)

    sup = sups[:n_ok] if sups is not None else None
    mse = float(np.mean(sup * sup)) if sup is not None else None
    return SimStats(
        sample_times=grid,
        mean=mean,
        stderr=stderr,
        z_counts=jumps,
        histograms=histograms,
        reps=R,
        failures=failures,
        sup_distances=sup,
        mse_sup=mse,
    )


def poisson_marginal_fit(histogram, lam: float) -> float:
    """Total variation distance between a count histogram and Poisson(lam).

    Compares the empirical law over the histogram's support against the
    Poisson law and adds the Poisson mass beyond the support.
    """
    h = np.asarray(histogram, dtype=float)
    if h.ndim != 1 or h.size == 0:
        raise ModelError("histogram must be a non-empty vector")
    if np.any(h < 0) or not np.all(np.isfinite(h)):
        raise ModelError("histogram entries must be finite and non-negative")
    total = h.sum()
    if total <= 0:
        raise ModelError("histogram holds no observations")
    window = poisson_weights(lam, _FIT_TAU)
    # the window on the histogram's support; mass outside it is tail
    pmf = np.pad(window.probs, (window.k_min, h.size))[:h.size]
    tail = max(0.0, 1.0 - float(pmf.sum()))
    return 0.5 * (float(np.abs(h / total - pmf).sum()) + tail)


@dataclass(frozen=True)
class GeneratorCheck:
    """Finite-difference test of the mean dynamics over a time window.

    Compares the per-replication difference quotient of the occupancy
    across the window with the drift evaluated at the window midpoint;
    discrepancy and stderr are componentwise over states, sigmas is
    |discrepancy| / stderr (zero where both vanish).
    """

    window: tuple
    reps: int
    finite_difference: np.ndarray
    drift_mean: np.ndarray
    discrepancy: np.ndarray
    stderr: np.ndarray
    sigmas: np.ndarray

    @property
    def ok(self) -> bool:
        return bool(np.all(self.sigmas <= _SIGMA_LIMIT))


def generator_check(
    model: ModelSpec, config: SimConfig, window
) -> GeneratorCheck:
    """Check d/dt E[M(t)] = E[F(M(t))] empirically across a window."""
    w0, w1 = float(window[0]), float(window[1])
    if not 0 <= w0 < w1 <= config.t_end:
        raise ModelError("window must satisfy 0 <= start < end <= t_end")
    mid = 0.5 * (w0 + w1)
    probe = np.array([w0, mid, w1])
    R = config.reps
    fds = np.zeros((R, model.n_states))
    drs = np.zeros((R, model.n_states))
    path = _sampler(model, config)
    vf = drift_field(model, config.N)
    for r, rng in enumerate(_replication_rngs(config)):
        occ = path(rng, probe)[0] / float(config.N)
        fds[r] = (occ[2] - occ[0]) / (w1 - w0)
        drs[r] = vf(occ[1])
    diffs = fds - drs
    disc = diffs.mean(axis=0)
    if R > 1:
        se = diffs.std(axis=0, ddof=1) / math.sqrt(R)
    else:
        se = np.zeros_like(disc)
    with np.errstate(invalid="ignore", divide="ignore"):
        sigmas = np.where(se > 0, np.abs(disc) / se, np.where(disc == 0, 0.0, np.inf))
    return GeneratorCheck(
        window=(w0, w1),
        reps=R,
        finite_difference=fds.mean(axis=0),
        drift_mean=drs.mean(axis=0),
        discrepancy=disc,
        stderr=se,
        sigmas=sigmas,
    )
