"""Stochastic simulation of the population process plus diagnostics.

Two path generators: an event-driven jump chain with exponential
holding times, and a slotted variant where every agent moves
independently within global slots of width 1/D using the slot-start
occupancy.  Each records its path only at the sorted times it is
given, so memory does not grow with the number of events.  On top of
those, replicated ensembles with deterministic per-replication random
streams, sup-distance statistics against a reference trajectory, a
Poisson marginal diagnostic and a finite-difference check of the mean
dynamics.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional

import numpy as np

from .drift import drift_field
from .errors import ModelError, NumericsError
from .meandrift import poisson_weights
from .model import ModelSpec, _check_integer, _check_resolution, check_counts
from .odesolve import Trajectory, _time_vector

__all__ = ["SimConfig", "SimStats", "GeneratorCheck", "simulate_ctmc",
           "simulate_slotted", "ensemble", "poisson_marginal_fit", "generator_check"]

_CHUNK_REPS = 64
_SLOT_BLOCK = 1024
_DEFAULT_GRID_POINTS = 1000
_FIT_TAU = 1e-15  # Poisson mass poisson_marginal_fit's window may leave out
_SIGMA_LIMIT = 4.0  # GeneratorCheck.ok: every |discrepancy| within 4 stderrs
_MEMO_CAP = 1024  # count vectors a _JumpLaw holds before it starts over


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
        if self.seed < 0:
            raise ModelError(f"seed must be non-negative, got {self.seed}")
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


class _JumpLaw:
    """A model's checked jump law at population N, memoized by count vector.

    law(c) for a count tuple c returns (total, cum): the math.fsum of
    the transition intensities at c and their running sums in table
    order, each computed as one unmemoized event would compute it.  A
    count vector whose rates fail the check raises RateError and is
    never stored.  The memo starts over once it holds _MEMO_CAP
    vectors, so a path that wanders over many vectors keeps it bounded.
    """

    def __init__(self, model: ModelSpec, N: int):
        self.model = model
        self.N = N
        self.memo = {}

    def __call__(self, c: tuple):
        law = self.memo.get(c)
        if law is None:
            table, N = self.model._rate_table, self.N
            q = table.rates(N, [x / N for x in c], occupied=True)
            weights = table.intensities(q, c)
            if len(self.memo) >= _MEMO_CAP:
                self.memo.clear()
            law = self.memo[c] = (math.fsum(weights), tuple(accumulate(weights)))
        return law


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
    n = law.model.n_states
    last = len(table.sources) - 1
    # plain lists: this runs once per event
    c = counts.tolist()
    z = [[0] * n for _ in range(n)]
    pos = 0
    t = 0.0
    while True:
        total, cum = law(tuple(c))
        if total <= 0.0:
            break
        t += rng.exponential(1.0 / total)
        if t > t_end:
            break
        # the first k with u < cum[k], as a scan of the running sums finds it
        pick = min(bisect_right(cum, rng.random() * total), last)
        while stops[pos] < t:
            out[pos] = c
            pos += 1
        i, j = table.sources[pick], table.targets[pick]
        c[i] -= 1
        c[j] += 1
        z[i][j] += 1
    out[pos:] = c
    return out, np.array(z, dtype=np.int64)


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
    counts, stops, out = _start(model, N, init, t_end, at)
    table = model._rate_table
    n = model.n_states
    n_slots = int(math.floor(t_end * D + 1e-9))
    z = np.zeros((n, n), dtype=np.int64)
    pos = 0
    slot = 0
    while slot < n_slots:
        c = counts.tolist()
        q = table.rates(N, [x / N for x in c], occupied=True)
        rows = []
        stay_all = 1.0
        for i, ks in enumerate(table.out):
            if c[i] == 0:
                continue
            probs, total = table.slot_row(q[ks.start:ks.stop], i, D)
            if total <= 0.0:
                continue
            pvec = np.array(probs + [max(0.0, 1.0 - total)])
            rows.append((i, [table.targets[k] for k in ks], pvec))
            stay_all *= (1.0 - total) ** c[i]
        p_move = 1.0 - stay_all
        if p_move <= 0.0:
            break
        # block size tracks the expected gap between moving slots
        block_cap = max(1, min(_SLOT_BLOCK, int(0.5 / p_move) + 1))
        while slot < n_slots:
            block = min(block_cap, n_slots - slot)
            draws = [
                rng.multinomial(int(counts[i]), pvec, size=block)[:, :-1]
                for i, _, pvec in rows
            ]
            any_move = np.zeros(block, dtype=bool)
            for d in draws:
                any_move |= d.any(axis=1)
            hits = np.flatnonzero(any_move)
            if hits.size == 0:
                slot += block
                continue
            first = int(hits[0])
            slot += first + 1
            while stops[pos] < slot / D:
                out[pos] = counts
                pos += 1
            for (i, targets, _), d in zip(rows, draws):
                for col, j in enumerate(targets):
                    k = int(d[first, col])
                    if k:
                        counts[i] -= k
                        counts[j] += k
                        z[i, j] += k
            break
    out[pos:] = counts
    return out, z


def _replication_rngs(config: SimConfig):
    """Replication r's generator, r = 0 .. reps-1: the r-th spawn of the seed."""
    for stream in np.random.SeedSequence(config.seed).spawn(config.reps):
        yield np.random.default_rng(stream)


def _sampler(model: ModelSpec, config: SimConfig):
    """path(rng, at) in config's mode; jump-chain paths share one jump law."""
    check_counts(config.init, config.N, model.n_states)
    if config.mode == "slotted":
        return lambda rng, at: simulate_slotted(
            model, config.N, config.resolution, config.init, config.t_end, rng, at
        )
    law = _JumpLaw(model, config.N)
    return lambda rng, at: _jump_path(law, config.init, config.t_end, rng, at)


@dataclass(frozen=True)
class SimStats:
    """Ensemble statistics over the configured sample grid.

    sup_distances and mse_sup are present only when a reference
    trajectory was supplied; z_counts holds each successful
    replication's cumulative jump-count matrix at t_end; histograms
    maps (time, state index) to agent-count tallies over replications.
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
    first and then added to the totals in chunk order.  More than 1%
    failed replications aborts.
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
    sup_all = np.full(R, np.nan)
    z_all = np.zeros((R, n, n), dtype=np.int64)
    ok = np.zeros(R, dtype=bool)
    histograms = {
        key: np.zeros(config.N + 1, dtype=np.int64) for key in config.hist
    }
    hist_reads = [(h, np.searchsorted(at, t), s) for (t, s), h in histograms.items()]
    first_error = None
    path = _sampler(model, config)
    for lo in range(0, R, _CHUNK_REPS):
        part = np.zeros((grid.size, n))
        partsq = np.zeros((grid.size, n))
        for r, rng in zip(range(lo, min(R, lo + _CHUNK_REPS)), rngs):
            try:
                counts, jump_totals = path(rng, at)
            except (ModelError, NumericsError) as exc:
                if first_error is None:
                    first_error = str(exc)
                continue
            occ = counts[grid_pos] / float(config.N)
            part += occ
            partsq += occ * occ
            if ref_vals is not None:
                gaps = np.sqrt(((occ - ref_vals) ** 2).sum(axis=1))
                sup_all[r] = gaps.max()
            z_all[r] = jump_totals
            for h, k, s in hist_reads:
                h[counts[k, s]] += 1
            ok[r] = True
        total += part
        totalsq += partsq

    n_ok = int(ok.sum())
    failures = R - n_ok
    if failures > 0.01 * R:
        raise ModelError(
            f"{failures} of {R} replications failed; "
            f"first failure: {first_error}"
        )
    if n_ok == 0:
        raise ModelError("all replications failed")

    mean = total / n_ok
    if n_ok > 1:
        var = np.maximum(0.0, (totalsq - n_ok * mean * mean) / (n_ok - 1))
        stderr = np.sqrt(var / n_ok)
    else:
        stderr = np.zeros_like(mean)

    sup = sup_all[ok] if ref_vals is not None else None
    mse = float(np.mean(sup * sup)) if sup is not None else None
    return SimStats(
        sample_times=grid,
        mean=mean,
        stderr=stderr,
        z_counts=z_all[ok],
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
