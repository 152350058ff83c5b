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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .drift import drift
from .errors import ModelError, NumericsError
from .meandrift import poisson_weights
from .model import ModelSpec, check_counts
from .odesolve import Trajectory

_CHUNK_REPS = 64
_SLOT_BLOCK = 1024
_DEFAULT_GRID_POINTS = 1000
_FIT_TAU = 1e-15  # Poisson mass poisson_marginal_fit's window may leave out
_SIGMA_LIMIT = 4.0  # GeneratorCheck.ok: every |discrepancy| within 4 stderrs


def _sample_times(ts, t_end: float) -> np.ndarray:
    """ts as a float vector: non-empty, finite, sorted, within [0, t_end]."""
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ModelError("sample times must be a non-empty vector")
    if not np.all(np.isfinite(ts)):
        raise ModelError("sample times must be finite")
    if np.any(ts < 0) or np.any(ts > t_end):
        raise ModelError("sample times must lie within [0, t_end]")
    if np.any(np.diff(ts) < 0):
        raise ModelError("sample times must be non-decreasing")
    return ts


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
        if self.N < 1:
            raise ModelError("population size N must be at least 1")
        if not math.isfinite(self.t_end) or self.t_end < 0:
            raise ModelError("t_end must be finite and non-negative")
        if self.reps < 1:
            raise ModelError("replication count must be at least 1")
        if self.mode not in ("ctmc", "slotted"):
            raise ModelError(f"unknown simulation mode {self.mode!r}")
        if self.mode == "slotted":
            if self.resolution is None or self.resolution < 1:
                raise ModelError("slotted mode needs a time resolution D >= 1")
        if self.sample_times is not None:
            _sample_times(self.sample_times, self.t_end)
        for entry in self.hist:
            t, _ = entry
            if not 0 <= t <= self.t_end:
                raise ModelError("histogram times must lie within [0, t_end]")

    def grid(self) -> np.ndarray:
        if self.sample_times is not None:
            return np.asarray(self.sample_times, dtype=float)
        return np.linspace(0.0, self.t_end, _DEFAULT_GRID_POINTS)


def _start(model: ModelSpec, N: int, init, t_end: float, at):
    """Checked start of a path: counts, sample times with a sentinel, output rows."""
    if not math.isfinite(t_end) or t_end < 0:
        raise ModelError("t_end must be finite and non-negative")
    at = _sample_times(at, t_end)
    counts = check_counts(init, N, model.n_states).astype(np.int64)
    rows = np.empty((at.size, model.n_states), dtype=np.int64)
    return counts, at.tolist() + [math.inf], rows


def simulate_ctmc(model: ModelSpec, N: int, init, t_end: float, rng, at):
    """One jump-chain path over [0, t_end], read at the sorted times at.

    Exponential holding times in the total rate, jump selection
    proportional to n_s * Q_{s,s'}(n/N); the path ends at the first
    jump time past t_end.  Returns (counts, jump_totals): counts[k] is
    the count vector at at[k], an event at exactly at[k] included, and
    jump_totals[s, t] the number of s -> t jumps over the whole path.
    """
    counts, stops, out = _start(model, N, init, t_end, at)
    table = model._rate_table
    n = model.n_states
    z = np.zeros((n, n), dtype=np.int64)
    pos = 0
    t = 0.0
    while True:
        # plain floats: this runs once per event
        c = counts.tolist()
        m = [x / N for x in c]
        q = table.evaluate(N, m)
        table.check(q, m, occupied=True)
        weights = table.intensities(q, c)
        total = math.fsum(weights)
        if total <= 0.0:
            break
        t += rng.exponential(1.0 / total)
        if t > t_end:
            break
        u = rng.random() * total
        acc = 0.0
        pick = len(weights) - 1
        for k, w in enumerate(weights):
            acc += w
            if u < acc:
                pick = k
                break
        while stops[pos] < t:
            out[pos] = counts
            pos += 1
        i, j = table.sources[pick], table.targets[pick]
        counts[i] -= 1
        counts[j] += 1
        z[i, j] += 1
    out[pos:] = counts
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
    if D < 1:
        raise ModelError("time resolution D must be at least 1")
    counts, stops, out = _start(model, N, init, t_end, at)
    table = model._rate_table
    n = model.n_states
    n_slots = int(math.floor(t_end * D + 1e-9))
    z = np.zeros((n, n), dtype=np.int64)
    pos = 0
    slot = 0
    while slot < n_slots:
        c = counts.tolist()
        m = [x / N for x in c]
        q = table.evaluate(N, m)
        table.check(q, m, occupied=True)
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


def _simulate(model: ModelSpec, config: SimConfig, rng, at):
    if config.mode == "slotted":
        return simulate_slotted(
            model, config.N, config.resolution, config.init, config.t_end, rng, at
        )
    return simulate_ctmc(model, config.N, config.init, config.t_end, rng, at)


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
    streams = np.random.SeedSequence(config.seed).spawn(R)

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
    for lo in range(0, R, _CHUNK_REPS):
        part = np.zeros((grid.size, n))
        partsq = np.zeros((grid.size, n))
        for r in range(lo, min(R, lo + _CHUNK_REPS)):
            rng = np.random.default_rng(streams[r])
            try:
                counts, jump_totals = _simulate(model, config, rng, at)
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
    if not math.isfinite(lam) or lam < 0:
        raise ModelError("Poisson rate must be finite and non-negative")
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
    streams = np.random.SeedSequence(config.seed).spawn(R)
    diffs = np.zeros((R, model.n_states))
    fds = np.zeros((R, model.n_states))
    drs = np.zeros((R, model.n_states))
    for r in range(R):
        rng = np.random.default_rng(streams[r])
        occ = _simulate(model, config, rng, probe)[0] / float(config.N)
        fd = (occ[2] - occ[0]) / (w1 - w0)
        dr = drift(model, config.N, occ[1])
        fds[r] = fd
        drs[r] = dr
        diffs[r] = fd - dr
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
