"""Exact transient analysis of the lumped population chain.

With N agents and I states the process of state counts is a finite
CTMC on the lattice of count vectors summing to N.  A move s -> t from
count vector n happens at rate n_s * Q_{s,t}(n/N).  Count vectors are
ranked by arithmetic (combinatorial number system), not looked up.  The
transient law is computed by uniformization: pi(t) = sum_k Poisson(k;
Lam*t) * pi(0) P_u^k with P_u = I + gen/Lam (kept transposed for CSR
products), truncated by tail mass and split into time segments so each
segment's Poisson rate stays moderate; each segment checks its mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ModelError, NumericsError
from .meandrift import poisson_weights
from .model import ModelSpec, check_counts

__all__ = [
    "LumpedStateSpace",
    "LumpedDistribution",
    "enumerate_states",
    "generator",
    "point_mass",
    "transient",
    "expected_occupancy",
    "STATE_SPACE_CAP",
]

STATE_SPACE_CAP = 10**6

# Poisson terms per uniformization segment stay near lam_SEGMENT_MAX;
# the hard cap below is a safety net the splitting makes unreachable
_SEGMENT_RATE_MAX = 1e4
_TERM_CAP = 10**9
_MASS_ULPS = 16 * np.finfo(float).eps  # mass rounding per kernel product


@dataclass(frozen=True)
class LumpedStateSpace:
    """All count vectors of N agents over I states, in lexicographic order."""

    N: int
    n_states: int
    states: np.ndarray

    @property
    def size(self) -> int:
        return self.states.shape[0]

    def rank(self, counts) -> np.ndarray:
        """Lexicographic positions of the count vectors in the rows of counts.

        Knuth, TAOCP 7.2.1.3: coordinate c, with M agents left before it,
        skips C(M+p, p) - C(M-n_c+p, p) vectors, p = I-1-c.  Rows outside
        the space get meaningless ranks; index_of checks its input.
        """
        binom = np.ones((self.n_states, self.N + 1), dtype=np.int64)
        for p in range(1, self.n_states):
            binom[p] = np.cumsum(binom[p - 1])  # binom[p, m] = C(m+p, p)
        head = np.asarray(counts, dtype=np.int64)[..., :-1]
        after = self.N - np.cumsum(head, axis=-1)
        p = np.arange(self.n_states - 1, 0, -1)
        return (binom[p, after + head] - binom[p, after]).sum(axis=-1)

    def index_of(self, counts) -> int:
        return int(self.rank(check_counts(counts, self.N, self.n_states)))


def enumerate_states(n_states: int, N: int, cap: int = STATE_SPACE_CAP) -> LumpedStateSpace:
    """Enumerate the count-vector lattice for N agents over I states.

    Errors when the stars-and-bars size C(N+I-1, I-1) exceeds the cap.
    """
    if n_states < 1 or N < 0:
        raise ModelError("need n_states >= 1 and N >= 0")
    size = math.comb(N + n_states - 1, n_states - 1)
    if size > cap:
        raise ModelError(
            f"state space needs {size} count vectors, above the cap {cap}"
        )
    # each step appends a coordinate: a prefix with r agents left
    # expands into r + 1 rows that take 0..r of them
    states = np.zeros((1, 0), dtype=np.int64)
    left = np.array([N], dtype=np.int64)
    for _ in range(n_states - 1):
        reps = left + 1
        value = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        states = np.column_stack([np.repeat(states, reps, axis=0), value])
        left = np.repeat(left, reps) - value
    states = np.column_stack([states, left])
    return LumpedStateSpace(N=N, n_states=n_states, states=states)


@dataclass(frozen=True)
class LumpedDistribution:
    """Probability vector over a LumpedStateSpace at a time point."""

    space: LumpedStateSpace
    probs: np.ndarray
    time: float

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != (self.space.size,):
            raise ModelError(
                f"distribution has {probs.shape} entries for "
                f"{self.space.size} states"
            )
        if np.any(probs < 0) or not np.all(np.isfinite(probs)):
            raise ModelError("probabilities must be finite and non-negative")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise ModelError(
                f"probabilities must sum to 1, got {float(probs.sum())!r}"
            )
        object.__setattr__(self, "probs", probs)


def point_mass(space: LumpedStateSpace, counts, time: float = 0.0) -> LumpedDistribution:
    """Distribution concentrated on one count vector."""
    probs = np.zeros(space.size)
    probs[space.index_of(counts)] = 1.0
    return LumpedDistribution(space=space, probs=probs, time=time)


def generator(model: ModelSpec, space: LumpedStateSpace) -> sparse.csr_matrix:
    """Sparse generator of the count-vector chain.

    Off-diagonal entry (n, n - e_s + e_t) is n_s * Q_{s,t}(n/N); the
    diagonal is minus the row sum.
    """
    if model.n_states != space.n_states:
        raise ModelError(
            f"model has {model.n_states} states, space {space.n_states}"
        )
    N = space.N
    states = space.states
    table = model._rate_table
    # max(N, 1): at N = 0 the only count vector is all zeros
    coords = [states[:, c] / max(N, 1) for c in range(space.n_states)]
    q = table.evaluate(float(N), coords, (space.size,))
    table.check(q, coords, occupied=True)
    sources = np.asarray(table.sources, dtype=np.int64)
    dests = np.asarray(table.targets, dtype=np.int64)
    occ = states[:, sources].T
    # a rate may be singular where its source is empty; that entry is 0
    rates = occ * np.where(occ > 0, q, 0.0)
    # transition-major order: bincount adds each row's rates in q's order
    k, row_idx = np.nonzero(rates > 0)
    data = rates[k, row_idx]
    e = np.eye(space.n_states, dtype=np.int64)
    col_idx = space.rank(states[row_idx] - e[sources[k]] + e[dests[k]])
    diag = np.bincount(row_idx, weights=data, minlength=space.size)
    all_rows = np.concatenate([row_idx, np.arange(space.size)])
    all_cols = np.concatenate([col_idx, np.arange(space.size)])
    all_data = np.concatenate([data, -diag])
    gen = sparse.csr_matrix(
        (all_data, (all_rows, all_cols)), shape=(space.size, space.size)
    )
    gen.sum_duplicates()
    gen.eliminate_zeros()
    return gen


def transient(
    gen: sparse.csr_matrix,
    init: LumpedDistribution,
    t: float,
    tol: float = 1e-12,
) -> LumpedDistribution:
    """Transient distribution after time t by uniformization.

    The horizon is split into segments with Lam*dt <= 1e4; within each
    segment the Poisson-weighted power series is truncated to tail mass
    tol/segments and renormalized, after checking that it kept the
    Poisson mass it summed up to rounding (gen rows must sum to zero).
    """
    if t < 0:
        raise ModelError(f"time must be non-negative, got {t}")
    if not 0 < tol < 1:
        raise ModelError(f"tolerance must be in (0, 1), got {tol}")
    size = init.space.size
    if gen.shape != (size, size):
        raise ModelError(
            f"generator shape {gen.shape} does not match {size} states"
        )
    pi = init.probs.copy()
    lam = float(np.max(-gen.diagonal())) + 1e-12
    if t == 0.0 or lam * t == 0.0:
        return LumpedDistribution(space=init.space, probs=pi, time=init.time + t)
    n_seg = max(1, math.ceil(lam * t / _SEGMENT_RATE_MAX))
    dt = t / n_seg
    seg_tol = tol / n_seg
    kernel_t = (sparse.eye(size, format="csr") + gen.multiply(1.0 / lam)).T.tocsr()
    for _ in range(n_seg):
        w = poisson_weights(lam * dt, seg_tol)
        if w.k_max > _TERM_CAP:
            raise NumericsError(
                f"uniformization needs {w.k_max} terms; split the horizon"
            )
        acc = np.zeros(size)
        v = pi
        for k in range(w.k_max + 1):
            if k >= w.k_min:
                acc += w.probs[k - w.k_min] * v
            if k < w.k_max:
                v = kernel_t @ v
        total = float(acc.sum())
        want = (1.0 - w.tail) * float(pi.sum())
        if not abs(total - want) <= _MASS_ULPS * (w.k_max + 1):
            raise NumericsError(f"uniformization kept mass {total!r}, not {want!r}")
        pi = acc / total
    return LumpedDistribution(space=init.space, probs=pi, time=init.time + t)


def expected_occupancy(dist: LumpedDistribution) -> np.ndarray:
    """Mean occupancy vector under an exact distribution."""
    return dist.probs @ (dist.space.states / dist.space.N)
