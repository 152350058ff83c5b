"""Exact transient analysis of the lumped population chain.

With N agents and I states the process of state counts is a finite
CTMC on the lattice of count vectors summing to N.  A move s -> t from
count vector n happens at rate n_s * Q_{s,t}(n/N).  The transient law
is computed by uniformization: pi(t) = sum_k Poisson(k; Lam*t) *
pi(0) P_u^k with P_u = I + gen/Lam, truncated by tail mass and split
into time segments so each segment's Poisson rate stays moderate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping

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


def _count_vectors(n_states: int, N: int) -> Iterator[tuple[int, ...]]:
    if n_states == 1:
        yield (N,)
        return
    for first in range(N + 1):
        for rest in _count_vectors(n_states - 1, N - first):
            yield (first, *rest)


@dataclass(frozen=True)
class LumpedStateSpace:
    """All count vectors of N agents over I states, in lexicographic order."""

    N: int
    n_states: int
    states: np.ndarray
    index: Mapping[tuple[int, ...], int] = field(repr=False, compare=False)

    @property
    def size(self) -> int:
        return self.states.shape[0]

    def index_of(self, counts) -> int:
        key = tuple(int(x) for x in counts)
        try:
            return self.index[key]
        except KeyError:
            raise ModelError(f"count vector {key} not in the state space") from None


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
    states = np.array(list(_count_vectors(n_states, N)), dtype=np.int64)
    index = {tuple(int(x) for x in row): k for k, row in enumerate(states)}
    return LumpedStateSpace(N=N, n_states=n_states, states=states, index=index)


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
    arr = check_counts(counts, space.N, space.n_states)
    probs = np.zeros(space.size)
    probs[space.index_of(arr)] = 1.0
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
    rows = [np.empty(0, dtype=np.int64)]
    cols = [np.empty(0, dtype=np.int64)]
    vals = [np.empty(0)]
    for k, (i, j) in enumerate(zip(table.sources, table.targets)):
        src = np.nonzero(states[:, i] > 0)[0]
        rates = states[src, i] * q[k, src]
        live = rates > 0
        src = src[live]
        targets = states[src]
        targets[:, i] -= 1
        targets[:, j] += 1
        rows.append(src)
        cols.append(np.fromiter(
            (space.index[tuple(row)] for row in targets.tolist()),
            dtype=np.int64,
            count=len(src),
        ))
        vals.append(rates[live])
    row_idx = np.concatenate(rows)
    col_idx = np.concatenate(cols)
    data = np.concatenate(vals)
    diag = np.zeros(space.size)
    np.add.at(diag, row_idx, data)
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
    tol/segments and the result renormalized.
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
    lam = float(np.max(-gen.diagonal())) if size else 0.0
    lam += 1e-12
    if t == 0.0 or lam * t == 0.0:
        return LumpedDistribution(space=init.space, probs=pi, time=init.time + t)
    n_seg = max(1, math.ceil(lam * t / _SEGMENT_RATE_MAX))
    dt = t / n_seg
    seg_tol = tol / n_seg
    kernel = (sparse.eye(size, format="csr") + gen.multiply(1.0 / lam)).tocsr()
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
                v = v @ kernel
        total = float(acc.sum())
        if total <= 0:
            raise NumericsError("uniformization lost all probability mass")
        pi = acc / total
    return LumpedDistribution(space=init.space, probs=pi, time=init.time + t)


def expected_occupancy(dist: LumpedDistribution) -> np.ndarray:
    """Mean occupancy vector under an exact distribution."""
    return dist.probs @ (dist.space.states / dist.space.N)
