"""Exact transient analysis of the lumped population chain.

With N agents and I states the process of state counts is a finite
CTMC on the lattice of count vectors summing to N.  A move s -> t from
count vector n happens at rate n_s * Q_{s,t}(n/N).  Count vectors are
ranked by arithmetic (combinatorial number system), not looked up.

The transient law is computed by uniformization on a projected active
set (a finite state projection, Munsky & Khammash 2006), one time
segment at a time.  Each segment drops the smallest probabilities
within its share of the tolerance, takes as active set S every state
whose full exit rate is at most a cap a little above the largest exit
rate among the states it kept, and sums pi P_S^k with Poisson weights
at Lam_S*dt, where P_S = I + G_SS/Lam_S and Lam_S is the largest exit
rate over S (adaptive uniformization, van Moorsel & Sanders 1994).  The
states one step outside S absorb what leaves it, so the mass that leaks
is counted; a segment whose leak exceeds its share is redone with a
higher cap, raised toward the states the leak went to, and the raised
cap carries into the next segment.  The dropped mass, the leaks and the
Poisson tails add up to the error the result reports.

Given the model, transient reads its generator from a row source: the
rates and exit rates of every state, evaluated once, and the columns
of a state's row, the ranks of its neighbours, computed only when an
active set first takes that state in.  Each segment's kernel is built
from those rows alone; generator is the same rows over every state as
one CSR matrix.  Kernel products call scipy's csr_matvec, the routine
behind its sparse @, into reused buffers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ModelError, NumericsError
from .meandrift import poisson_weights
from .model import ModelSpec, _check_integer, check_counts

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

# a segment spans about this many uniformized jumps at Lam_S: longer
# segments need a higher cap, shorter ones pay the Poisson window's
# width (about sqrt(2*jumps*ln(2/tau)) extra products) more often
_SEGMENT_JUMPS = 800
# spaces of at most this many states are not projected: below it a
# kernel product costs its call overhead, so a smaller set saves nothing
_MIN_ACTIVE = 256
_HEADROOM = 0.5  # first cap: the kept states' largest exit rate times 1.5
_TERM_CAP = 10**9  # products a horizon may need at the full exit rate
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

    @cached_property
    def _binom(self) -> np.ndarray:
        """binom[p, m] = C(m+p, p) for p < I and m <= N, built once per space."""
        binom = np.ones((self.n_states, self.N + 1), dtype=np.int64)
        for p in range(1, self.n_states):
            binom[p] = np.cumsum(binom[p - 1])
        binom.flags.writeable = False
        return binom

    def rank(self, counts) -> np.ndarray:
        """Lexicographic positions of the count vectors in the rows of counts.

        Knuth, TAOCP 7.2.1.3: coordinate c, with M agents left before it,
        skips C(M+p, p) - C(M-n_c+p, p) vectors, p = I-1-c.  Rows outside
        the space get meaningless ranks; index_of checks its input.
        """
        binom = self._binom
        head = np.asarray(counts, dtype=np.int64)[..., :-1]
        after = self.N - np.cumsum(head, axis=-1)
        p = np.arange(self.n_states - 1, 0, -1)
        return (binom[p, after + head] - binom[p, after]).sum(axis=-1)

    def index_of(self, counts) -> int:
        return int(self.rank(check_counts(counts, self.N, self.n_states)))


def enumerate_states(n_states: int, N: int) -> LumpedStateSpace:
    """Enumerate the count-vector lattice for N agents over I states.

    Errors when the stars-and-bars size C(N+I-1, I-1) exceeds
    STATE_SPACE_CAP.
    """
    _check_integer("n_states", n_states)
    _check_integer("N", N)
    if n_states < 1 or N < 0:
        raise ModelError("need n_states >= 1 and N >= 0")
    size = math.comb(N + n_states - 1, n_states - 1)
    if size > STATE_SPACE_CAP:
        raise ModelError(
            f"state space needs {size} count vectors, above the cap {STATE_SPACE_CAP}"
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
    """Probability vector over a LumpedStateSpace at a time point.

    error bounds the L1 distance of probs to the exact law (0 for a law
    given exactly, such as a point mass).
    """

    space: LumpedStateSpace
    probs: np.ndarray
    time: float
    error: float = 0.0

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
        if not self.error >= 0:  # also rejects NaN
            raise ModelError(f"error bound must be non-negative, got {self.error!r}")
        object.__setattr__(self, "probs", probs)


def point_mass(space: LumpedStateSpace, counts, time: float = 0.0) -> LumpedDistribution:
    """Distribution concentrated on one count vector."""
    probs = np.zeros(space.size)
    probs[space.index_of(counts)] = 1.0
    return LumpedDistribution(space=space, probs=probs, time=time)


class _Rows:
    """Generator rows of one model over one space, ranked on demand.

    The rates n_s * Q_{s,t}(n/N) and the exit rates cover the whole
    space, since the exit-rate cap reads every state.  The column of a
    rate, the rank of the neighbour n - e_s + e_t, is computed only when
    an active set first takes its state in, and kept for every later
    segment and redone attempt.
    """

    def __init__(self, model: ModelSpec, space: LumpedStateSpace):
        if model.n_states != space.n_states:
            raise ModelError(
                f"model has {model.n_states} states, space {space.n_states}"
            )
        N = space.N
        states = space.states
        table = model._rate_table
        # max(N, 1): at N = 0 the only count vector is all zeros
        coords = [states[:, c] / max(N, 1) for c in range(space.n_states)]
        q = table.rates(float(N), coords, (space.size,), occupied=True)
        sources = np.asarray(table.sources, dtype=np.int64)
        dests = np.asarray(table.targets, dtype=np.int64)
        self.space = space
        self.rates = states[:, sources].T * q  # row k: transition k's rates
        # each state's rates added in transition order, starting from 0.0
        self.exit_rates = np.zeros(space.size)
        for rates in self.rates:
            self.exit_rates += rates
        e = np.eye(space.n_states, dtype=np.int64)
        self._moves = e[dests] - e[sources]
        self._cols = np.zeros(self.rates.shape, dtype=np.int64)
        self._ranked = np.zeros(space.size, dtype=bool)

    def entries(self, active: np.ndarray):
        """COO entries (position in active, column, value) of the active
        rows: the positive rates in transition-major order, then the
        diagonal."""
        k, pos = np.nonzero(self.rates[:, active] > 0)
        at = active[pos]
        new = ~self._ranked[at]
        if new.any():
            k_new, at_new = k[new], at[new]
            self._cols[k_new, at_new] = self.space.rank(
                self.space.states[at_new] + self._moves[k_new]
            )
            self._ranked[active] = True
        return (
            np.concatenate([pos, np.arange(len(active))]),
            np.concatenate([self._cols[k, at], active]),
            np.concatenate([self.rates[k, at], -self.exit_rates[active]]),
        )


class _MatrixRows:
    """A row source over a CSR generator that the caller built."""

    def __init__(self, gen: sparse.csr_matrix):
        self.exit_rates = -gen.diagonal()
        self._gen = gen

    def entries(self, active: np.ndarray):
        rows = self._gen[active].tocoo()  # rows.row: position in active
        return rows.row, rows.col, rows.data


def generator(model: ModelSpec, space: LumpedStateSpace) -> sparse.csr_matrix:
    """Sparse generator of the count-vector chain.

    Off-diagonal entry (n, n - e_s + e_t) is n_s * Q_{s,t}(n/N); the
    diagonal is minus the row sum.
    """
    from scipy import sparse  # loaded by the first generator, not at import

    pos, cols, data = _Rows(model, space).entries(np.arange(space.size))
    gen = sparse.csr_matrix((data, (pos, cols)), shape=(space.size, space.size))
    gen.sum_duplicates()
    gen.eliminate_zeros()
    return gen


def _projected_kernel(rows, active: np.ndarray, lam: float):
    """Transposed kernel I + G_SS/lam on the active states, plus sinks.

    rows is a row source, _Rows or _MatrixRows.  Rows and columns are the
    active states in order, then every state outside them that an
    active row reaches; those sinks keep what flows into them (identity
    rows), so the kernel conserves mass.  Returns the CSR kernel and
    the sinks' state indices.
    """
    from scipy import sparse

    pos, cols, data = rows.entries(active)
    n_active = len(active)
    local = np.full(len(rows.exit_rates), -1, dtype=np.int64)
    local[active] = np.arange(n_active)
    sinks = np.unique(cols[local[cols] < 0])
    size = n_active + len(sinks)
    local[sinks] = np.arange(n_active, size)
    diag = np.arange(size)
    kernel_t = sparse.csr_matrix(
        (
            np.concatenate([data * (1.0 / lam), np.ones(size)]),
            (np.concatenate([local[cols], diag]), np.concatenate([pos, diag])),
        ),
        shape=(size, size),
    )
    return kernel_t, sinks


def _poisson_sum(kernel_t: sparse.csr_matrix, v: np.ndarray, w) -> np.ndarray:
    """sum_k w_k v P^k over the window of w: k_max kernel products.

    Each product is scipy's csr_matvec, the routine behind kernel_t @ v,
    called directly into a reused buffer; it adds A v to that buffer.
    """
    from scipy.sparse._sparsetools import csr_matvec

    n = len(v)
    k_min, k_max, probs = w.k_min, w.k_max, w.probs
    acc = np.zeros_like(v)
    buf = np.empty_like(v)
    v = v.copy()
    nxt = np.empty_like(v)
    for k in range(k_max + 1):
        if k >= k_min:
            np.multiply(v, probs[k - k_min], out=buf)
            acc += buf
        if k < k_max:
            nxt.fill(0.0)
            csr_matvec(n, n, kernel_t.indptr, kernel_t.indices, kernel_t.data, v, nxt)
            v, nxt = nxt, v
    return acc


def transient(
    gen: ModelSpec | sparse.csr_matrix,
    init: LumpedDistribution,
    t: float,
    tol: float = 1e-12,
) -> LumpedDistribution:
    """Transient distribution after time t by projected uniformization.

    gen is the model, or a CSR generator over init.space.  Given the
    model, transient evaluates its rates and exit rates over the whole
    space once, but builds generator rows, and ranks their neighbours,
    only for the states its active sets take in; the result is the same
    to the bit as from generator(model, init.space), which builds every
    row first.

    Each segment first drops the smallest probabilities, as many as fit
    in the dropped mass's share of tol accrued so far.  Its active set S
    holds every state whose full exit rate -G_ii is at most a cap, which
    starts at 1.5 times the largest exit rate among the kept states; a
    space of at most _MIN_ACTIVE states is active as a whole.  The
    segment uniformizes at Lam_S, the largest exit rate over S, for
    about _SEGMENT_JUMPS jumps, truncating the Poisson series to tail
    mass within its share.  The states one step outside S absorb
    what leaves it: when that leak exceeds its share, the cap rises at
    least to the exit rate of the state that took most of it and the
    segment is redone; a raised cap carries over, and eases off after a
    segment that leaked under a thousandth of its share.

    Dropped mass, leaks and tails each get tol/6 spread evenly over the
    horizon, and each only removes probability, so their sum bounds the
    L1 distance before the final renormalization, which at most doubles
    it.  The result's error is init.error plus twice that sum, at most
    tol above init.error; rounding, which each segment's mass check
    holds to 16 ulps per product (gen rows must sum to zero), is not in
    it.  A tol that leaves a segment a tail share below the smallest
    normal float is refused.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ModelError(f"time must be finite and non-negative, got {t}")
    if not 0 < tol < 1:
        raise ModelError(f"tolerance must be in (0, 1), got {tol}")
    size = init.space.size
    if isinstance(gen, ModelSpec):
        rows = _Rows(gen, init.space)
    elif gen.shape != (size, size):
        raise ModelError(f"generator shape {gen.shape} does not match {size} states")
    else:
        rows = _MatrixRows(gen)
    pi = init.probs.copy()
    exit_rates = rows.exit_rates
    lam_max = float(exit_rates.max())
    if lam_max * t == 0.0:
        return LumpedDistribution(
            space=init.space, probs=pi, time=init.time + t, error=init.error
        )
    if lam_max * t > _TERM_CAP:
        raise NumericsError(
            f"uniformization at rate {lam_max:g} over t={t:g} needs about "
            f"{lam_max * t:.3g} products, above the cap {_TERM_CAP:.0e}"
        )
    # a space this small is active as a whole
    floor = lam_max if size <= _MIN_ACTIVE else 0.0
    share = tol / 6.0 / t  # per unit time, for each of drop, leak, tail
    dropped = leaked = tails = 0.0
    headroom = _HEADROOM
    done = 0.0
    while done < t:
        support = np.flatnonzero(pi)
        order = support[np.argsort(pi[support], kind="stable")]
        cum = np.cumsum(pi[order])
        n_drop = int(np.searchsorted(cum, share * done - dropped, side="right"))
        if n_drop:
            dropped += float(cum[n_drop - 1])
            pi[order[:n_drop]] = 0.0
        lam_kept = float(exit_rates[order[n_drop:]].max())
        while True:
            cap = max(floor, lam_kept * (1.0 + headroom))
            active = np.flatnonzero(exit_rates <= cap)
            lam = float(exit_rates[active].max())
            if lam == 0.0:
                break
            last = lam * (t - done) <= _SEGMENT_JUMPS
            dt = t - done if last else _SEGMENT_JUMPS / lam
            kernel_t, sinks = _projected_kernel(rows, active, lam)
            tail_share = share * (done + dt) - tails
            if not tail_share >= sys.float_info.min:  # poisson_weights' bound
                raise ModelError(
                    f"tolerance {tol} is too small for t={t:g}: a segment's Poisson "
                    f"tail share falls below {sys.float_info.min:g}"
                )
            w = poisson_weights(lam * dt, tail_share)
            v = np.zeros(kernel_t.shape[0])
            v[: len(active)] = pi[active]
            mass = float(v.sum())
            acc = _poisson_sum(kernel_t, v, w)
            total = float(acc.sum())
            want = (1.0 - w.tail) * mass
            if not abs(total - want) <= _MASS_ULPS * (w.k_max + 1):
                raise NumericsError(
                    f"uniformization kept mass {total!r}, not {want!r}"
                )
            outflow = acc[len(active):]
            leak = float(outflow.sum())
            allowed = share * (done + dt) - leaked
            if leak <= allowed:
                break
            # grow toward the leak: take in at least the state that got most
            target = float(exit_rates[sinks[np.argmax(outflow)]])
            headroom = max(2.0 * headroom, target / lam_kept - 1.0)
        if lam == 0.0:  # nothing the kept mass can reach moves
            break
        leaked += leak
        tails += w.tail * mass
        if leak <= 1e-3 * allowed:
            headroom *= 0.75
        pi = np.zeros(size)
        pi[active] = acc[: len(active)]
        done = t if last else done + dt
    pi /= pi.sum()
    return LumpedDistribution(
        space=init.space,
        probs=pi,
        time=init.time + t,
        error=init.error + 2.0 * (dropped + leaked + tails),
    )


def expected_occupancy(dist: LumpedDistribution) -> np.ndarray:
    """Mean occupancy vector under an exact distribution."""
    if dist.space.N == 0:
        raise ModelError("occupancy is undefined at N=0: the space holds no agents")
    return dist.probs @ (dist.space.states / dist.space.N)
