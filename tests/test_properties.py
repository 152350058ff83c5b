"""Invariants checked on small count-vector spaces and on small random
models drawn from a fixed rate pool.

Each model has two or three states and a few transitions whose rates
come from the pool below, with the occupancy coordinate they read drawn
too.  Every pool rate is finite, non-negative and at most 1.5 on the
simplex, so slotted paths at D = 10 never need a finer slot.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from popdrift.drift import drift  # noqa: E402
from popdrift.exact import enumerate_states, generator, point_mass, transient  # noqa: E402
from popdrift.meandrift import mean_drift  # noqa: E402
from popdrift.model import load_model  # noqa: E402
from popdrift.sim import simulate_ctmc, simulate_slotted  # noqa: E402

NAMES = ("a", "b", "c")

# {x} is replaced by a state name; every rate lies in [0, 1.5]
GENERAL_POOL = (
    "0.4",
    "1.5*m[{x}]",
    "0.05*(1 - pow(1 - 0.2, N*m[{x}]))",
    "exp(-2*m[{x}])",
    "min(1, m[{x}] + 0.1)",
    "0.5/(1 + m[{x}])",
    "max(0, m[{x}] - 0.3)",
    "ln(1 + m[{x}])",
)
# rates whose Poisson average equals their value: constants, and rates
# linear in a coordinate other than the source (criterion 5)
FIXED_POINT_POOL = ("0.4", "1.2", "0.7*m[{x}]", "0.2 + m[{x}]")

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@st.composite
def models(draw, pool=GENERAL_POOL, cross_only=False):
    """A model document of 2-3 states with 1-4 transitions from ``pool``."""
    n = draw(st.integers(2, 3))
    names = NAMES[:n]
    pairs = [(s, t) for s in names for t in names if s != t]
    chosen = draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=4, unique=True)
    )
    lines = [f"states = {', '.join(names)}"]
    for s, t in chosen:
        readable = [x for x in names if x != s] if cross_only else list(names)
        rate = draw(st.sampled_from(pool)).format(x=draw(st.sampled_from(readable)))
        lines.append(f"rate {s} -> {t} : {rate}")
    return load_model("\n".join(lines) + "\n")


@st.composite
def occupancies(draw, n):
    weights = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
    if sum(weights) == 0:
        weights[0] = 1
    return np.array(weights, dtype=float) / sum(weights)


def counts_of(m, N):
    counts = np.floor(m * N).astype(np.int64)
    counts[0] += N - counts.sum()
    return counts


@SETTINGS
@given(st.integers(1, 4), st.integers(0, 15))
def test_ranks_number_a_complete_lexicographic_enumeration(n_states, N):
    space = enumerate_states(n_states, N)
    assert np.array_equal(space.rank(space.states), np.arange(space.size))
    rows = [tuple(r) for r in space.states.tolist()]
    assert rows == sorted(set(rows))  # lexicographic, no repeats
    assert all(min(r) >= 0 and sum(r) == N for r in rows)
    assert len(rows) == math.comb(N + n_states - 1, n_states - 1)  # complete


@SETTINGS
@given(st.data(), models(), st.integers(1, 12))
def test_drift_and_mean_drift_sum_to_zero(data, model, N):
    m = data.draw(occupancies(model.n_states))
    assert abs(float(drift(model, N, m).sum())) <= 1e-12
    assert abs(float(mean_drift(model, N, m).sum())) <= 1e-12


@SETTINGS
@given(models(), st.integers(1, 8))
def test_generator_rows_sum_to_zero_with_nonnegative_offdiagonal(model, N):
    gen = generator(model, enumerate_states(model.n_states, N)).toarray()
    scale = max(1.0, float(np.max(np.abs(gen))))
    assert np.all(np.abs(gen.sum(axis=1)) <= 1e-12 * scale)
    off = gen - np.diag(np.diag(gen))
    assert np.all(off >= 0)


@SETTINGS
@given(models(), st.integers(1, 8), st.floats(0.0, 20.0))
def test_transient_preserves_mass(model, N, t):
    space = enumerate_states(model.n_states, N)
    init = point_mass(space, space.states[len(space.states) // 2])
    gen = generator(model, space)
    dist = transient(gen, init, t, tol=1e-12)
    assert np.all(dist.probs >= 0)
    assert math.fsum(dist.probs) == pytest.approx(1.0, abs=1e-12)
    # the renormalization inside transient must not hide lost mass
    assert np.allclose(dist.probs, init.probs @ expm(gen.toarray() * t), atol=1e-9)


@SETTINGS
@given(st.data(), models(), st.integers(1, 15), st.integers(0, 2**32 - 1))
def test_sampled_paths_conserve_population(data, model, N, seed):
    counts = counts_of(data.draw(occupancies(model.n_states)), N)
    ctmc = simulate_ctmc(model, N, counts, 5.0, np.random.default_rng(seed))
    slotted = simulate_slotted(
        model, N, 10, counts, 5.0, np.random.default_rng(seed)
    )
    for path in (ctmc, slotted):
        assert np.all(path.counts.sum(axis=1) == N)
        assert np.all(path.counts >= 0)


@SETTINGS
@given(st.data(), models(FIXED_POINT_POOL, cross_only=True), st.integers(1, 20))
def test_mean_drift_equals_drift_at_the_fixed_points(data, model, N):
    m = data.draw(occupancies(model.n_states))
    got = mean_drift(model, N, m, tau=1e-12)
    want = drift(model, N, m)
    assert np.max(np.abs(got - want)) <= 1e-9
