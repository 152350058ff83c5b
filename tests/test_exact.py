"""Lumped-chain enumeration, generator assembly, uniformization."""

import math
from unittest import mock

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm

from popdrift import exact
from popdrift.errors import ModelError, NumericsError, RateError
from popdrift.exact import (
    LumpedDistribution,
    LumpedStateSpace,
    enumerate_states,
    expected_occupancy,
    generator,
    point_mass,
    transient,
)
from popdrift.meandrift import poisson_weights
from popdrift.model import builtin_example, load_model

from oracle import rate_fns

CONTENTION_DOC = """states = idle, backoff, send
param a = 0.05
param b = 0.2
param c = 0.5
rate idle -> send : a*pow(1-a/2, N*m[idle])
rate idle -> backoff : a*(1 - pow(1-a/2, N*m[idle]))
rate backoff -> idle : b*pow(1-c/2, N*m[send])
rate send -> idle : c
"""
FOUR_STATE_DOC = """states = a, b, c, d
rate a -> b : 1 + m[c]
rate a -> d : 0.2*m[d]
rate b -> a : min(1, m[b] + 0.1)
rate b -> c : 0.5*m[a] + 0.3
rate c -> d : exp(-m[d])
rate d -> a : 0.7
"""

P1, P2 = 0.008, 0.05
LAM1 = P1 * (1 - (1 - P1 / 2))  # single idle agent, nobody else around
MU1 = P2 * (1 - P2 / 2)  # single backoff agent


def two_state_transient(t):
    """Analytic P(backoff) for the N=1 chain started idle."""
    rho = LAM1 + MU1
    return (LAM1 / rho) * (1.0 - math.exp(-rho * t))


def test_enumerate_small_spaces():
    space = enumerate_states(2, 3)
    assert space.states.tolist() == [[0, 3], [1, 2], [2, 1], [3, 0]]
    assert space.size == 4
    assert enumerate_states(3, 2).size == 6
    assert enumerate_states(2, 1600).size == 1601


def test_enumeration_is_lexicographic_complete_and_unique():
    for n_states, N in ((2, 7), (3, 5), (4, 4)):
        space = enumerate_states(n_states, N)
        assert space.size == math.comb(N + n_states - 1, n_states - 1)
        rows = [tuple(r) for r in space.states.tolist()]
        assert rows == sorted(set(rows))
        assert all(sum(r) == N for r in rows)
        for k, r in enumerate(rows):
            assert space.index_of(r) == k


@pytest.mark.parametrize(
    "counts",
    [(1, 1, 1), (3,), (-1, 4), (4, -1), (1, 1), (2, 2)],
    ids=["long", "short", "negative-first", "negative-last", "sum-low", "sum-high"],
)
def test_index_of_rejects_vectors_outside_the_space(counts):
    with pytest.raises(ModelError):
        enumerate_states(2, 3).index_of(counts)


def test_enumerate_cap():
    with pytest.raises(ModelError, match="cap"):
        enumerate_states(3, 2000)


@pytest.mark.parametrize("N", [2.5, 3.0])
def test_enumerate_refuses_a_population_size_that_is_not_an_integer(N):
    with pytest.raises(ModelError, match=f"N must be an integer, got {N}"):
        enumerate_states(2, N)


def test_enumerate_takes_a_numpy_integer():
    space = enumerate_states(2, np.int64(3))
    assert space.states.tolist() == enumerate_states(2, 3).states.tolist()


def test_enumerate_refuses_a_state_count_that_is_not_an_integer():
    with pytest.raises(ModelError, match="n_states must be an integer, got 2.5"):
        enumerate_states(2.5, 3)
    space = enumerate_states(np.int64(3), 3)
    assert space.states.tolist() == enumerate_states(3, 3).states.tolist()


def test_generator_n1_example_rates():
    model = builtin_example()
    space = enumerate_states(2, 1)
    gen = generator(model, space).toarray()
    i_backoff = space.index_of((0, 1))
    i_idle = space.index_of((1, 0))
    assert gen[i_idle, i_backoff] == pytest.approx(LAM1, rel=1e-12)
    assert gen[i_backoff, i_idle] == pytest.approx(MU1, rel=1e-12)
    assert gen[i_idle, i_idle] == pytest.approx(-LAM1, rel=1e-12)
    assert gen[i_backoff, i_backoff] == pytest.approx(-MU1, rel=1e-12)
    assert LAM1 == pytest.approx(3.2e-5, abs=1e-12)
    assert MU1 == pytest.approx(0.04875, abs=1e-12)


def dense_generator(model, space):
    """Reference generator: one state at a time, targets found by dict."""
    index = {tuple(row): k for k, row in enumerate(space.states.tolist())}
    gen = np.zeros((space.size, space.size))
    for k, counts in enumerate(space.states.tolist()):
        m = [c / space.N for c in counts]
        for s, t, fn in rate_fns(model._rate_table):
            if counts[s] == 0:
                continue
            target = list(counts)
            target[s] -= 1
            target[t] += 1
            rate = counts[s] * fn(float(space.N), m)
            gen[k, index[tuple(target)]] += rate
            gen[k, k] -= rate
    return gen


@pytest.mark.parametrize("doc, N", [(CONTENTION_DOC, 8), (FOUR_STATE_DOC, 5)])
def test_generator_matches_state_by_state_assembly(doc, N):
    model = load_model(doc)
    space = enumerate_states(model.n_states, N)
    want = dense_generator(model, space)
    assert np.array_equal(generator(model, space).toarray(), want)


def test_generator_zero_model():
    model = load_model("states = a, b\nrate a -> b : 0\n")
    gen = generator(model, enumerate_states(2, 4))
    assert gen.nnz == 0


def test_generator_row_sums_vanish():
    model = builtin_example()
    space = enumerate_states(2, 30)
    gen = generator(model, space)
    residual = np.abs(gen @ np.ones(space.size))
    assert residual.max() <= 1e-16


def test_generator_skips_empty_source_states():
    # the rate is singular at m_a = 0, but no transition leaves a
    # state with zero count, so assembly succeeds
    model = load_model("states = a, b\nrate a -> b : min(1, 0.01/m[a])\n")
    space = enumerate_states(2, 5)
    gen = generator(model, space)
    assert np.all(np.isfinite(gen.toarray()))


def test_generator_propagates_bad_rates():
    model = load_model("states = a, b\nrate a -> b : m[a]-1\n")
    with pytest.raises(RateError):
        generator(model, enumerate_states(2, 3))


def test_projected_kernel_is_identity_plus_active_rows_over_lam():
    gen = generator(load_model(CONTENTION_DOC), enumerate_states(3, 6))
    exit_rates = -gen.diagonal()
    active = np.flatnonzero(exit_rates <= np.median(exit_rates))
    lam = float(exit_rates[active].max())
    kernel_t, sinks = exact._projected_kernel(gen, active, lam)
    dense = gen.toarray()
    # the sinks are every state outside the active set an active row reaches
    outside = np.setdiff1d(np.arange(gen.shape[0]), active)
    reached = [s for s in outside if dense[active, s].any()]
    assert len(reached) > 0 and sinks.tolist() == reached
    # I + G_SS/lam on the active rows, identity rows for the sinks
    order = np.concatenate([active, sinks])
    want = np.eye(len(order))
    want[: len(active)] += dense[np.ix_(active, order)] / lam
    assert np.allclose(kernel_t.toarray().T, want, rtol=0.0, atol=1e-15)


def test_direct_products_equal_scipy_matmul_bit_for_bit():
    # _poisson_sum calls scipy's private csr_matvec; hold it to the
    # public kernel_t @ v, so a change of that signature shows here
    gen = generator(load_model(CONTENTION_DOC), enumerate_states(3, 30))
    exit_rates = -gen.diagonal()
    active = np.flatnonzero(exit_rates <= np.median(exit_rates))
    lam = float(exit_rates[active].max())
    kernel_t, _ = exact._projected_kernel(gen, active, lam)
    v = np.random.default_rng(3).random(kernel_t.shape[0])
    w = poisson_weights(60.0, 1e-12)
    assert w.k_min > 0
    want = np.zeros_like(v)
    u = v
    for k in range(w.k_max + 1):
        if k >= w.k_min:
            want += u * w.probs[k - w.k_min]
        if k < w.k_max:
            u = kernel_t @ u
    before = v.copy()
    got = exact._poisson_sum(kernel_t, v, w)
    assert got.tobytes() == want.tobytes()
    assert v.tobytes() == before.tobytes()


def test_row_source_matches_the_generator_through_redone_segments():
    # contention at N=200 redoes its one segment twice before the leak
    # fits its share
    model = load_model(CONTENTION_DOC)
    space = enumerate_states(3, 200)
    init = point_mass(space, (200, 0, 0))
    want = transient(generator(model, space), init, 20.0, tol=1e-10)
    with mock.patch.object(
        exact, "_projected_kernel", wraps=exact._projected_kernel
    ) as kernel:
        got = transient(model, init, 20.0, tol=1e-10)
    assert kernel.call_count == 3
    assert got.probs.tobytes() == want.probs.tobytes()
    assert got.error.hex() == want.error.hex()


def test_transient_ranks_only_the_rows_its_active_sets_take_in():
    model = load_model(CONTENTION_DOC)
    space = enumerate_states(3, 400)  # 80,601 count vectors
    init = point_mass(space, (400, 0, 0))
    ranked = []
    rank = LumpedStateSpace.rank

    def counting(self, counts):
        out = rank(self, counts)
        ranked.append(out.size)
        return out

    with mock.patch.object(LumpedStateSpace, "rank", counting):
        transient(model, init, 0.5, tol=1e-10)
    gen = generator(model, space)
    off_diagonal = gen.nnz - np.count_nonzero(gen.diagonal())
    assert 0 < sum(ranked) < off_diagonal / 4


def test_transient_refuses_a_model_of_another_state_count():
    space = enumerate_states(3, 4)
    with pytest.raises(ModelError, match="model has 2 states, space 3"):
        transient(builtin_example(), point_mass(space, (4, 0, 0)), 1.0)


def test_transient_zero_generator():
    model = load_model("states = a, b\nrate a -> b : 0\n")
    space = enumerate_states(2, 3)
    gen = generator(model, space)
    init = point_mass(space, (2, 1))
    out = transient(gen, init, 50.0)
    assert np.array_equal(out.probs, init.probs)
    assert out.time == 50.0


def test_transient_matches_two_state_closed_form():
    model = builtin_example()
    space = enumerate_states(2, 1)
    gen = generator(model, space)
    init = point_mass(space, (1, 0))
    for t in (1.0, 10.0, 100.0, 1000.0):
        out = transient(gen, init, t)
        want = two_state_transient(t)
        assert abs(out.probs[space.index_of((0, 1))] - want) <= 1e-9, t
    out = transient(gen, init, 1000.0)
    assert out.probs[space.index_of((0, 1))] == pytest.approx(
        6.5598e-4, abs=1e-8
    )


def test_transient_matches_dense_matrix_exponential():
    """Independent oracle: dense expm of the same generator."""
    model = builtin_example()
    space = enumerate_states(2, 6)
    gen = generator(model, space)
    init = point_mass(space, (6, 0))
    for t in (5.0, 100.0):
        want = init.probs @ expm(gen.toarray() * t)
        got = transient(gen, init, t)
        assert np.max(np.abs(got.probs - want)) <= 1e-10, t


def test_transient_segments_long_horizons():
    # rates of order 1 over a long horizon force time splitting
    model = load_model("states = a, b\nrate a -> b : 5\nrate b -> a : 3\n")
    space = enumerate_states(2, 10)
    gen = generator(model, space)
    init = point_mass(space, (10, 0))
    lam = float(np.max(-gen.diagonal()))
    t = 300.0
    assert lam * t > 1e4  # exercises more than one segment
    got = transient(gen, init, t)
    want = init.probs @ expm(gen.toarray() * t)
    assert np.max(np.abs(got.probs - want)) <= 1e-10
    assert got.probs.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("excess", [0.01, -0.01])
def test_transient_rejects_rows_that_do_not_sum_to_zero(excess):
    # hand-built N=1 chain whose rows leak or gain mass
    space = enumerate_states(2, 1)
    gen = sparse.csr_matrix([[-1.0, 1.0 + excess], [2.0, -2.0 + excess]])
    with pytest.raises(NumericsError, match="mass"):
        transient(gen, point_mass(space, (1, 0)), 1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
def test_transient_rejects_horizons_that_are_not_finite_and_non_negative(t):
    space = enumerate_states(2, 3)
    gen = generator(builtin_example(), space)
    with pytest.raises(ModelError, match="finite and non-negative"):
        transient(gen, point_mass(space, (3, 0)), t)


def test_transient_refuses_a_horizon_beyond_the_product_cap():
    space = enumerate_states(2, 5)
    gen = generator(builtin_example(), space)
    with pytest.raises(NumericsError, match="cap"):
        transient(gen, point_mass(space, (5, 0)), 1e300)


def test_transient_reports_an_error_within_tol():
    model = load_model(CONTENTION_DOC)
    space = enumerate_states(3, 40)
    gen = generator(model, space)
    init = point_mass(space, (40, 0, 0))
    assert init.error == 0.0
    for tol in (1e-12, 1e-8):
        out = transient(gen, init, 30.0, tol=tol)
        want = init.probs @ expm(gen.toarray() * 30.0)
        assert 0.0 < out.error <= tol
        assert np.abs(out.probs - want).sum() <= out.error + 1e-13


def test_transient_counts_the_leak_in_its_error():
    # one agent: a leaks slowly into the fast state b, which passes it on
    # to the absorbing c; with the cap at 200 times a's exit rate the
    # active set holds a, c and d (exit rate 0.1, so the Poisson tail is
    # far below the leak), and b is the sink that takes what a leaks,
    # about 1e-3 by t = 1
    model = load_model(
        "states = a, b, c, d\n"
        "rate a -> b : 0.001\nrate b -> c : 50\nrate d -> a : 0.1\n"
    )
    space = enumerate_states(4, 1)
    gen = generator(model, space)
    init = point_mass(space, (1, 0, 0, 0))
    with mock.patch.multiple(exact, _MIN_ACTIVE=1, _HEADROOM=199.0):
        out = transient(gen, init, 1.0, tol=1e-2)
    want = init.probs @ expm(gen.toarray())
    assert np.abs(out.probs - want).sum() == pytest.approx(2e-3, rel=0.05)
    assert np.abs(out.probs - want).sum() <= out.error <= 1e-2


def test_transient_mass_conservation_random_models():
    rng = np.random.default_rng(17)
    for _ in range(10):
        c1, c2 = rng.uniform(0.1, 2.0, size=2)
        doc = f"states = a, b\nrate a -> b : {c1}\nrate b -> a : {c2}\n"
        model = load_model(doc)
        N = int(rng.integers(1, 11))
        space = enumerate_states(2, N)
        gen = generator(model, space)
        init = point_mass(space, (N, 0))
        out = transient(gen, init, float(rng.uniform(0.1, 50.0)))
        assert abs(float(out.probs.sum()) - 1.0) <= 1e-12
        assert np.all(out.probs >= 0)


def test_transient_tolerance_refinement():
    model = builtin_example()
    space = enumerate_states(2, 12)
    gen = generator(model, space)
    init = point_mass(space, (12, 0))
    loose = transient(gen, init, 200.0, tol=1e-8)
    tight = transient(gen, init, 200.0, tol=1e-12)
    assert np.max(np.abs(loose.probs - tight.probs)) <= 1e-7


def test_expected_occupancy_point_and_mixture():
    space1 = enumerate_states(2, 1)
    assert expected_occupancy(point_mass(space1, (1, 0))).tolist() == [1.0, 0.0]

    space3 = enumerate_states(2, 3)
    probs = np.zeros(space3.size)
    probs[space3.index_of((0, 3))] = 0.5
    probs[space3.index_of((3, 0))] = 0.5
    mix = LumpedDistribution(space=space3, probs=probs, time=0.0)
    assert np.allclose(expected_occupancy(mix), [0.5, 0.5])


def test_expected_occupancy_refuses_an_empty_population():
    space = enumerate_states(2, 0)
    out = transient(generator(builtin_example(), space), point_mass(space, (0, 0)), 1.0)
    with pytest.raises(ModelError, match="undefined at N=0"):
        expected_occupancy(out)


def test_rank_builds_its_binomial_table_once_per_space():
    space = enumerate_states(3, 5)
    space.rank(space.states)
    table = space._binom
    space.rank(space.states)
    assert space._binom is table
    assert not table.flags.writeable


def test_expected_occupancy_n1_long_run():
    model = builtin_example()
    space = enumerate_states(2, 1)
    gen = generator(model, space)
    out = transient(gen, point_mass(space, (1, 0)), 1000.0)
    occ = expected_occupancy(out)
    assert occ[1] == pytest.approx(6.5598e-4, abs=1e-8)
    assert occ[0] == pytest.approx(1 - 6.5598e-4, abs=1e-8)


def test_distribution_validation():
    space = enumerate_states(2, 2)
    with pytest.raises(ModelError, match="sum to 1"):
        LumpedDistribution(space=space, probs=np.array([0.5, 0.2, 0.2]), time=0.0)
    with pytest.raises(ModelError, match="non-negative"):
        LumpedDistribution(space=space, probs=np.array([1.5, -0.5, 0.0]), time=0.0)
    with pytest.raises(ModelError, match="sum to N"):
        point_mass(space, (5, 5))
    with pytest.raises(ModelError, match="error bound"):
        LumpedDistribution(space=space, probs=np.array([1.0, 0.0, 0.0]), time=0.0,
                           error=math.nan)
