"""Drift fields: intensities, zero-sum, limits, binomial cross-check."""

import math

import numpy as np
import pytest

from popdrift.drift import (
    drift,
    drift_field,
    intensity,
    limit_drift,
    limit_field,
)
from popdrift.errors import ModelError, NumericsError
from popdrift.model import builtin_example, load_model, sample_simplex
from popdrift.odesolve import solve

from oracle import rate_fns, rates_at

P1, P2 = 0.008, 0.05


def quiet_prob(n1, n2):
    return (1 - P1 / 2) ** n1 * (1 - P2 / 2) ** n2


def test_drift_matches_hand_computation():
    model = builtin_example()
    g = quiet_prob(5.0, 5.0)
    lam = P1 * (1 - g)
    mu = P2 * g
    f1 = -0.5 * lam + 0.5 * mu
    got = drift(model, 10, (0.5, 0.5))
    assert got[0] == pytest.approx(f1, rel=1e-13)
    assert got[1] == pytest.approx(-f1, rel=1e-13)
    assert f1 == pytest.approx(2.1045e-2, abs=1e-6)


FULL_DOC = """
states = a, b, c
rate a -> b : 0.3 + m[c]/7
rate a -> c : exp(-m[a])/3
rate b -> a : 0.1*pow(1 - m[b]/2, N*m[a])
rate b -> c : 1/(1 + 3*m[c])
rate c -> a : 0.7
rate c -> b : ln(1 + m[b]) + m[a]/11
"""


def test_drift_sums_each_flow_in_table_order():
    # each state gets four flows, so a sum in another order would round
    # differently at some of these points
    model = load_model(FULL_DOC)
    table = model._rate_table
    for m in sample_simplex(3, 200, seed=5).tolist():
        q = rates_at(table, 30.0, m)
        want = [0.0, 0.0, 0.0]
        for (i, j, _), value in zip(rate_fns(table), q):
            want[i] -= m[i] * value
            want[j] += m[i] * value
        assert drift(model, 30.0, m).tobytes() == np.array(want).tobytes()


def test_drift_components_sum_to_zero():
    model = builtin_example()
    for k, m in enumerate(sample_simplex(2, 50, seed=11)):
        for N in (1, 4, 37, 1000):
            vec = drift(model, N, m)
            assert abs(float(vec.sum())) <= 1e-12, (k, N)


def test_drift_zero_sum_three_states():
    doc = (
        "states = a, b, c\n"
        "param r = 0.3\n"
        "rate a -> b : r*m[b]\n"
        "rate b -> c : r + m[a]\n"
        "rate c -> a : exp(m[c])-1\n"
    )
    model = load_model(doc)
    for m in sample_simplex(3, 50, seed=2):
        vec = drift(model, 12, m)
        assert abs(float(vec.sum())) <= 1e-12


def test_intensity_zero_at_empty_state_even_if_rate_singular():
    model = load_model("states = a, b\nrate a -> b : 1/m[a]\n")
    assert intensity(model, 5, (0.0, 1.0), "a", "b") == 0.0
    # and the drift likewise skips the empty state
    vec = drift(model, 5, (0.0, 1.0))
    assert np.array_equal(vec, np.zeros(2))


def test_intensity_rejects_self_pairs_and_unknown_states():
    model = builtin_example()
    with pytest.raises(ModelError, match="distinct state pairs"):
        intensity(model, 10, (0.5, 0.5), "idle", "idle")
    with pytest.raises(ModelError, match="unknown state"):
        intensity(model, 10, (0.5, 0.5), "idle", "busy")


def test_intensity_is_occupancy_times_rate():
    model = builtin_example()
    m = (0.25, 0.75)
    lam = P1 * (1 - quiet_prob(2.5, 7.5))
    assert intensity(model, 10, m, "idle", "backoff") == pytest.approx(
        0.25 * lam, rel=1e-13
    )


def test_limit_drift_declared():
    model = builtin_example()
    for m in sample_simplex(2, 20, seed=3):
        got = limit_drift(model, m)
        want = np.array([-P1 * m[0], P1 * m[0]])
        assert np.allclose(got, want, atol=1e-15)


def test_limit_drift_numeric_agrees_with_declared():
    model = builtin_example()
    for m in sample_simplex(2, 100, seed=4):
        got = limit_drift(model, m, mode="numeric")
        want = np.array([-P1 * m[0], P1 * m[0]])
        assert np.max(np.abs(got - want)) <= 1e-8


def test_limit_drift_numeric_reports_nonconvergence():
    # rate N*m[a] diverges with N, so the doubling scheme cannot stall
    model = load_model("states = a, b\nrate a -> b : N\n")
    with pytest.raises(NumericsError, match="did not stabilize"):
        limit_drift(model, (0.5, 0.5), mode="numeric")


def test_limit_field_requires_declared_rates():
    model = load_model("states = a, b\nrate a -> b : 1\n")
    with pytest.raises(ModelError, match="no limit"):
        limit_field(model)
    field = limit_field(model, mode="numeric")
    assert np.allclose(field((0.5, 0.5)), [-0.5, 0.5])


def test_field_metadata():
    model = builtin_example()
    f = drift_field(model, 25)
    assert f.kind == "drift" and f.N == 25
    lf = limit_field(model)
    assert lf.kind == "limit" and lf.N is None
    m = (0.5, 0.5)
    assert np.array_equal(f(m), drift(model, 25, m))


def binomial_expected_rates(n, N):
    """Brute-force oracle: rates as expectations over independent
    per-agent transmission attempts, enumerated exactly."""
    n1, n2 = int(n[0]), int(n[1])
    lam = 0.0
    mu = 0.0
    for x1 in range(n1 + 1):
        w1 = math.comb(n1, x1) * P1**x1 * (1 - P1) ** (n1 - x1)
        for x2 in range(n2 + 1):
            w2 = math.comb(n2, x2) * P2**x2 * (1 - P2) ** (n2 - x2)
            silent = 0.5 ** (x1 + x2)
            lam += w1 * w2 * P1 * (1 - silent)
            mu += w1 * w2 * P2 * silent
    return lam, mu


def test_drift_matches_binomial_enumeration_on_lattice():
    model = builtin_example()
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(50):
        N = int(rng.integers(1, 13))
        n1 = int(rng.integers(0, N + 1))
        n = np.array([n1, N - n1])
        m = n / N
        lam, mu = binomial_expected_rates(n, N)
        want = np.array([-m[0] * lam + m[1] * mu, m[0] * lam - m[1] * mu])
        got = drift(model, N, m)
        assert np.max(np.abs(got - want)) <= 1e-12, (N, n1)
        checked += 1
    assert checked == 50


def test_drift_refuses_an_occupancy_of_the_wrong_length():
    with pytest.raises(ModelError, match="1 entries"):
        drift(builtin_example(), 10, (1.0,))


@pytest.mark.parametrize("N", [0, -5, math.inf, math.nan])
def test_drift_refuses_a_population_size_that_is_not_positive_and_finite(N):
    model = builtin_example()
    calls = (
        lambda: drift(model, N, (0.5, 0.5)),
        lambda: intensity(model, N, (0.5, 0.5), "idle", "backoff"),
        lambda: drift_field(model, N),
        lambda: solve(model, "drift", N, (0.5, 0.5), 1.0),
    )
    for call in calls:
        with pytest.raises(ModelError, match="population size N must be positive and finite"):
            call()


def test_point_functions_equal_their_field_kernels_bit_for_bit():
    model = builtin_example()
    for m in sample_simplex(2, 20, seed=7):
        assert drift(model, 50, m).tolist() == drift_field(model, 50)._lists(m.tolist())
        for mode in ("declared", "numeric"):
            kernel = limit_field(model, mode)._lists
            assert limit_drift(model, m, mode).tolist() == kernel(m.tolist())


def test_point_functions_refuse_with_their_fields_texts():
    model = load_model("states = a, b\nrate a -> b : 1\n")  # no limit rates
    cases = [
        (lambda: drift(model, 0, (0.5, 0.5)), lambda: drift_field(model, 0)),
        (lambda: drift(model, 10, (1.0,)), lambda: drift_field(model, 10)((1.0,))),
        (lambda: limit_drift(model, (0.5, 0.5)), lambda: limit_field(model)),
        (lambda: limit_drift(model, (0.5, 0.5), mode="x"),
         lambda: limit_field(model, mode="x")),
    ]
    for point, field in cases:
        with pytest.raises(ModelError) as by_point:
            point()
        with pytest.raises(ModelError) as by_field:
            field()
        assert str(by_point.value) == str(by_field.value)
