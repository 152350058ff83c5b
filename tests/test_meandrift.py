"""Poisson averaging: weights, mean intensities, mean drift."""

import math

import numpy as np
import pytest
from scipy.stats import poisson as sp_poisson

from popdrift.errors import ModelError, NumericsError, RateError
from popdrift.meandrift import (
    LATTICE_POINT_CAP,
    mean_drift,
    mean_drift_field,
    poisson_mean_intensity,
    poisson_weights,
)
from popdrift.model import builtin_example, load_model, sample_simplex

P1, P2 = 0.008, 0.05


def gf_mean_intensities(N, m1, m2):
    """Closed forms via the Poisson generating function E[a^K] =
    e^{lam(a-1)} and E[K a^K] = lam a e^{lam(a-1)}, derived by hand."""
    damp = math.exp(-N * (m1 * P1 / 2 + m2 * P2 / 2))
    fwd = P1 * m1 - P1 * m1 * (1 - P1 / 2) * damp
    back = P2 * m2 * (1 - P2 / 2) * damp
    return fwd, back


def test_poisson_weights_point_mass_at_zero_rate():
    w = poisson_weights(0.0, 1e-12)
    assert w.k_min == 0
    assert w.probs.tolist() == [1.0]
    assert w.tail == 0.0


@pytest.mark.parametrize("lam", [0.0, -0.0])
@pytest.mark.parametrize("tau", [0.5, 1e-3, 1e-10, 2.5e-11, 1e-15, 1e-300])
def test_poisson_weights_zero_rate_window_at_every_tolerance(lam, tau):
    w = poisson_weights(lam, tau)
    assert (w.k_min, w.probs.tolist(), w.tail) == (0, [1.0], 0.0)


def test_poisson_weights_unit_rate():
    w = poisson_weights(1.0, 1e-12)
    assert w.k_min == 0
    assert w.probs[0] == pytest.approx(math.exp(-1), rel=1e-14)
    assert w.probs.sum() >= 1 - 1e-12


def test_poisson_weights_window_is_tight():
    w = poisson_weights(8.0, 1e-12)
    assert w.probs.sum() >= 1 - 1e-12
    assert w.k_max <= 8 + 12 * math.sqrt(8) + 20
    assert w.k_min >= 0


def test_poisson_weights_match_reference_pmf():
    for lam in (0.3, 1.0, 8.0, 123.4, 1e4):
        w = poisson_weights(lam, 1e-12)
        want = sp_poisson.pmf(w.support(), lam)
        assert np.allclose(w.probs, want, rtol=1e-10, atol=0.0), lam
        assert w.probs.sum() >= 1 - 1e-12
        assert np.all(w.probs >= 0)


def test_poisson_weights_rejects_bad_inputs():
    with pytest.raises(ModelError):
        poisson_weights(-1.0, 1e-10)
    with pytest.raises(ModelError):
        poisson_weights(1.0, 0.0)
    with pytest.raises(ModelError):
        poisson_weights(1.0, 1.5)


def test_constant_intensity_is_fixed_point():
    model = load_model("states = a, b\nparam c = 0.37\nrate a -> b : c\n")
    for m_a in (0.0, 0.25, 1.0):
        m = (m_a, 1 - m_a)
        got = poisson_mean_intensity(model, 20, m, "a", "b")
        assert got == pytest.approx(0.37 * m_a, abs=1e-10)


def test_cross_coordinate_linear_intensity_is_fixed_point():
    model = load_model("states = a, b\nrate a -> b : m[b]\n")
    for m_a in (0.2, 0.7):
        m = (m_a, 1 - m_a)
        got = poisson_mean_intensity(model, 15, m, "a", "b")
        assert got == pytest.approx(m_a * (1 - m_a), abs=1e-10)


def test_mean_intensity_matches_generating_function_closed_form():
    model = builtin_example()
    for N in (1, 10, 50, 400):
        for m1 in (1.0, 0.6, 0.05):
            m = (m1, 1 - m1)
            fwd, back = gf_mean_intensities(N, m[0], m[1])
            got_f = poisson_mean_intensity(model, N, m, "idle", "backoff")
            got_b = poisson_mean_intensity(model, N, m, "backoff", "idle")
            assert got_f == pytest.approx(fwd, abs=2e-11), (N, m)
            assert got_b == pytest.approx(back, abs=2e-11), (N, m)


def test_mean_intensity_corner_value():
    # N=10, m=(1,0): p1 - p1 (1-p1/2) e^{-N p1/2} = 3.4443e-4, the
    # deficit below p1 being 7.6556e-3
    model = builtin_example()
    got = poisson_mean_intensity(model, 10, (1.0, 0.0), "idle", "backoff")
    assert got == pytest.approx(3.4443e-4, abs=1e-8)
    deficit = 0.008 * (1 - 0.008 / 2) * math.exp(-10 * 0.008 / 2)
    assert deficit == pytest.approx(7.6556e-3, abs=1e-7)
    assert got == pytest.approx(0.008 - deficit, abs=1e-11)
    assert got == pytest.approx(gf_mean_intensities(10, 1.0, 0.0)[0], abs=1e-11)


def test_mean_intensity_against_direct_truncated_sum():
    """Independent oracle: direct double sum with scipy pmf values."""
    model = builtin_example()
    for N, m1 in ((4, 0.5), (10, 0.3), (25, 0.9)):
        m2 = 1 - m1
        lam1, lam2 = N * m1, N * m2
        K1 = int(lam1 + 40 * math.sqrt(lam1 + 1) + 60)
        K2 = int(lam2 + 40 * math.sqrt(lam2 + 1) + 60)
        k1 = np.arange(K1 + 1)
        k2 = np.arange(K2 + 1)
        w1 = sp_poisson.pmf(k1, lam1)
        w2 = sp_poisson.pmf(k2, lam2)
        quiet = np.outer(
            (1 - P1 / 2) ** k1, (1 - P2 / 2) ** k2
        )
        q_fwd = P1 * (1 - quiet)
        w = np.outer(w1, w2)
        want_fwd = float(np.sum((k1[:, None] / N) * q_fwd * w))
        got_fwd = poisson_mean_intensity(
            model, N, (m1, m2), "idle", "backoff", tau=1e-12
        )
        assert got_fwd == pytest.approx(want_fwd, abs=1e-12), (N, m1)
        q_back = P2 * quiet
        want_back = float(np.sum((k2[None, :] / N) * q_back * w))
        got_back = poisson_mean_intensity(
            model, N, (m1, m2), "backoff", "idle", tau=1e-12
        )
        assert got_back == pytest.approx(want_back, abs=1e-12), (N, m1)


def test_mean_intensity_undeclared_pair_is_zero():
    model = load_model("states = a, b\nrate a -> b : 1\n")
    assert poisson_mean_intensity(model, 5, (0.5, 0.5), "b", "a") == 0.0


def test_mean_intensity_skips_singular_empty_state_points():
    # rate blows up as m[a] -> 0 but the k_a = 0 lattice face carries
    # zero intensity, so averaging still works
    model = load_model("states = a, b\nrate a -> b : min(1, 0.001/m[a])\n")
    got = poisson_mean_intensity(model, 8, (0.5, 0.5), "a", "b")
    assert math.isfinite(got) and got > 0


def test_mean_intensity_lattice_cap():
    model = builtin_example()
    with pytest.raises(NumericsError, match="cap"):
        poisson_mean_intensity(model, 4e6, (0.5, 0.5), "idle", "backoff")


def test_mean_drift_zero_sum():
    model = builtin_example()
    for m in sample_simplex(2, 25, seed=8):
        vec = mean_drift(model, 30, m)
        assert abs(float(vec.sum())) <= 1e-10


def test_mean_drift_zero_rates():
    model = load_model("states = a, b\nrate a -> b : 0\n")
    assert np.array_equal(mean_drift(model, 10, (0.4, 0.6)), np.zeros(2))


def test_mean_drift_approaches_limit_drift():
    model = builtin_example()
    got = mean_drift(model, 1000, (0.3, 0.7))
    assert got[0] == pytest.approx(-0.0024, abs=1e-3)
    assert got[1] == pytest.approx(0.0024, abs=1e-3)

    got10 = mean_drift(model, 10, (1.0, 0.0))
    assert got10[0] == pytest.approx(-3.4443e-4, abs=1e-8)


def test_truncation_stability():
    model = builtin_example()
    for m in ((1.0, 0.0), (0.5, 0.5), (0.1, 0.9)):
        loose = mean_drift(model, 20, m, tau=1e-8)
        tight = mean_drift(model, 20, m, tau=1e-12)
        assert np.max(np.abs(loose - tight)) <= 1e-7


def test_poisson_mean_intensity_constant_rate():
    model = load_model("states = a, b\nrate a -> b : 0.2\n")
    got = poisson_mean_intensity(model, 12, (0.3, 0.7), "a", "b")
    assert got == pytest.approx(0.3 * 0.2, abs=1e-10)


def test_poisson_mean_intensity_linear_cross_coordinate():
    # independent coordinates: E[(K_a/N)(K_b/N)] = m_a * m_b
    model = load_model("states = a, b\nrate a -> b : m[b]\n")
    got = poisson_mean_intensity(model, 12, (0.3, 0.7), "a", "b")
    assert got == pytest.approx(0.3 * 0.7, abs=1e-10)


def test_poisson_mean_intensity_factorizes_over_independent_coordinates():
    # a rate reading only m[idle] on backoff -> idle averages to
    # m_backoff * sum_k Q(k/N) P(K_idle = k)
    doc = (
        "states = idle, backoff\n"
        "param p1 = 0.008\nparam p2 = 0.05\n"
        "rate backoff -> idle : p2*pow(1-p1/2, N*m[idle])\n"
    )
    model = load_model(doc)
    N = 30
    ks = np.arange(200)
    for m1 in (0.2, 0.8):
        m = (m1, 1 - m1)
        one_d = (1 - m1) * float(
            np.dot(P2 * (1 - P1 / 2) ** ks, sp_poisson.pmf(ks, N * m1))
        )
        full = poisson_mean_intensity(model, N, m, "backoff", "idle")
        assert full == pytest.approx(one_d, abs=2e-10)


def test_poisson_mean_intensity_ignores_the_other_transitions():
    # b -> a is negative everywhere: only a -> b is evaluated
    doc = "states = a, b\nrate a -> b : 0.2\nrate b -> a : -1\n"
    model = load_model(doc)
    got = poisson_mean_intensity(model, 12, (0.3, 0.7), "a", "b")
    assert got == pytest.approx(0.3 * 0.2, abs=1e-10)


def test_poisson_mean_intensity_averages_multi_coordinate_rates():
    # the bundled rate reads both coordinates; its average is the
    # two-dimensional Poisson sum
    model = builtin_example()
    N, m = 10, (0.5, 0.5)
    ks = np.arange(80)
    pmf = sp_poisson.pmf(ks, N * 0.5)
    k1, k2 = np.meshgrid(ks, ks, indexing="ij")
    q = P1 * (1 - (1 - P1 / 2) ** k1 * (1 - P2 / 2) ** k2)
    want = float(np.sum(k1 / N * q * np.outer(pmf, pmf)))
    got = poisson_mean_intensity(model, N, m, "idle", "backoff")
    assert got == pytest.approx(want, abs=1e-10)


def test_self_coordinate_average_gains_second_moment_term():
    # For rate m[a] on a -> b the average is the Poisson second moment
    # E[(K/N)^2] = m^2 + m/N, not the m^2 of factoring out m_a
    model = load_model("states = a, b\nrate a -> b : m[a]\n")
    N, m_a = 10, 0.4
    full = poisson_mean_intensity(model, N, (m_a, 1 - m_a), "a", "b")
    assert full == pytest.approx(m_a**2 + m_a / N, abs=1e-10)


def test_mean_drift_field_metadata():
    model = builtin_example()
    f = mean_drift_field(model, 17)
    assert f.kind == "mean-drift" and f.N == 17
    assert np.allclose(f((0.5, 0.5)), mean_drift(model, 17, (0.5, 0.5)))


def test_sparse_dependence_lifts_the_lattice_cap():
    # each rate reads only its source, so each transition sums over one
    # axis while the full 5-D rectangle is far past the cap
    names = ("a", "b", "c", "d", "e")
    doc = f"states = {', '.join(names)}\n" + "".join(
        f"rate {s} -> {t} : 0.5 + m[{s}]\n" for s, t in zip(names, names[1:])
    )
    model = load_model(doc)
    N, tau, m = 2000, 1e-10, np.full(5, 0.2)
    sizes = [len(poisson_weights(N * x, tau / 10).probs) for x in m]
    assert math.prod(sizes) > LATTICE_POINT_CAP
    got = mean_drift(model, N, m, tau=tau)
    # E[(K/N)(0.5 + K/N)] = 0.5 m + m^2 + m/N for K ~ Poisson(N m), up
    # to the truncated tail mass
    flow = 0.5 * 0.2 + 0.2**2 + 0.2 / N
    assert np.allclose(got, [-flow, 0.0, 0.0, 0.0, flow], rtol=0, atol=tau)


def test_mean_drift_rate_error_reports_m_on_the_unread_coordinates():
    # a -> b reads m[b] only; c is neither its source nor read
    model = load_model("states = a, b, c\nrate a -> b : m[b] - 0.1\n")
    with pytest.raises(RateError, match=r"rate a -> b at m=\(.*, 0\.5\): evaluated to -"):
        mean_drift(model, 20, (0.3, 0.2, 0.5))
