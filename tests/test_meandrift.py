"""Poisson averaging: weights, mean intensities, mean drift."""

import math
import pathlib
import re
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import poisson as sp_poisson

from popdrift.errors import ModelError, NumericsError, RateError
from popdrift.meandrift import (
    _WHOLE_POINTS,
    LATTICE_POINT_CAP,
    mean_drift,
    mean_drift_field,
    poisson_mean_intensity,
    poisson_weights,
)
from popdrift import meandrift as meandrift_module, model as model_module
from popdrift.cli import main
from popdrift.model import builtin_example, load_model, sample_simplex

from oracle import rate_fns

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
    # a rate that does not split sums over the joint rectangle: 356,303,376
    # points here
    model = load_model("states = a, b\nrate a -> b : exp(-m[a]*m[b])\n")
    with pytest.raises(NumericsError, match="cap"):
        poisson_mean_intensity(model, 4e6, (0.5, 0.5), "a", "b")


def test_separable_rate_past_the_joint_lattice_cap_matches_its_closed_form():
    # the joint rectangle is past the cap, but each factor averages over
    # its own window: E[(K_a/N) q (1 - A^K_a B^K_b)] with K ~ Poisson(N m)
    # is m_a q (1 - A e^{lam_a (A-1)} e^{lam_b (B-1)})
    doc = "states = a, b\nrate a -> b : 0.5*(1 - pow(1 - 1e-7, N*m[a])*pow(1 - 2e-7, N*m[b]))\n"
    model = load_model(doc)
    N, m, q, A, B = 4e6, (0.5, 0.5), 0.5, 1 - 1e-7, 1 - 2e-7
    assert rectangle_points(N, m) > LATTICE_POINT_CAP
    want = m[0] * q * (1 - A * math.exp(N * m[0] * (A - 1)) * math.exp(N * m[1] * (B - 1)))
    assert want == pytest.approx(0.11279710468391893, rel=1e-15)
    got = poisson_mean_intensity(model, N, m, "a", "b")
    assert got == pytest.approx(want, rel=1e-9)


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


def test_poisson_weights_refuse_non_finite_rates():
    for lam in (math.nan, math.inf):
        with pytest.raises(ModelError, match="finite"):
            poisson_weights(lam, 1e-10)


@pytest.mark.parametrize(
    "N, m, words",
    [
        (0.0, (0.5, 0.5), "population size"),
        (math.inf, (0.5, 0.5), "population size"),
        (math.nan, (0.5, 0.5), "population size"),
        (10, (1.0,), "1 entries"),
    ],
)
def test_mean_drift_refuses_bad_input_before_any_window(N, m, words):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelError, match=words):
            mean_drift(builtin_example(), N, m)


@pytest.mark.parametrize("tau", [1.5, 5.0, 1.0, 0.0, -1e-3, math.nan])
def test_mean_drift_refuses_a_tolerance_outside_the_unit_interval(tau):
    # the refusal names the caller's tau, not its per-coordinate share
    model, m = builtin_example(), (0.4, 0.6)
    words = re.escape(f"tail tolerance must be in (0, 1), got {tau}")
    refusals = [
        lambda: mean_drift(model, 10, m, tau=tau),
        lambda: poisson_mean_intensity(model, 10, m, "idle", "backoff", tau=tau),
        lambda: mean_drift_field(model, 10, tau=tau),
    ]
    for refuse in refusals:
        with pytest.raises(ModelError, match=f"^{words}$"):
            refuse()


@pytest.mark.parametrize("tau", [5e-324, 1e-310])
def test_mean_drift_refuses_a_tolerance_whose_share_underflows(tau):
    # each window gets tau/(2I); a share below the smallest normal float
    # overflows log(2/share), so the refusal names the caller's tau
    model, m = builtin_example(), (0.5, 0.5)
    refusals = [
        lambda: mean_drift(model, 10, m, tau=tau),
        lambda: poisson_mean_intensity(model, 10, m, "idle", "backoff", tau=tau),
        lambda: mean_drift_field(model, 10, tau=tau),
        lambda: poisson_weights(10.0, tau),
    ]
    for refuse in refusals:
        with pytest.raises(ModelError, match=rf"^tail tolerance must be at least "
                           rf"\S+, got {re.escape(str(tau))}$"):
            refuse()
    # the smallest tau whose shares are all normal floats is taken
    assert np.all(np.isfinite(mean_drift(model, 10, m, tau=4 * sys.float_info.min)))


def test_mean_drift_takes_occupancies_off_the_simplex():
    # RK4 stage points need not sum to 1
    got = mean_drift(builtin_example(), 10, (0.7, 0.5))
    assert np.all(np.isfinite(got))


def test_bundled_mean_drift_asks_for_no_block_over_more_than_one_axis(monkeypatch):
    # every rate and group evaluation over a block goes through _batched
    shapes = []
    batched = model_module._batched

    def record(kernel, ks, N, m, shape):
        shapes.append((len(ks), shape))
        return batched(kernel, ks, N, m, shape)

    monkeypatch.setattr(model_module, "_batched", record)
    mean_drift(builtin_example(), 1000, (0.3, 0.7))
    # one block per coordinate, each group evaluated once: the idle block
    # holds the intensity weight's 1 and (1-p1/2)^k, the backoff block
    # (1-p2/2)^k
    assert [n for n, _ in shapes] == [2, 1], shapes
    assert all(sum(n > 1 for n in shape) <= 1 for _, shape in shapes), shapes


def rectangle_points(N, m):
    """Lattice points of the joint rectangle of all coordinates."""
    return math.prod(len(poisson_weights(N * x, 1e-10 / (2 * len(m))).probs) for x in m)


def spy_split_flows(monkeypatch):
    """The dicts _RateTable.split_flows returns, in call order."""
    returned = []
    split_flows = model_module._RateTable.split_flows

    def record(self, *args):
        flows = split_flows(self, *args)
        returned.append(dict(flows))
        return flows

    monkeypatch.setattr(model_module._RateTable, "split_flows", record)
    return returned


@pytest.mark.parametrize(
    "rate, flow",
    [
        # one factor reads both coordinates
        ("exp(-m[a]*m[b])", 0.31450023668315374),
        # 64 terms, past the term cap
        ("*".join(["(m[a]+m[b])"] * 6), 0.40845614008879777),
        # splits, but the interval lower bound of its terms is negative
        ("(m[a] - m[b])*(m[a] - m[b])", 0.016240399998955962),
        # splits and is certified non-negative, but its two terms cancel
        # by a factor of about 20
        ("0.5*(1 - pow(0.9999, N*m[a])*pow(0.9999, N*m[b]))", 0.019050613140226474),
    ],
)
def test_rates_summed_whole_keep_their_value(monkeypatch, rate, flow):
    model = load_model(f"states = a, b\nrate a -> b : {rate}\n")
    N, m = 1000, (0.4, 0.6)
    assert rectangle_points(N, m) > _WHOLE_POINTS
    returned = spy_split_flows(monkeypatch)
    assert mean_drift(model, N, m).tolist() == [-flow, flow]
    assert returned == [{}]


def test_like_terms_are_one_term(monkeypatch):
    # one term 0.5 m_a m_b, so the certificate holds: the intensity
    # averages to 0.5 E[(K_a/N)^2] m_b = 0.5 (m_a^2 + m_a/N) m_b
    model = load_model("states = a, b\nrate a -> b : m[a]*m[b] - m[a]*m[b]*0.5\n")
    (term,) = model._rate_table.plan[0][0]
    assert term[0] == 0.5
    returned = spy_split_flows(monkeypatch)
    N, (ma, mb) = 1000, (0.4, 0.6)
    assert rectangle_points(N, (ma, mb)) > _WHOLE_POINTS
    got = mean_drift(model, N, (ma, mb))[1]
    assert list(returned[0]) == [0]
    assert got == pytest.approx(0.5 * (ma * ma + ma / N) * mb, rel=1e-9)


def test_rate_the_certificate_refuses_keeps_its_rate_error_and_point(monkeypatch):
    # m[b] - 0.1 splits from its source, but is -0.1 at k_b = 0
    model = load_model("states = a, b\nrate a -> b : m[b] - 0.1\n")
    assert model._rate_table.plan[0][0] is not None
    N, m = 4000, (0.999, 0.001)
    assert rectangle_points(N, m) > _WHOLE_POINTS
    returned = spy_split_flows(monkeypatch)
    with pytest.raises(RateError) as err:
        mean_drift(model, N, m)
    assert returned == [{}]
    assert str(err.value) == "rate a -> b at m=(0.89525, 0.0): evaluated to -0.1"


@pytest.mark.parametrize("rate", ["min(1, 0.001/m[a])", "0.3/m[a]"])
def test_split_source_factor_singular_at_an_empty_source_gives_no_nan(
    monkeypatch, rate
):
    # each source factor times k_a/N is a constant c for k_a >= 1, so the
    # intensity averages to c P(K_a >= 1) m_b m_c; at k_a = 0 the factor
    # is 1 or inf, and the split excuses it as the rate check does
    model = load_model(f"states = a, b, c\nrate a -> b : {rate}*m[b]*m[c]\n")
    returned = spy_split_flows(monkeypatch)
    N, m = 800, (0.005, 0.5, 0.495)
    assert rectangle_points(N, m) > _WHOLE_POINTS
    assert poisson_weights(N * m[0], 1e-10 / 6).k_min == 0
    c = 0.001 if rate.startswith("min") else 0.3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = poisson_mean_intensity(model, N, m, "a", "b")
    assert list(returned[0]) == [0]
    assert got == pytest.approx(c * (1 - math.exp(-N * m[0])) * m[1] * m[2], rel=1e-9)


def test_only_rectangles_past_the_whole_points_are_split(monkeypatch):
    m = (0.3, 0.7)
    assert rectangle_points(100, m) <= _WHOLE_POINTS < rectangle_points(1000, m)
    returned = spy_split_flows(monkeypatch)
    for N in (100, 1000):
        mean_drift(builtin_example(), N, m)
    assert [sorted(flows) for flows in returned] == [[], [0, 1]]


def sliced_rectangle_flows(model, N, m, tau):
    """Every transition's Poisson-averaged intensity, summed over the
    full rectangle of all coordinate windows one k_1 slice at a time."""
    windows = [poisson_weights(N * x, tau / (2 * model.n_states)) for x in m]
    rest = list(np.meshgrid(*[w.support() / N for w in windows[1:]], indexing="ij"))
    weight = np.ones(rest[0].shape)
    for c, w in enumerate(windows[1:]):
        weight = weight * w.probs.reshape([-1 if d == c else 1 for d in range(len(rest))])
    fns = rate_fns(model._rate_table)
    flows = [0.0] * len(fns)
    for k, p in zip(windows[0].support(), windows[0].probs):
        grid = [np.full(weight.shape, k / N)] + rest
        for pos, (i, _, fn) in enumerate(fns):
            with np.errstate(all="ignore"):
                q = np.broadcast_to(fn(float(N), grid), weight.shape).copy()
            q[grid[i] == 0] = 0.0  # no intensity where the source is empty
            flows[pos] += float(np.sum(grid[i] * q * weight)) * p
    return flows


MODELS_DIR = pathlib.Path(__file__).parents[1] / "perfbench" / "models"


@pytest.mark.parametrize(
    "name, count",
    [("bundled", 20), ("contention.pop", 20), ("sir.pop", 20)],
)
def test_split_mean_drift_equals_the_full_rectangle_sum(name, count):
    if name == "bundled":
        model = builtin_example()
    else:
        model = load_model((MODELS_DIR / name).read_text(encoding="utf-8"))
    for N in (1, 2, 5, 10, 50, 200, 1000):
        for m in sample_simplex(model.n_states, count, seed=N):
            flows = sliced_rectangle_flows(model, N, m, 1e-10)
            net = np.zeros(model.n_states)
            for (i, j, _), flow in zip(rate_fns(model._rate_table), flows):
                net[i] -= flow
                net[j] += flow
            got = mean_drift(model, N, m)
            scale = sum(abs(f) for f in flows)
            assert np.allclose(got, net, rtol=0, atol=1e-12 * scale), (N, m)


def test_a_built_mean_drift_field_checks_N_and_tau_once(monkeypatch):
    field = mean_drift_field(builtin_example(), 50)
    calls = []
    for name in ("_check_population", "_check_tolerance"):
        def spy(*args, real=getattr(meandrift_module, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(meandrift_module, name, spy)
    for _ in range(10):
        field((0.5, 0.5))
    assert calls == []


# 0.79 - m[b] is negative from k_b = 40 on.  At N = 50 the windows of b
# end at 37, 38, 39 and 42 for m_b = 0.2, 0.21, 0.22 and 0.25, so the
# box of the first window, grown past 38 by half its width, reaches 40
MARGIN_DOC = "states = a, b\nrate a -> b : 0.79 - m[b]\nrate b -> a : 0.1\n"
MARGIN_WALK = [(1 - mb, mb) for mb in (0.2, 0.21, 0.22)]


def test_a_bad_point_in_a_box_margin_does_not_raise():
    model = load_model(MARGIN_DOC)
    ends = [poisson_weights(50 * mb, 1e-10 / 4).k_max for _, mb in MARGIN_WALK]
    assert ends == [37, 38, 39]
    assert 38 + (38 + 1) // 2 >= 40
    field = mean_drift_field(model, 50)
    for m in MARGIN_WALK:
        assert field(m).tolist() == mean_drift(model, 50, m).tolist()


def test_a_window_reaching_a_bad_point_seen_in_a_margin_raises_its_error():
    model = load_model(MARGIN_DOC)
    field = mean_drift_field(model, 50)
    for m in MARGIN_WALK:
        field(m)
    with pytest.raises(RateError) as uncached:
        mean_drift(model, 50, (0.75, 0.25))
    with pytest.raises(RateError) as cached:
        field((0.75, 0.25))
    text = "rate a -> b at m=(0.1, 0.8): evaluated to -0.010000000000000009"
    assert str(cached.value) == str(uncached.value) == text


def test_a_grown_box_drops_the_counts_a_travelling_window_has_left():
    grown = meandrift_module._grown
    # the benchmark's N = 1000 ODE: the window 148..356 crosses the top of
    # the box 0..354 and has left the counts below 148 - 104, then one at
    # 571..935 crosses the bottom of 573..1205 and has left those above
    # 935 + 182; the rest is widened by half its width as before
    assert grown(([0], [354], None), [148], [356]) == ([44], [512])
    assert grown(([573], [1205], None), [571], [935]) == ([298], [1117])
    # a window that spreads in place keeps the whole box
    assert grown(([10], [20], None), [5], [25]) == ([0], [35])
    # an axis the window did not cross keeps half its width past it
    assert grown(([0, 0], [100, 300], None), [90, 10], [110, 30]) == ([80, 0], [125, 40])


def test_the_benchmark_mean_drift_ode_evaluates_few_blocks(monkeypatch, capsys):
    # along the N = 1000 trajectory nearly every block is read from a box
    counts = {"blocks": 0, "windows": 0}

    def spy(name, real):
        def counted(*args):
            counts[name] += 1
            return real(*args)
        return counted

    monkeypatch.setattr(model_module, "_batched", spy("blocks", model_module._batched))
    monkeypatch.setattr(meandrift_module, "poisson_weights",
                        spy("windows", meandrift_module.poisson_weights))
    assert main(["ode", "--variant", "meandrift", "--N", "1000", "--init", "1,0",
                 "--t", "50", "--step", "0.5", "--tau", "1e-10"]) == 0
    capsys.readouterr()
    evaluations = counts["windows"] // 2
    assert evaluations == 400
    assert counts["blocks"] <= 0.05 * evaluations, counts


def test_a_field_keeps_no_box_past_the_cap():
    # the joint windows of a and b at N = 1000 hold about 65,000 points:
    # each evaluation sums them in a block it does not keep
    model = load_model("states = a, b\nrate a -> b : 0.1*exp(-m[a]*m[b])\n"
                       "rate b -> a : 0.2\n")
    walk = [(0.4 + 0.002 * i, 0.6 - 0.002 * i) for i in range(6)]
    assert rectangle_points(1000, walk[0]) > 4 * meandrift_module._BOX_POINTS
    mean_drift(model, 1000, walk[0])  # compiles the kernels
    tracemalloc.start()
    try:
        mean_drift(model, 1000, walk[0])
        _, once = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        field = mean_drift_field(model, 1000)
        for m in walk:
            field(m)
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one block is about 520 KB; a kept one would also raise the peak
    assert end - start < 128 * 1024
    assert peak - start < 1.25 * once


def test_mean_drift_equals_its_field_kernel_bit_for_bit():
    model = builtin_example()
    for N in (5, 50, 1000):
        kernel = mean_drift_field(model, N)._lists
        for m in sample_simplex(2, 5, seed=N):
            assert mean_drift(model, N, m).tolist() == kernel(m.tolist())


@pytest.mark.parametrize(
    "N, m, tau",
    [(0, (0.5, 0.5), 1e-10), (math.nan, (0.5, 0.5), 1e-10),
     (10, (0.5, 0.5), 1.5), (10, (1.0,), 1e-10), (10, (-0.5, 1.5), 1e-10)],
)
def test_mean_drift_refuses_with_its_fields_texts(N, m, tau):
    model = builtin_example()
    with pytest.raises(ModelError) as by_point:
        mean_drift(model, N, m, tau=tau)
    with pytest.raises(ModelError) as by_field:
        mean_drift_field(model, N, tau=tau)(m)
    assert str(by_point.value) == str(by_field.value)


def test_poisson_weights_refuse_a_window_past_the_cap_before_allocating_it():
    start = time.perf_counter()
    with pytest.raises(NumericsError, match=re.escape(
        "Poisson window at rate 5e+19 needs 100210363733 candidate counts "
        f"(cap {LATTICE_POINT_CAP})"
    )):
        poisson_weights(5e19, 2.5e-11)
    assert time.perf_counter() - start < 0.5
