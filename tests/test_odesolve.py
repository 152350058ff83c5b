"""Fixed-step integration of occupancy fields."""

import math

import numpy as np
import pytest

from popdrift.drift import VectorField, drift
from popdrift.errors import ModelError, NumericsError
from popdrift.model import builtin_example, load_model
from popdrift.odesolve import integrate, solve

P1, P2 = 0.008, 0.05


def n1_rates(m2):
    """Single-agent rates of the bundled model as functions of m2."""
    quiet = (1 - P1 / 2) ** (1 - m2) * (1 - P2 / 2) ** m2
    return P1 * (1 - quiet), P2 * quiet


def drift_fixed_point_n1():
    """Bisection on the N=1 balance (1-m2)*lam(m2) = m2*mu(m2)."""
    def balance(m2):
        lam, mu = n1_rates(m2)
        return (1 - m2) * lam - m2 * mu

    lo, hi = 1e-9, 0.5
    assert balance(lo) > 0 > balance(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if balance(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_limit_solution_matches_exponential_decay():
    model = builtin_example()
    traj = solve(model, "limit", None, (1.0, 0.0), 1000.0)
    want = 1.0 - math.exp(-P1 * 1000.0)
    assert abs(traj.final[1] - want) <= 1e-6
    # uniformly on [0, 1000]
    ts = np.linspace(0.0, 1000.0, 101)
    vals = traj.sample(ts)
    assert np.max(np.abs(vals[:, 0] - np.exp(-P1 * ts))) <= 1e-6


def test_zero_field_is_constant():
    zero = VectorField(kind="drift", N=1, fn=lambda m: np.zeros(2))
    traj = integrate(zero, (0.25, 0.75), 10.0)
    assert np.allclose(traj.states, [0.25, 0.75])
    assert traj.times[0] == 0.0 and traj.times[-1] == 10.0


def test_drift_ode_n1_reaches_its_fixed_point():
    model = builtin_example()
    traj = solve(model, "drift", 1, (1.0, 0.0), 1000.0)
    root = drift_fixed_point_n1()
    assert traj.final[1] == pytest.approx(root, abs=1e-9)
    # close to, but distinct from, the N=1 lumped-chain equilibrium
    # lam/(lam+mu) with corner rates lam=3.2e-5, mu=0.04875
    lam = P1 * (1 - (1 - P1 / 2))
    mu = P2 * (1 - P2 / 2)
    assert abs(traj.final[1] - lam / (lam + mu)) <= 2e-5


def test_fixed_point_initial_condition_stays_put():
    model = builtin_example()
    root = drift_fixed_point_n1()
    phi0 = (1 - root, root)
    assert np.max(np.abs(drift(model, 1, phi0))) <= 1e-12
    traj = solve(model, "drift", 1, phi0, 50.0)
    assert np.max(np.abs(traj.states - np.asarray(phi0))) <= 1e-8


def test_simplex_preserved_at_every_sample():
    model = builtin_example()
    traj = solve(model, "drift", 20, (1.0, 0.0), 200.0)
    sums = traj.states.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) <= 1e-9
    assert np.min(traj.states) >= 0.0
    assert np.all(np.diff(traj.times) > 0)


def test_step_halving_changes_little():
    model = builtin_example()
    a = solve(model, "drift", 10, (1.0, 0.0), 100.0, step=0.2)
    b = solve(model, "drift", 10, (1.0, 0.0), 100.0, step=0.1)
    assert np.max(np.abs(a.final - b.final)) <= 1e-8


def test_sample_times_plus_endpoints_recorded():
    model = builtin_example()
    traj = solve(
        model, "drift", 5, (1.0, 0.0), 10.0, sample_times=[2.5, 7.321]
    )
    assert traj.times.tolist() == [0.0, 2.5, 7.321, 10.0]
    # interior samples agree with a full-resolution run
    dense = solve(model, "drift", 5, (1.0, 0.0), 10.0)
    assert np.allclose(
        traj.sample([7.321]), dense.sample([7.321]), atol=1e-12
    )


def test_sample_outside_span_rejected():
    zero = VectorField(kind="drift", N=1, fn=lambda m: np.zeros(2))
    traj = integrate(zero, (0.5, 0.5), 1.0)
    with pytest.raises(ModelError, match="outside"):
        traj.sample([2.0])
    with pytest.raises(ModelError, match="within"):
        integrate(zero, (0.5, 0.5), 1.0, sample_times=[5.0])


@pytest.mark.parametrize(
    "times, words",
    [([math.nan], "finite"), ([0.5, -math.inf], "finite"), ([[1.0, 2.0]], "a vector")],
)
def test_solve_refuses_sample_times_the_samplers_refuse(times, words):
    with pytest.raises(ModelError, match=f"sample times must be {words}"):
        solve(builtin_example(), "drift", 10, [1, 0], 5.0, sample_times=times)


def test_solve_takes_empty_unsorted_and_barely_late_sample_times():
    def times(sample_times):
        traj = solve(builtin_example(), "drift", 10, [1, 0], 5.0, sample_times=sample_times)
        return traj.times.tolist()

    assert times([]) == [0.0, 5.0]
    assert times([4.0, 1.0]) == [0.0, 1.0, 4.0, 5.0]
    assert times([5.0 + 1e-12]) == [0.0, 5.0]


def test_escaping_field_aborts():
    runaway = VectorField(kind="drift", N=1, fn=lambda m: np.array([-1.0, 1.0]))
    with pytest.raises(NumericsError, match="simplex"):
        integrate(runaway, (0.0, 1.0), 1.0)


def test_nonfinite_field_aborts():
    bad = VectorField(kind="drift", N=1, fn=lambda m: np.array([np.nan, 0.0]))
    with pytest.raises(NumericsError, match="non-finite"):
        integrate(bad, (0.5, 0.5), 1.0)


def test_tiny_negative_clipped_and_renormalized():
    # field pushes component 0 slightly negative each step, within the
    # clipping tolerance of the post-step projection
    drain = VectorField(
        kind="drift", N=1, fn=lambda m: np.array([-1e-11, 1e-11]) / 0.01
    )
    traj = integrate(drain, (0.0, 1.0), 0.01, step=0.01)
    assert traj.final[0] == 0.0
    assert traj.final.sum() == pytest.approx(1.0, abs=1e-15)


def test_solve_validates_arguments():
    model = builtin_example()
    with pytest.raises(ModelError, match="needs N"):
        solve(model, "drift", None, (1.0, 0.0), 1.0)
    with pytest.raises(ModelError, match="unknown variant"):
        solve(model, "nope", 1, (1.0, 0.0), 1.0)
    with pytest.raises(ModelError, match="positive"):
        solve(model, "drift", 1, (1.0, 0.0), 0.0)
    with pytest.raises(ModelError, match="sum to 1"):
        solve(model, "drift", 1, (0.9, 0.0), 1.0)


def test_solve_limit_without_declared_rates_uses_numeric_mode():
    doc = (
        "states = idle, backoff\n"
        "param p1 = 0.008\nparam p2 = 0.05\n"
        "rate idle -> backoff : p1*(1 - pow(1-p1/2, N*m[idle])"
        "*pow(1-p2/2, N*m[backoff]))\n"
        "rate backoff -> idle : p2*pow(1-p1/2, N*m[idle])"
        "*pow(1-p2/2, N*m[backoff])\n"
    )
    model = load_model(doc)
    traj = solve(model, "limit", None, (1.0, 0.0), 100.0, step=0.5)
    want = 1.0 - math.exp(-P1 * 100.0)
    assert traj.final[1] == pytest.approx(want, abs=1e-6)


def test_meandrift_variant_integrates():
    model = builtin_example()
    traj = solve(model, "meandrift", 10, (1.0, 0.0), 50.0, step=0.5)
    assert traj.kind == "mean-drift" and traj.N == 10
    assert traj.final.sum() == pytest.approx(1.0, abs=1e-9)
    assert 0 < traj.final[1] < 0.01


def test_trajectory_metadata():
    model = builtin_example()
    traj = solve(model, "drift", 7, (1.0, 0.0), 5.0)
    assert traj.kind == "drift" and traj.N == 7
    assert traj.step == pytest.approx(min(0.1, 5.0 / 1000))
