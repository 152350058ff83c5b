"""Fixed-step integration of occupancy fields."""

import math
import pathlib
from unittest import mock

import numpy as np
import pytest

from popdrift.drift import VectorField, drift, drift_field, limit_field
from popdrift.errors import ModelError, NumericsError
from popdrift.meandrift import mean_drift_field
from popdrift.model import builtin_example, check_occupancy, load_model
from popdrift import odesolve
from popdrift.odesolve import Trajectory, _rk4, _step_boundaries, integrate, solve

MODELS_DIR = pathlib.Path(__file__).parents[1] / "perfbench" / "models"

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


def reference_integrate(field, phi0, t_end, step=None, sample_times=None):
    """The RK4 loop on numpy arrays that ``integrate`` replaced, kept to
    compare against: ``integrate`` must give the same bits."""
    y = check_occupancy(phi0).copy()
    h = step if step is not None else min(0.1, t_end / 1000.0)
    bounds, record = _step_boundaries(t_end, h, sample_times)

    record_idx = 0
    times = []
    states = []

    def maybe_record(t):
        nonlocal record_idx
        while record_idx < len(record) and record[record_idx] <= t + 1e-12 * max(1.0, t_end):
            times.append(float(record[record_idx]))
            states.append(y.copy())
            record_idx += 1

    def at_stage(point):
        if point.min() < 0.0:
            np.maximum(point, 0.0, out=point)
        return np.asarray(field(point), dtype=float)

    maybe_record(0.0)
    for idx in range(len(bounds) - 1):
        t0, t1 = bounds[idx], bounds[idx + 1]
        dt = t1 - t0
        k1 = np.asarray(field(y), dtype=float)
        k2 = at_stage(y + 0.5 * dt * k1)
        k3 = at_stage(y + 0.5 * dt * k2)
        k4 = at_stage(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.all(np.isfinite(y)) and float(y.min()) >= -1e-9
        np.clip(y, 0.0, None, out=y)
        y /= y.sum()
        maybe_record(t1)
    return Trajectory(
        times=np.array(times), states=np.array(states), kind=field.kind,
        N=field.N, step=h,
    )


def _pop_model(name):
    return load_model((MODELS_DIR / name).read_text(encoding="utf-8"))


def _nine_states():
    # a ring of 9 states: numpy sums 8 or more values pairwise
    names = [f"s{i}" for i in range(9)]
    doc = f"states = {', '.join(names)}\n" + "".join(
        f"rate {a} -> {b} : 0.3 + m[{b}]\n" for a, b in zip(names, names[1:] + names[:1])
    )
    return drift_field(load_model(doc), 10), [1.0] + [0.0] * 8


def _stage_clip():
    # stiff at step 0.05: stage points put component 0 below zero
    def fn(m):
        return np.array([2.0 * m[1] - 60.0 * m[0], 60.0 * m[0] - 2.0 * m[1]])

    return VectorField(kind="drift", N=1, fn=fn), (0.05, 0.95)


def _stage_clip_table():
    # the same field from a rate table, stepped by its generated step form
    model = load_model("states = a, b\nrate a -> b : 60\nrate b -> a : 2\n")
    return drift_field(model, 1), (0.05, 0.95)


def _nested_calls():
    # pow, min and max calls nested and repeated: the step form takes the
    # five pow calls whose arguments hold no pow in one array call
    model = load_model(
        "states = a, b, c\nparam p = 0.3\n"
        "rate a -> b : pow(min(m[a], 0.5), max(N*m[b], 1)) + exp(pow(0.9, N*m[a]))\n"
        "rate b -> c : pow(m[b], 2)*min(m[c], p) + pow(0.8, N*m[c])*pow(min(m[a], 0.5), 3)\n"
        "rate c -> a : max(m[a], 0.2)*ln(1 + m[c])/m[b] + max(pow(0.7, N*m[c]), m[b])\n"
    )
    return drift_field(model, 10), (0.5, 0.3, 0.2)


def _pow_around_a_repeat():
    # a repeated subtree is an argument of a grouped pow, and another
    # holds one: each local is written before the lines that read it
    model = load_model(
        "states = a, b\n"
        "rate a -> b : pow(0.9, N*max(m[a], 0.1)) + pow(0.9, N*pow(0.8, N*m[b]))\n"
        "rate b -> a : N*max(m[a], 0.1) + N*pow(0.8, N*m[b])\n"
    )
    return drift_field(model, 3), (0.6, 0.4)


def _pow_on_a_shortcut(scale, base, exponent, phi0):
    # two grouped pow calls, the first of whose exponents N*m[a] (or its
    # negative) is a shortcut exponent at the first stage point, where at
    # these bases the array call differs from the scalar call in the last
    # bit.  The power-of-two scale carries that bit into the recorded
    # steps; later steps contract it away, so only a run that records
    # every step sees it
    model = load_model(
        "states = a, b\n"
        f"rate a -> b : {scale}*pow({base!r}, {exponent})*pow(0.5, N*m[b])\n"
        "rate b -> a : 1\n"
    )
    return lambda: (drift_field(model, 2), phi0)


# at step 0.05 the first step of 'a' at rate 40 lands just below 0, by
# about 2.5e-10, and every later one on 0.0: the post-step clip's cases
_DRAIN_TABLE = "states = a, b\nrate a -> b : 40.00000002\nrate b -> a : 0\n"


ODE_CASES = {
    "bundled drift N=50": lambda: (drift_field(builtin_example(), 50), (1.0, 0.0)),
    "bundled declared limit": lambda: (limit_field(builtin_example()), (1.0, 0.0)),
    "sirs drift": lambda: (drift_field(_pop_model("sir.pop"), 100), (0.9, 0.1, 0.0)),
    "sirs mean drift": lambda: (
        mean_drift_field(_pop_model("sir.pop"), 100), (0.9, 0.1, 0.0)
    ),
    "contention drift": lambda: (
        drift_field(_pop_model("contention.pop"), 40), (1.0, 0.0, 0.0)
    ),
    "contention numeric limit": lambda: (
        limit_field(_pop_model("contention.pop"), mode="numeric"), (1.0, 0.0, 0.0)
    ),
    "caller-built field": lambda: (
        VectorField(kind="drift", N=3, fn=lambda m: np.array([m[1] - 0.3 * m[0] ** 2,
                                                              0.3 * m[0] ** 2 - m[1]])),
        (0.2, 0.8),
    ),
    "drain": lambda: (
        VectorField(kind="drift", N=1, fn=lambda m: np.array([-1e-11, 1e-11]) / 0.01),
        (0.0, 1.0),
    ),
    "nine states": _nine_states,
    "stage point clipped": _stage_clip,
    "stage point clipped, rate table": _stage_clip_table,
    "nested calls": _nested_calls,
    "pow around a repeated subtree": _pow_around_a_repeat,
    "grouped pow at exponent 2": _pow_on_a_shortcut(
        32, 0.8132702392002724, "N*m[a]", (1.0, 0.0)
    ),
    "grouped pow at exponent 0.5": _pow_on_a_shortcut(
        32, 0.2831706320984486, "N*m[a]", (0.25, 0.75)
    ),
    "grouped pow at exponent -1": _pow_on_a_shortcut(
        8, 0.15929919095284928, "-N*m[a]", (0.5, 0.5)
    ),
    "step lands below 0, rate table": lambda: (
        drift_field(load_model(_DRAIN_TABLE), 1), (0.5, 0.5)
    ),
    # on plain floats m[b]/m[a] raises ZeroDivisionError at the empty
    # source, and the step is taken again on numpy scalars
    "empty source divides by zero": lambda: (
        drift_field(load_model("states = a, b\nrate a -> b : m[b]/m[a]\n"
                               "rate b -> a : 1\n"), 10),
        (0.0, 1.0),
    ),
    # the rate is inf at the empty source, where the check excuses it
    "empty source rate excused": lambda: (
        drift_field(load_model("states = a, b\nrate a -> b : m[b]*pow(m[a], -0.5)\n"
                               "rate b -> a : 1\n"), 10),
        (0.0, 1.0),
    ),
}


@pytest.mark.parametrize("case", sorted(ODE_CASES))
@pytest.mark.parametrize("sample_times", [None, [0.37, 1.5]])
def test_integrate_matches_the_numpy_reference(case, sample_times):
    field, phi0 = ODE_CASES[case]()
    got = integrate(field, phi0, 2.0, step=0.05, sample_times=sample_times)
    want = reference_integrate(field, phi0, 2.0, step=0.05, sample_times=sample_times)
    assert got.times.tobytes() == want.times.tobytes()
    assert got.states.tobytes() == want.states.tobytes()
    assert (got.kind, got.N, got.step) == (want.kind, want.N, want.step)
    if case.startswith("stage point clipped"):
        seen = []
        spy = VectorField(field.kind, field.N, lambda m: seen.append(m[0]) or field(m))
        reference_integrate(spy, phi0, 2.0, step=0.05, sample_times=sample_times)
        assert 0.0 in seen


def _spied(field):
    """field with its list kernel and its step form counted."""
    calls = {"lists": 0, "step": 0}

    def lists(m):
        calls["lists"] += 1
        return field._lists(m)

    def start(y):
        step = field._step(y)

        def counted(y, dt):
            calls["step"] += 1
            return step(y, dt)

        return counted

    return VectorField(field.kind, field.N, field.fn, lists, start), calls


def test_the_drift_and_declared_limit_take_the_step_form_on_every_step():
    model = builtin_example()
    for field in (drift_field(model, 50), limit_field(model)):
        spy, calls = _spied(field)
        traj = integrate(spy, (1.0, 0.0), 10.0, step=0.1)
        assert len(traj.times) == 101
        assert calls == {"lists": 0, "step": 100}
        assert traj.states.tobytes() == integrate(field, (1.0, 0.0), 10.0,
                                                  step=0.1).states.tobytes()
    # at the empty source only the first step falls back, on the list kernel
    for case in ("empty source divides by zero", "empty source rate excused"):
        spy, calls = _spied(ODE_CASES[case]()[0])
        integrate(spy, (0.0, 1.0), 10.0, step=0.1)
        assert calls == {"lists": 4, "step": 100}


def _clips_its_steps(field, phi0, k, t_end, step):
    """The first step's end has component k in [-1e-9, 0); the step form
    takes every step, sets k to 0.0 and keeps the reference's bits."""
    with np.errstate(all="ignore"):
        assert -1e-9 <= min(_rk4(field._lists, list(phi0), step)) < 0.0
    steps = round(t_end / step)
    spy, calls = _spied(field)
    traj = integrate(spy, phi0, t_end, step=step)
    assert calls == {"lists": 0, "step": steps}
    assert traj.states[1:, k].tolist() == [0.0] * steps
    assert traj.states.tobytes() == reference_integrate(field, phi0, t_end,
                                                        step=step).states.tobytes()


def test_the_step_form_clips_and_renormalizes_its_own_steps():
    _clips_its_steps(ODE_CASES["step lands below 0, rate table"]()[0], (0.5, 0.5), 0, 2.0, 0.05)


def test_a_shipped_model_takes_a_step_that_ends_just_below_0():
    # the SIRS drift at a step past RK4's stable range drives a trace of
    # infected to about -1.25e-11
    field = drift_field(_pop_model("sir.pop"), 100)
    _clips_its_steps(field, (0.0, 1e-10, 1.0 - 1e-10), 1, 30.0, 3.0)


def test_the_step_form_reads_the_post_step_rule_from_odesolve(monkeypatch):
    # one owner: below a tighter slack the first step's end, about
    # -2.5e-10, is refused by the generated step and by _settle alike
    monkeypatch.setattr(odesolve, "_SIMPLEX_SLACK", 1e-12)
    spy, calls = _spied(ODE_CASES["step lands below 0, rate table"]()[0])
    with pytest.raises(NumericsError, match="left the simplex at t=0.05"):
        integrate(spy, (0.5, 0.5), 2.0, step=0.05)
    assert calls == {"lists": 4, "step": 1}


@pytest.mark.parametrize("doc, phi0, words", [
    # stage points clipped, the step ends at a = 0.5*(1 - 4/2)
    ("states = a, b\nrate a -> b : 80\nrate b -> a : 0\n", (0.5, 0.5),
     "integration left the simplex at t=0.05: component -0.5"),
    # finite flows whose RK4 sum k1 + 2*k2 + 2*k3 + k4 overflows
    ("states = a, b\nrate a -> b : 1e308\nrate b -> a : 0\n", (1.0, 0.0),
     "integration produced a non-finite state at t=0.05"),
])
def test_a_step_the_step_form_refuses_raises_the_list_paths_error(doc, phi0, words):
    field = drift_field(load_model(doc), 1)
    bare = VectorField(field.kind, field.N, field.fn)
    for each in (field, bare):
        with pytest.raises(NumericsError) as err:
            integrate(each, phi0, 2.0, step=0.05)
        assert str(err.value) == words
    spy, calls = _spied(field)
    with pytest.raises(NumericsError, match=words):
        integrate(spy, phi0, 2.0, step=0.05)
    assert calls == {"lists": 4, "step": 1}


def test_a_field_given_as_fn_never_takes_the_step_form():
    model = builtin_example()
    field = drift_field(model, 50)
    evals = []
    bare = VectorField(field.kind, field.N, lambda m: evals.append(1) or field(m))
    traj = integrate(bare, (1.0, 0.0), 10.0, step=0.1)
    assert len(evals) == 4 * 100
    assert "_fused_step" not in vars(model._rate_table)
    assert traj.states.tobytes() == integrate(field, (1.0, 0.0), 10.0,
                                              step=0.1).states.tobytes()


@pytest.mark.parametrize("phi0", [(0.2, 0.3, 0.5), (1.0,)])
def test_the_step_form_fields_refuse_a_point_of_another_length(phi0):
    model = builtin_example()
    text = f"occupancy has {len(phi0)} entries, model has 2 states"
    for field in (drift_field(model, 50), limit_field(model)):
        with pytest.raises(ModelError, match=text):
            integrate(field, phi0, 1.0)
    for variant in ("drift", "limit"):
        with pytest.raises(ModelError, match=text):
            solve(model, variant, 50, phi0, 1.0)


def test_integrate_refuses_a_field_value_of_another_length():
    short = VectorField(kind="drift", N=1, fn=lambda m: np.array([0.5]))
    with pytest.raises(NumericsError, match=r"shape \(1,\), the state has 2 entries"):
        integrate(short, (0.5, 0.5), 1.0)


@pytest.mark.parametrize("times", [[math.nan], [0.5, math.inf], [[0.1, 0.2]], 0.5])
def test_trajectory_sample_refuses_what_sample_times_refuse(times):
    traj = solve(builtin_example(), "drift", 10, (1.0, 0.0), 1.0)
    with pytest.raises(ModelError, match="sample times must be"):
        traj.sample(times)


def test_a_built_in_field_integration_holds_numpy_error_state_once():
    # the drift, the numeric limit (fourteen drift points per value on
    # contention) and a rate retried on numpy scalars at an empty source
    # enter np.errstate once per integration, not once per field value
    real = np.errstate
    entered = []

    def counted(**kwargs):
        entered.append(kwargs)
        return real(**kwargs)

    contention = load_model((MODELS_DIR / "contention.pop").read_text())
    retried = load_model("states = a, b\nrate a -> b : m[b]/m[a]\nrate b -> a : 1\n")
    cases = [
        (builtin_example(), "drift", 50, (1.0, 0.0)),
        (contention, "limit", None, (1.0, 0.0, 0.0)),
        (retried, "drift", 10, (0.0, 1.0)),
    ]
    for model, variant, N, phi0 in cases:
        solve(model, variant, N, phi0, 1.0)  # builds the kernels
        with mock.patch.object(np, "errstate", counted):
            held = solve(model, variant, N, phi0, 10.0, step=0.1)
        assert len(held.times) == 101
        assert entered == [{"all": "ignore"}]
        entered.clear()
        # the same field stepped through its fn, guarded per point
        field = (limit_field(model, "numeric") if variant == "limit"
                 else drift_field(model, N))
        bare = VectorField(kind=field.kind, N=field.N, fn=field.fn)
        assert integrate(bare, phi0, 10.0, step=0.1).states.tobytes() == held.states.tobytes()


def test_a_field_given_as_fn_runs_under_the_callers_error_state():
    def diverging(m):
        return np.array([1.0, -1.0]) / np.zeros(2)

    field = VectorField(kind="drift", N=1, fn=diverging)
    # warnings are errors in this suite: the fn's warning is not silenced
    with pytest.raises(RuntimeWarning, match="divide by zero"):
        integrate(field, (0.5, 0.5), 1.0)
    with np.errstate(divide="raise"):
        with pytest.raises(FloatingPointError, match="divide by zero"):
            integrate(field, (0.5, 0.5), 1.0)
    with np.errstate(divide="ignore"):
        with pytest.raises(NumericsError, match="non-finite state"):
            integrate(field, (0.5, 0.5), 1.0)
