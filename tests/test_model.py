"""Model documents, rate evaluation, slot probabilities, validation."""

import ast
import importlib
import inspect
import math
import pathlib
import pkgutil
import re
from unittest import mock

import numpy as np
import pytest

import popdrift
from popdrift.drift import drift, intensity, limit_drift, limit_field
from popdrift.errors import ModelError, RateError, SlotResolutionError
from popdrift.exact import enumerate_states, generator
from popdrift.meandrift import mean_drift, mean_drift_field, poisson_mean_intensity
from popdrift.model import (
    ModelSpec,
    builtin_example,
    check_counts,
    check_occupancy,
    largest_remainder_counts,
    load_model,
    rate,
    sample_simplex,
    slot_probability,
    validate,
)
from popdrift.odesolve import solve
from popdrift.sim import SimConfig, ensemble, simulate_ctmc, simulate_slotted
from popdrift import expr as ex

from oracle import rates_at

P1, P2 = 0.008, 0.05


def poisson_free_rates(n1, n2, N=None):
    """Closed-form rates of the bundled model, computed independently."""
    quiet = (1 - P1 / 2) ** n1 * (1 - P2 / 2) ** n2
    return P1 * (1 - quiet), P2 * quiet


def test_load_builtin_document():
    model = builtin_example()
    assert model.state_names == ("idle", "backoff")
    assert model.params == {"p1": P1, "p2": P2}
    assert set(model.rates) == {("idle", "backoff"), ("backoff", "idle")}
    assert model.has_limit


def test_rate_matches_closed_form_at_corners():
    model = builtin_example()
    lam, _ = poisson_free_rates(10, 0)
    assert rate(model, 10, (1.0, 0.0), "idle", "backoff") == pytest.approx(
        lam, rel=1e-13
    )
    assert lam == pytest.approx(3.1430e-4, abs=1e-8)

    _, mu = poisson_free_rates(0, 10)
    assert rate(model, 10, (0.0, 1.0), "backoff", "idle") == pytest.approx(
        mu, rel=1e-13
    )
    assert mu == pytest.approx(3.8817e-2, abs=1e-6)


def test_rate_undeclared_pair_is_zero():
    doc = "states = a, b, c\nrate a -> b : 1\n"
    model = load_model(doc)
    assert rate(model, 5, (0.2, 0.3, 0.5), "b", "c") == 0.0


def test_rate_rejects_negative_and_nonfinite():
    model = load_model("states = a, b\nrate a -> b : m[a]-1\n")
    with pytest.raises(RateError, match="a -> b"):
        rate(model, 5, (0.25, 0.75), "a", "b")
    model = load_model("states = a, b\nrate a -> b : 1/m[b]\n")
    with pytest.raises(RateError):
        rate(model, 5, (1.0, 0.0), "a", "b")


BAD_DOC = "states = a, b\nrate a -> b : m[a]-1\nlimit a -> b : m[a]-1\n"
SINGULAR_DOC = "states = a, b\nrate a -> b : 1/m[a]\nlimit a -> b : 1/m[a]\n"

# every entry point that evaluates transitions, called at occupancy m
# (counts N*m for the samplers and the count chain)
ENTRY_POINTS = {
    "rate": lambda model, m: rate(model, 4, m, "a", "b"),
    "intensity": lambda model, m: intensity(model, 4, m, "a", "b"),
    "drift": lambda model, m: drift(model, 4, m),
    "limit_drift": lambda model, m: limit_drift(model, m),
    "poisson_mean_intensity":
        lambda model, m: poisson_mean_intensity(model, 4, m, "a", "b"),
    "mean_drift": lambda model, m: mean_drift(model, 4, m),
    "generator": lambda model, m: generator(model, enumerate_states(2, 4)),
    "simulate_ctmc": lambda model, m: simulate_ctmc(
        model, 4, [round(4 * x) for x in m], 5.0, np.random.default_rng(0),
        (5.0,),
    ),
    "simulate_slotted": lambda model, m: simulate_slotted(
        model, 4, 10, [round(4 * x) for x in m], 5.0, np.random.default_rng(0),
        (5.0,),
    ),
}
INTENSITY_BASED = sorted(set(ENTRY_POINTS) - {"rate"})


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_raises_the_same_rate_error(entry):
    model = load_model(BAD_DOC)
    with pytest.raises(RateError, match=r"rate a -> b at m=\(.*\): evaluated to -"):
        ENTRY_POINTS[entry](model, (0.25, 0.75))


# b -> a is negative everywhere; a -> b is valid
MIXED_DOC = "states = a, b\nrate a -> b : 0.5\nrate b -> a : -1\n"
SINGLE_PAIR = {
    "rate": lambda model: rate(model, 4, (0.25, 0.75), "a", "b"),
    "slot_probability":
        lambda model: slot_probability(model, 4, (0.25, 0.75), "a", "b", D=10),
    "intensity": lambda model: intensity(model, 4, (0.25, 0.75), "a", "b"),
    "poisson_mean_intensity":
        lambda model: poisson_mean_intensity(model, 4, (0.25, 0.75), "a", "b"),
}


@pytest.mark.parametrize("entry", sorted(SINGLE_PAIR))
def test_single_pair_entry_points_evaluate_only_their_pairs(entry):
    model = load_model(MIXED_DOC)
    assert SINGLE_PAIR[entry](model) > 0.0
    with pytest.raises(RateError, match="rate b -> a"):
        drift(model, 4, (0.25, 0.75))


@pytest.mark.parametrize("entry", sorted(SINGLE_PAIR))
@pytest.mark.parametrize("N, m", [
    (0, (0.25, 0.75)),
    (math.nan, (0.25, 0.75)),
    (4, (0.25, 0.5, 0.25)),
    (4, (0.25,)),
    (4, ((0.25, 0.75),)),
])
def test_single_pair_entry_points_refuse_what_drift_refuses(entry, N, m):
    # rate once returned 0.0 at N=0 and a value for a 3-entry m, and
    # raised a bare IndexError on a 1-entry or a 2-D m; an undeclared
    # pair, whose rate is 0, is no excuse either
    model = load_model("states = a, b\nrate a -> b : 0.5\n")
    calls = {
        "rate": lambda s, t: rate(model, N, m, s, t),
        "slot_probability": lambda s, t: slot_probability(model, N, m, s, t, D=10),
        "intensity": lambda s, t: intensity(model, N, m, s, t),
        "poisson_mean_intensity": lambda s, t: poisson_mean_intensity(model, N, m, s, t),
    }
    with pytest.raises(ModelError) as want:
        drift(model, N, m)
    for pair in (("a", "b"), ("b", "a")):
        with pytest.raises(ModelError) as got:
            calls[entry](*pair)
        assert str(got.value) == str(want.value)


def test_mean_drift_field_refuses_N_when_it_is_built():
    for N in (0, -1.0, math.inf, math.nan):
        with pytest.raises(ModelError, match="population size N must be positive"):
            mean_drift_field(builtin_example(), N)


@pytest.mark.parametrize("kind", ["rate", "limit"])
@pytest.mark.parametrize("node, problem", [
    (ex.Call("foo", (ex.Occ("a"),)), "calls unknown function 'foo'"),
    (ex.BinOp("^", ex.Occ("a"), ex.Num(2.0)), "uses unknown operator '^'"),
    (ex.Call("pow", (ex.Occ("a"),)), "calls pow, which takes 2 arguments, with 1"),
    (ex.Neg(ex.BinOp("*", 2.0, ex.Num(1.0))),
     "holds 2.0 where an expression node belongs"),
    (0.5, "holds 0.5 where an expression node belongs"),
])
def test_modelspec_refuses_trees_the_parser_never_makes(kind, node, problem):
    # such trees once failed with a bare KeyError, TypeError or
    # AttributeError, at load or at the first drift
    rates = {("a", "b"): node if kind == "rate" else ex.Num(1.0)}
    limits = {("a", "b"): node} if kind == "limit" else None
    what = "rate" if kind == "rate" else "limit rate"
    with pytest.raises(ModelError) as err:
        ModelSpec(("a", "b"), {}, rates, limits)
    assert str(err.value) == f"{what} a -> b {problem}"
    assert err.value.entry == (kind, ("a", "b"))


@pytest.mark.parametrize("value", ["x", None, (0.5,), math.nan, "nan"])
def test_modelspec_refuses_a_parameter_that_is_not_a_number(value):
    # loading folds no parameter any more, so the first drift would fail
    # with a bare ValueError or TypeError
    rates = {("a", "b"): ex.BinOp("*", ex.Name("p"), ex.Occ("a"))}
    with pytest.raises(ModelError) as err:
        ModelSpec(("a", "b"), {"p": value}, rates)
    assert str(err.value) == f"param 'p' needs a numeric value, got {value!r}"
    assert err.value.entry == ("param", "p")


def test_only_the_rate_table_pairs_evaluate_with_check():
    # every other module takes its rates checked from _RateTable.rates,
    # and the mean drift its split rates certified from split_flows
    for info in pkgutil.iter_modules(popdrift.__path__):
        if info.name == "model":
            continue
        source = inspect.getsource(importlib.import_module(f"popdrift.{info.name}"))
        assert ".kernel(" not in source, info.name
        assert ".check(" not in source, info.name
        assert "_batched(" not in source, info.name
        assert "_group_rows(" not in source, info.name


def _import_time_nodes(node):
    # every node that runs at import: function bodies are left out
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _import_time_nodes(child)


def test_no_module_imports_scipy_at_import_time():
    # scipy.sparse alone costs more than numpy to import: only the
    # functions that use scipy import it
    for path in sorted(pathlib.Path(popdrift.__file__).parent.glob("*.py")):
        for node in _import_time_nodes(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert all(name.split(".")[0] != "scipy" for name in names), (
                f"{path.name}:{node.lineno}"
            )


def test_each_shared_rule_has_one_owner():
    # replication streams, the Poisson-rate and tolerance checks, "variant
    # needs N", the sample-time vector check, the sampler horizon check,
    # the refusal of an undeclared limit, that of a negative seed and that
    # of too many failed replications are each written once; the CLI takes
    # the finiteness of N from the library's population check
    from popdrift import cli, model as model_module

    source = "".join(
        inspect.getsource(importlib.import_module(f"popdrift.{info.name}"))
        for info in pkgutil.iter_modules(popdrift.__path__)
    )
    for phrase in ("SeedSequence(", "Poisson rate must be finite", "needs N",
                   "tail tolerance must be", "sample times must be finite",
                   "t_end must be finite and non-negative",
                   "declares no limit rates", "seed must be non-negative",
                   "replications failed"):
        assert source.count(phrase) == 1, phrase
    assert cli._check_positive_finite is model_module._check_population
    assert "_check_positive_finite(N)" in inspect.getsource(cli._check_population)


def test_all_lists_every_public_name():
    exported = {
        name for name, value in vars(popdrift).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(popdrift.__all__) == exported | {"__version__"}
    for info in pkgutil.iter_modules(popdrift.__path__):
        if info.name in ("__main__", "cli"):  # entry points
            continue
        module = importlib.import_module(f"popdrift.{info.name}")
        defined = {
            name for name, value in vars(module).items()
            if not name.startswith("_")
            and (inspect.isclass(value) or inspect.isfunction(value))
            and value.__module__ == module.__name__
        }
        assert defined <= set(module.__all__), info.name
        assert all(hasattr(module, name) for name in module.__all__), info.name


def test_package_exports_each_submodule_function():
    # popdrift.rate sits beside intensity, slot_probability and
    # poisson_mean_intensity
    for name in ("model", "drift", "meandrift", "exact", "sim", "odesolve"):
        module = importlib.import_module(f"popdrift.{name}")
        for public in module.__all__:
            value = getattr(module, public)
            if callable(value):
                assert public in popdrift.__all__, f"{name}.{public}"
                assert getattr(popdrift, public) is value, f"{name}.{public}"
    model = builtin_example()
    assert popdrift.rate(model, 10, (1.0, 0.0), "idle", "backoff") == pytest.approx(
        poisson_free_rates(10, 0)[0], rel=1e-13
    )


SIRS_PATH = pathlib.Path(__file__).parents[1] / "perfbench" / "models" / "sir.pop"


def test_loading_a_model_builds_no_point_kernel(monkeypatch):
    # the kernels are built on first use, as the mean-drift plan is; a
    # drift at one point builds no RK4 step form
    model = builtin_example()
    lazy = {"_point", "_fused_drift", "_fused_jump", "_fused_step", "plan"}
    for table in (model._rate_table, model._limit_table):
        assert not lazy & set(vars(table))
    drift(model, 50, (0.45, 0.55))
    assert lazy & set(vars(model._rate_table)) == {"_fused_drift"}
    # the first jump-chain ensemble defines the jump kernel, once for all
    # of its paths, and no other
    defined = []
    define = ex._define

    def counted(*args):
        defined.append(args)
        return define(*args)

    monkeypatch.setattr(ex, "_define", counted)
    config = SimConfig(N=40, init=(40, 0), t_end=50.0, reps=20, seed=3)
    for _ in range(2):
        ensemble(model, config)
        assert lazy & set(vars(model._rate_table)) == {"_fused_drift", "_fused_jump"}
        assert [args[2:] for args in defined] == [("N, c",)]
    assert not lazy & set(vars(model._limit_table))


CONTENTION_PATH = SIRS_PATH.with_name("contention.pop")


def test_only_the_table_kernels_are_compiled(monkeypatch):
    # loading compiles nothing; the drift, the mean drift at N=50 (summed
    # whole) and N=1000 (split into groups) and the generator define only
    # the table kernel, the fused drift and the plan kernel, and never
    # the per-rate compile_fn closures; two drift ODEs define the RK4
    # step form once
    defined = []
    define = ex._define

    def counted(body, result, *args, **consts):
        defined.append(args)
        return define(body, result, *args, **consts)

    def refused(*args):
        raise AssertionError("compile_fn called")

    monkeypatch.setattr(ex, "_define", counted)
    monkeypatch.setattr(ex, "compile_fn", refused)
    models = [builtin_example(), load_model(CONTENTION_PATH.read_text())]
    assert defined == []
    for model in models:
        m = np.full(model.n_states, 1.0 / model.n_states)
        drift(model, 50, m)
        mean_drift(model, 50, m)
        mean_drift(model, 1000, m)
        generator(model, enumerate_states(model.n_states, 20))
        compiled = {"_generated", "_fused_drift", "plan"}
        assert compiled <= set(vars(model._rate_table))
    assert len(defined) == 3 * len(models)
    for model in models:
        phi0 = [1.0] + [0.0] * (model.n_states - 1)
        for _ in range(2):
            solve(model, "drift", 50, phi0, 1.0)
    assert defined[3 * len(models):] == [("N, y, dt",)] * len(models)


def test_a_bundled_drift_point_calls_pow_twice():
    # each pow(...) appears in both rates; a repeated subtree is computed once
    real = ex._KERNEL_GLOBALS["pow"]
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    want = drift(builtin_example(), 50, (0.45, 0.55))
    with mock.patch.dict(ex._KERNEL_GLOBALS, pow=counted):
        model = builtin_example()
        for point in ((0.45, 0.55), (1.0, 0.0)):
            calls.clear()
            drift(model, 50, point)
            assert len(calls) == 2
            calls.clear()
            rate(model, 50, point, "idle", "backoff")
            assert len(calls) == 2
        assert drift(model, 50, (0.45, 0.55)).tobytes() == want.tobytes()


def test_kernels_without_numpy_calls_never_set_numpy_error_state():
    # numpy's error state costs more than a whole SIRS rate kernel; only
    # a kernel that calls numpy needs it, once per point
    real = np.errstate
    entered = []

    def counted(**kwargs):
        entered.append(kwargs)
        return real(**kwargs)

    bundled, sirs = builtin_example(), load_model(SIRS_PATH.read_text())
    points = [(0.45, 0.55), (1.0, 0.0), (0.0, 1.0)]
    fields = [
        (lambda m: drift(sirs, 100, (*m, 0.0)), 0),
        (lambda m: limit_drift(bundled, m), 0),
        (lambda m: drift(bundled, 50, m), 1),
    ]
    for fn, _ in fields:
        fn(points[0])  # builds the kernel
    for fn, per_point in fields:
        with mock.patch.object(np, "errstate", counted):
            for m in points:
                fn(m)
        assert len(entered) == per_point * len(points)
        entered.clear()


def test_a_numeric_limit_value_sets_numpy_error_state_at_most_once():
    # the numeric limit evaluates the drift at up to 14 populations; it
    # holds the error state over all of them when the drift calls numpy
    real = np.errstate
    entered = []

    def counted(**kwargs):
        entered.append(kwargs)
        return real(**kwargs)

    contention = load_model(CONTENTION_PATH.read_text())
    sirs = load_model(SIRS_PATH.read_text())
    cases = [
        (contention, [(0.3, 0.3, 0.4), (1.0, 0.0, 0.0), (0.1, 0.8, 0.1)], 1),
        (sirs, [(0.5, 0.2, 0.3), (1.0, 0.0, 0.0), (0.0, 0.5, 0.5)], 0),
    ]
    for model, points, per_value in cases:
        limit_drift(model, points[0], "numeric")  # builds the kernel
        with mock.patch.object(np, "errstate", counted):
            for m in points:
                limit_drift(model, m, "numeric")
        assert len(entered) == per_value * len(points)
        entered.clear()


def test_compiled_source_has_one_exec_site():
    # every compiled form goes through expr._define, whose namespace holds
    # only _KERNEL_GLOBALS
    sites = [
        (path.name, line)
        for path in sorted(pathlib.Path(popdrift.__file__).parent.glob("*.py"))
        for line in path.read_text().splitlines()
        if re.search(r"\b(?:eval|exec)\(", line)
    ]
    assert len(sites) == 1 and sites[0][0] == "expr.py", sites
    # and _define, which holds it, has one caller: _kernel
    callers = [
        (path.name, getattr(top, "name", None))
        for path in sorted(pathlib.Path(popdrift.__file__).parent.glob("*.py"))
        for top in ast.parse(path.read_text()).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and "_define" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert set(callers) == {("expr.py", "_kernel")}, callers


def test_state_and_parameter_names_that_are_kernel_globals_drift_as_written():
    # states exp and inf, parameter pow: no model name reaches the source
    model = load_model(
        "states = exp, inf\n"
        "param pow = 0.5\n"
        "rate exp -> inf : pow*m[inf] + pow(m[exp], 2)\n"
        "rate inf -> exp : exp(-m[inf])*pow/m[exp]\n"
    )
    for a in (0.0, 0.25, 0.7, 1.0):
        b = 1.0 - a
        with np.errstate(all="ignore"):
            q = [0.5 * b + np.power(a, 2.0), np.exp(-b) * 0.5 / np.float64(a)]
        if a == 0.0:
            with pytest.raises(RateError, match=r"exp at m=.*: evaluated to inf"):
                drift(model, 10, (a, b))
            continue
        want = [0.0, 0.0]
        for (i, j), value in zip(((0, 1), (1, 0)), q):
            f = (a, b)[i] * value
            want[i] -= f
            want[j] += f
        assert drift(model, 10, (a, b)).tobytes() == np.array(want).tobytes()
        assert model.transitions()[1][2](10.0, [a, b]) == q[1]


def test_a_transition_closure_computes_its_own_rate_alone():
    # at this point the other rates divide by zero and take ln(0) on plain
    # floats; a view of the table kernel would compute them too, and raise
    model = load_model(
        "states = a, b, c\n"
        "rate a -> b : 0.5/m[a]\n"
        "rate b -> c : 2 + ln(m[a])\n"
        "rate c -> a : 0.3*m[b] + exp(-N*m[c])\n"
    )
    table = model._rate_table
    m = [0.0, 0.25, 0.75]
    with pytest.raises(ZeroDivisionError):
        table._generated[0](10.0, m)
    k = table.index[(2, 0)]
    got = model.transitions()[k][2](10.0, m)  # warnings are errors here
    assert got == rates_at(table, 10.0, m)[k]


def test_transitions_yield_kernels_for_points_and_arrays():
    # (source, target, fn) where fn takes a tuple point or a tuple of
    # arrays; the benchmark's kernel timings rely on this
    model = builtin_example()
    a = np.linspace(0.0, 1.0, 5)
    seen = []
    for i, j, fn in model.transitions():
        seen.append((i, j))
        s, t = model.state_names[i], model.state_names[j]
        point = fn(160.0, (0.45, 0.55))
        assert point == rate(model, 160, (0.45, 0.55), s, t)
        batch = fn(160.0, (a, 1.0 - a))
        assert batch.shape == a.shape
        for x, value in zip(a, batch):
            assert value == pytest.approx(fn(160.0, (x, 1.0 - x)), rel=1e-14)
    assert seen == [(0, 1), (1, 0)]


def test_validate_reports_the_rate_error():
    report = validate(load_model(BAD_DOC), 4, sample_count=20)
    assert not report.ok and not report.nonnegative
    assert all("rate a -> b at m=" in f for f in report.failures)


@pytest.mark.parametrize("entry", INTENSITY_BASED)
def test_rate_singular_in_empty_source_is_no_error(entry):
    ENTRY_POINTS[entry](load_model(SINGULAR_DOC), (0.0, 1.0))


def test_slot_resolution_error_is_the_same_everywhere():
    model = load_model("states = a, b\nrate a -> b : 200\n")
    with pytest.raises(SlotResolutionError) as direct:
        slot_probability(model, 3, (1.0, 0.0), "a", "b", D=100)
    with pytest.raises(SlotResolutionError) as sampled:
        simulate_slotted(
            model, 3, 100, (3, 0), 1.0, np.random.default_rng(0), (1.0,)
        )
    assert "increase D above 200" in str(direct.value)
    assert str(direct.value) == str(sampled.value)


def test_slot_probability_scales_like_rate():
    model = builtin_example()
    m = (0.5, 0.5)
    for s, t in (("idle", "backoff"), ("backoff", "idle")):
        q = rate(model, 10, m, s, t)
        p = slot_probability(model, 10, m, s, t, D=10**6)
        assert p * 10**6 == pytest.approx(q, rel=1e-9)


def test_slot_probability_overflow_advises_larger_d():
    model = load_model("states = a, b\nrate a -> b : 3\n")
    with pytest.raises(SlotResolutionError, match="increase D"):
        slot_probability(model, 4, (0.5, 0.5), "a", "b", D=2)
    # fine at D large enough
    assert slot_probability(model, 4, (0.5, 0.5), "a", "b", D=4) == pytest.approx(0.75)


def test_a_nan_parameter_is_refused_at_load_and_inf_is_kept():
    # a NaN parameter used to load, and every evaluation then named a rate
    doc = "states = a, b\nparam p = {}\nrate a -> b : p*m[a]\n"
    with pytest.raises(ModelError) as err:
        load_model(doc.format("nan"))
    assert str(err.value) == "line 2: param 'p' needs a numeric value, got nan"
    assert load_model(doc.format("inf")).params == {"p": math.inf}


@pytest.mark.parametrize("first, second, named", [
    ("param p = x", "bogus", "line 2: param 'p' needs a numeric value, got 'x'"),
    ("param p = nan", "param q = y", "line 3: param 'q' needs a numeric value, got 'y'"),
    ("param p = nan", "bogus", "line 3: unrecognized directive 'bogus'"),
    ("param p = nan", "param q = 1", "line 2: param 'p' needs a numeric value, got nan"),
])
def test_a_document_with_two_bad_lines_names_the_same_line_first(first, second, named):
    # text that is no number is refused as its line is read; a NaN only
    # once the whole document is read, by ModelSpec, with the same words
    doc = f"states = a, b\n{first}\n{second}\nrate a -> b : m[a]\n"
    with pytest.raises(ModelError) as err:
        load_model(doc)
    assert str(err.value) == named


def test_load_errors_carry_line_numbers():
    with pytest.raises(ModelError, match="line 2"):
        load_model("states = a, b\nwat is this\n")
    with pytest.raises(ModelError, match="line 3"):
        load_model("states = a, b\nparam p = 1\nparam p = 2\n")
    with pytest.raises(ModelError, match="line 2"):
        load_model("states = a, b\nrate a -> b : 1 +\n")
    with pytest.raises(ModelError, match="no states"):
        load_model("param p = 1\n")


@pytest.mark.parametrize(
    "line, message",
    [
        ("rate a -> c : 1", "rate references unknown state 'c'"),
        ("rate a -> a : 1", "self-loop rate a -> a is not allowed"),
        ("rate a -> b : m[zzz]", "rate a -> b uses unknown state in m[zzz]"),
        ("rate a -> b : q*m[a]", "rate a -> b uses undeclared parameter 'q'"),
        ("limit a -> b : N", "limit rate a -> b must not reference N"),
        ("rate a -> b : " + "(" * ex._MAX_DEPTH + "1" + ")" * ex._MAX_DEPTH,
         f"expression nests deeper than {ex._MAX_DEPTH} levels (column "),
        ("param N = 3", "parameter name 'N' is reserved"),
    ],
    ids=["unknown-state", "self-loop", "unknown-occupancy", "undeclared-param",
         "n-in-limit", "too-deep", "reserved-n"],
)
def test_load_refusals_name_their_line(line, message):
    # the refused line sits between accepted ones, before the states line
    doc = f"param p = 1\nrate b -> a : p\n{line}\nlimit b -> a : 0\nstates = a, b\n"
    with pytest.raises(ModelError) as err:
        load_model(doc)
    # a syntax error also names its column
    assert str(err.value).startswith(f"line 3: {message}")


@pytest.mark.parametrize(
    "states, message",
    [
        ("a", "a model needs at least two states"),
        ("a, b, a", "state names must be distinct"),
        ("a, 2b", "invalid state name '2b'"),
    ],
    ids=["one-state", "repeated", "invalid"],
)
def test_load_refusals_of_states_name_their_line(states, message):
    doc = f"param p = 1\n# states\nstates = {states}\nrate a -> c : p\n"
    with pytest.raises(ModelError) as err:
        load_model(doc)
    assert str(err.value) == f"line 3: {message}"


@pytest.mark.parametrize(
    "line, message",
    [
        ("limit a -> c : 1", "limit rate references unknown state 'c'"),
        ("limit a -> a : 1", "self-loop limit rate a -> a is not allowed"),
        ("limit a -> b : m[zzz]", "limit rate a -> b uses unknown state in m[zzz]"),
        ("limit a -> b : q", "limit rate a -> b uses undeclared parameter 'q'"),
    ],
    ids=["unknown-state", "self-loop", "unknown-occupancy", "undeclared-param"],
)
def test_load_refusals_of_limits_name_their_line(line, message):
    # the rate for the same pair is accepted, so only the wording and the
    # line tell the two apart
    doc = f"states = a, b\nparam p = 1\nrate a -> b : p\n{line}\n"
    with pytest.raises(ModelError) as err:
        load_model(doc)
    assert str(err.value) == f"line 4: {message}"
    assert err.value.entry[0] == "limit"


def test_load_refused_rate_far_from_the_states_line_names_its_line():
    doc = "states = a, b\n" + "# filler\n" * 49 + "rate a -> b : q\n"
    with pytest.raises(ModelError) as err:
        load_model(doc)
    assert str(err.value) == "line 51: rate a -> b uses undeclared parameter 'q'"


def test_load_builds_one_modelspec_also_when_it_refuses(monkeypatch):
    built = []
    post_init = ModelSpec.__post_init__
    monkeypatch.setattr(
        ModelSpec, "__post_init__", lambda self: built.append(self) or post_init(self)
    )
    params = "".join(f"param p{k} = 1\n" for k in range(20))
    with pytest.raises(ModelError, match=r"\Aline 23: rate a -> b uses undeclared"):
        load_model(f"states = a, b\n{params}rate b -> a : p0\nrate a -> b : q\n")
    assert len(built) == 1


def test_load_rejects_unknown_names():
    with pytest.raises(ModelError, match="undeclared parameter"):
        load_model("states = a, b\nrate a -> b : q\n")
    with pytest.raises(ModelError, match="unknown state"):
        load_model("states = a, b\nrate a -> c : 1\n")
    with pytest.raises(ModelError, match="unknown state"):
        load_model("states = a, b\nrate a -> b : m[zzz]\n")
    with pytest.raises(ModelError, match="self-loop"):
        load_model("states = a, b\nrate a -> a : 1\n")


def test_limit_rates_must_not_use_population_size():
    doc = "states = a, b\nrate a -> b : 1\nlimit a -> b : N\n"
    with pytest.raises(ModelError, match="must not reference N"):
        load_model(doc)


def test_param_named_n_is_reserved():
    with pytest.raises(ModelError, match="reserved"):
        load_model("states = a, b\nparam N = 3\nrate a -> b : 1\n")


def test_comments_and_blank_lines_ignored():
    doc = "# header\n\nstates = a, b  # trailing\nrate a -> b : 2  # rate\n"
    model = load_model(doc)
    assert rate(model, 1, (1.0, 0.0), "a", "b") == 2.0


def test_model_without_limit_reports_it():
    model = load_model("states = a, b\nrate a -> b : 1\n")
    assert not model.has_limit
    with pytest.raises(ModelError, match="no limit"):
        limit_field(model)


def test_check_occupancy():
    check_occupancy((0.3, 0.7))
    with pytest.raises(ModelError, match="sum to 1"):
        check_occupancy((0.3, 0.6))
    with pytest.raises(ModelError, match="non-negative"):
        check_occupancy((-0.1, 1.1))
    with pytest.raises(ModelError, match="2 states"):
        check_occupancy((1.0,), n_states=2)


def test_check_counts():
    assert check_counts((3, 7), 10).tolist() == [3, 7]
    with pytest.raises(ModelError, match="sum to N"):
        check_counts((3, 6), 10)
    with pytest.raises(ModelError, match="integers"):
        check_counts((3.5, 6.5), 10)


def test_largest_remainder_counts():
    assert largest_remainder_counts((0.5, 0.5), 5).tolist() == [3, 2]
    assert largest_remainder_counts((1 / 3, 2 / 3), 10).tolist() == [3, 7]
    assert largest_remainder_counts((1.0, 0.0), 7).tolist() == [7, 0]
    # always sums to N
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = rng.dirichlet((1.0, 1.0, 1.0))
        n = largest_remainder_counts(m, 17)
        assert n.sum() == 17 and np.all(n >= 0)


def test_sample_simplex_deterministic_and_valid():
    a = sample_simplex(3, 64, seed=5)
    b = sample_simplex(3, 64, seed=5)
    assert np.array_equal(a, b)
    assert a.shape == (64, 3)
    assert np.all(a >= 0)
    assert np.allclose(a.sum(axis=1), 1.0, atol=1e-12)
    c = sample_simplex(3, 64, seed=6)
    assert not np.array_equal(a, c)


def test_validate_builtin_model():
    report = validate(builtin_example(), N=10, sample_count=500, seed=1)
    assert report.ok
    assert report.nonnegative
    assert report.lipschitz_estimate <= math.sqrt(2)
    assert report.bound_estimate <= math.sqrt(2)
    assert report.max_rate <= P2 + 1e-12
    assert not report.rate_warning


def test_validate_flags_rates_above_one():
    model = load_model("states = a, b\nrate a -> b : 5\n")
    report = validate(model, N=3, sample_count=100, seed=0)
    assert report.ok  # a warning, not a failure
    assert report.rate_warning
    assert report.max_rate == pytest.approx(5.0)


def test_validate_records_negative_rate_failures():
    model = load_model("states = a, b\nrate a -> b : m[a]-1\n")
    report = validate(model, N=3, sample_count=100, seed=0)
    assert not report.ok
    assert not report.nonnegative
    assert report.failures


@pytest.mark.parametrize("N", [math.inf, 0.0, -5.0, math.nan])
def test_validate_refuses_a_population_size_that_is_not_positive_and_finite(N):
    with pytest.raises(ModelError, match="N must be positive and finite"):
        validate(builtin_example(), N, sample_count=10)


def test_modelspec_rejects_bad_shapes():
    with pytest.raises(ModelError, match="two states"):
        ModelSpec(("a",), {}, {})
    with pytest.raises(ModelError, match="distinct"):
        ModelSpec(("a", "a"), {}, {})
    with pytest.raises(ModelError, match="reserved"):
        ModelSpec(("a", "b"), {"N": 1.0}, {})


def test_rate_expr_defaults_to_zero():
    model = load_model("states = a, b\nrate a -> b : 1\n")
    assert model.rate_expr("b", "a") == ex.Num(0.0)


ZERO_DIVISOR_DOC = "states = a, b\nparam p = 0\nrate a -> b : 1/p\nlimit a -> b : 1/p\n"


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_division_by_a_constant_zero_is_a_rate_error(entry):
    # the constant divides like numpy's floats, to inf, on every path
    model = load_model(ZERO_DIVISOR_DOC)
    with pytest.raises(RateError, match=r"rate a -> b at m=\(.*\): evaluated to inf"):
        ENTRY_POINTS[entry](model, (0.25, 0.75))


def chain(depth):
    """1-(1-(...(1-m[a]))) with depth subtractions, built in code."""
    node = ex.Occ("a")
    for _ in range(depth):
        node = ex.BinOp("-", ex.Num(1.0), node)
    return node


@pytest.mark.parametrize("depth", [300, 5000])
def test_code_built_rate_over_the_nesting_limit_is_a_model_error(depth):
    with pytest.raises(ModelError, match=r"rate a -> b nests deeper than 100 levels"):
        ModelSpec(("a", "b"), {}, {("a", "b"): chain(depth)})


def test_code_built_rate_at_the_nesting_limit_compiles():
    # each subtraction but the innermost also parenthesizes its right side
    node = chain(50)
    assert ex.depth(node) == ex._MAX_DEPTH
    model = ModelSpec(("a", "b"), {}, {("a", "b"): node})
    assert rate(model, 4, (1.0, 0.0), "a", "b") == 1.0
    with pytest.raises(ModelError, match="nests deeper"):
        ModelSpec(("a", "b"), {}, {("a", "b"): ex.BinOp("*", ex.Num(1.0), ex.Neg(node))})


@pytest.mark.parametrize(
    "kwargs, entry, message",
    [
        ({"state_names": ("a",)}, ("states",), "a model needs at least two states"),
        ({"params": {"N": 1.0}}, ("param", "N"), "parameter name 'N' is reserved"),
        ({"rates": {("a", "b"): ex.Name("q")}}, ("rate", ("a", "b")),
         "rate a -> b uses undeclared parameter 'q'"),
        ({"limit_rates": {("b", "c"): ex.Num(1.0)}}, ("limit", ("b", "c")),
         "limit rate references unknown state 'c'"),
        ({"limit_rates": {("a", "b"): chain(300)}}, ("limit", ("a", "b")),
         "limit rate a -> b nests deeper than 100 levels"),
    ],
    ids=["states", "param", "rate", "limit", "deep-limit"],
)
def test_modelspec_refusals_carry_their_entry(kwargs, entry, message):
    spec = {"state_names": ("a", "b"), "params": {}, "rates": {}, **kwargs}
    with pytest.raises(ModelError) as err:
        ModelSpec(**spec)
    assert err.value.entry == entry
    assert str(err.value) == message
