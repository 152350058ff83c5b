"""Expression language: parsing, evaluation, round-trips."""

import math
import re
import random

import numpy as np
import pytest

from popdrift.expr import (
    _MAX_DEPTH,
    _MAX_TERMS,
    _SHORTCUT_EXPONENTS,
    _fold,
    _powers,
    _product_terms,
    BinOp,
    Call,
    ExprEvalError,
    ExprSyntaxError,
    Name,
    Neg,
    Num,
    Occ,
    compile_fn,
    depth,
    free_vars,
    parse,
    pretty,
)
from popdrift.drift import drift
from popdrift.errors import RateError
from popdrift.model import load_model, rate

from oracle import evaluate


def test_parse_rate_expression_shape():
    ast = parse("p1*(1 - pow(1-p1/2, N*m[idle]))")
    assert isinstance(ast, BinOp) and ast.op == "*"
    assert ast.left == Name("p1")
    inner = ast.right
    assert isinstance(inner, BinOp) and inner.op == "-"
    assert inner.left == Num(1.0)
    call = inner.right
    assert isinstance(call, Call) and call.func == "pow"
    assert len(call.args) == 2
    assert call.args[1] == BinOp("*", Name("N"), Occ("idle"))


def test_parse_reports_one_based_column():
    with pytest.raises(ExprSyntaxError) as err:
        parse("2*+3")
    assert err.value.column == 3

    with pytest.raises(ExprSyntaxError) as err:
        parse("  $")
    assert err.value.column == 3


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ExprSyntaxError):
        parse("1+2)")


def test_parse_rejects_unknown_function():
    with pytest.raises(ExprSyntaxError, match="unknown function"):
        parse("sin(1)")


def test_parse_rejects_wrong_arity():
    with pytest.raises(ExprSyntaxError, match="arguments"):
        parse("pow(2)")
    with pytest.raises(ExprSyntaxError, match="arguments"):
        parse("exp(1, 2)")


def test_parse_scientific_notation():
    assert parse("1.5e-3") == Num(1.5e-3)
    assert parse(".5") == Num(0.5)


def same_value(got, want) -> bool:
    """Equal bits up to nan payload: equal, or both nan; zeros keep their sign."""
    if math.isnan(want):
        return math.isnan(got)
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def kernel_value(text, N=1.0, params=None, **m):
    """The compiled kernel's value of text on numpy operands, as a rate table
    evaluates it: ``m`` maps state names to occupancies."""
    fn = compile_fn(parse(text), params or {}, {s: k for k, s in enumerate(m)})
    with np.errstate(all="ignore"):
        return fn(np.float64(N), [np.float64(x) for x in m.values()])


def test_eval_occupancy_binding():
    assert kernel_value("N*m[idle]", N=10, idle=0.5) == 5.0
    assert kernel_value("m[b] - m[a]", a=0.25, b=1.0) == 0.75


def test_eval_arith():
    assert kernel_value("2*3 - 4/8 + -1") == pytest.approx(4.5)
    assert kernel_value("2*m[a] - m[b]/8 + -1", a=3.0, b=4.0) == pytest.approx(4.5)


def test_eval_unary_minus_binds_tighter_than_mul():
    # -x*y parses as (-x)*y
    for text in ("-2*3", "-(2*3)", "2*-3", "-m[x]*3", "-(m[x]*3)", "m[x]*-3"):
        assert kernel_value(text, x=2.0) == -6.0, text


def test_eval_functions():
    assert kernel_value("exp(0)") == 1.0
    assert kernel_value("ln(exp(1))") == pytest.approx(1.0)
    # x as a parameter, then as an occupancy
    for x, bind in (("x", {"params": {"x": 2.0}}), ("m[x]", {"x": 2.0})):
        assert kernel_value(f"pow({x}, 3)", **bind) == 8.0
        assert kernel_value(f"min(3, {x})", **bind) == 2.0
        assert kernel_value(f"max(3, {x})", **bind) == 3.0
        assert kernel_value(f"ln(exp({x}))", **bind) == pytest.approx(2.0)


def test_eval_pow_zero_zero_is_one():
    assert kernel_value("pow(0, 0)") == 1.0
    assert kernel_value("pow(m[a], 0)", a=0.0) == 1.0
    assert kernel_value("pow(m[a], m[a])", a=0.0) == 1.0


# the domain cases: the kernel's value, and a rate a -> c of that value
DOMAIN_CASES = {
    "ln(m[c])": -math.inf,
    "1/(2-2)": math.inf,
    "pow(0, -1)": math.inf,
    "pow(0-2, 0.5)": math.nan,
}


def test_eval_domain_errors_name_subexpression():
    # the kernel follows numpy and raises nothing; the rate table's
    # check refuses the value and names the transition
    for text, want in DOMAIN_CASES.items():
        assert same_value(kernel_value(text, a=1.0, c=0.0), want), text
        model = load_model(f"states = a, c\nrate a -> c : {text}\n")
        pattern = rf"rate a -> c at m=\(1\.0, 0\.0\): evaluated to {want}"
        with pytest.raises(RateError, match=pattern):
            rate(model, 10, (1.0, 0.0), "a", "c")
        with pytest.raises(RateError, match=pattern):
            drift(model, 10, (1.0, 0.0))


def test_eval_unbound_names():
    # an unbound name is refused when the expression is compiled
    with pytest.raises(ExprEvalError, match="unbound identifier 'q'"):
        compile_fn(parse("q+1"), {}, {})
    with pytest.raises(ExprEvalError, match=r"m\[a\]"):
        compile_fn(parse("m[a]"), {}, {})


def test_free_vars():
    assert set(free_vars(parse("p1*m[a]+q"))) == {"p1", "q", "m[a]"}
    # N is not free unless used
    assert "N" not in free_vars(parse("p1*m[a]"))
    assert set(free_vars(parse("N*m[idle]"))) == {"N", "m[idle]"}
    # deterministic ordering
    assert free_vars(parse("q + p1*m[a]")) == ("m[a]", "p1", "q")


def test_free_vars_walks_a_deep_code_built_tree():
    node = Occ("a")
    for k in range(5000):
        node = BinOp("-", Name(f"p{k % 3}"), node)
    assert free_vars(node) == ("m[a]", "p0", "p1", "p2")


def test_folding_walks_a_deep_code_built_tree_left_to_right():
    # the leftmost unbound name is the one named, as a recursive fold named it
    with pytest.raises(ExprEvalError, match="unbound identifier 'q'"):
        compile_fn(parse("(m[a] + q)*r - s"), {}, {"a": 0})
    node = Occ("a")
    for k in range(5000):
        node = BinOp("-", Neg(Name("p")) if k % 2 else Num(1.0), node)
    folded = _fold(node, {"p": 2.0})
    assert folded.left == Num(-2.0) and folded.right.left == Num(1.0)
    assert depth(folded) == depth(node) == 2 * 5000
    [(c, [(factor, reads)])] = _product_terms(node, {"p": 2.0})
    assert c == 1.0 and reads == {"a"} and depth(factor) == depth(node)


def _random_expr(rng: random.Random, depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        choice = rng.randrange(3)
        if choice == 0:
            return Num(round(rng.uniform(0, 4), 3))
        if choice == 1:
            return Name(rng.choice(["p1", "p2", "N"]))
        return Occ(rng.choice(["a", "b"]))
    if roll < 0.45:
        return Neg(_random_expr(rng, depth - 1))
    if roll < 0.85:
        op = rng.choice(["+", "-", "*", "/"])
        return BinOp(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    func = rng.choice(["exp", "min", "max"])
    if func == "exp":
        return Call("exp", (_random_expr(rng, depth - 1),))
    return Call(func, (_random_expr(rng, depth - 1), _random_expr(rng, depth - 1)))


def test_pretty_round_trip_structural_identity():
    rng = random.Random(20260819)
    for _ in range(300):
        ast = _random_expr(rng, 4)
        assert parse(pretty(ast)) == ast


def test_pretty_preserves_tree_grouping():
    assert pretty(parse("a-(b-c)")) == "a-(b-c)"
    assert pretty(parse("a-b-c")) == "a-b-c"
    assert parse(pretty(parse("-(2*3)"))) == parse("-(2*3)")


def test_compile_matches_checked_eval():
    # every tree is compared, inf and nan values included
    rng = random.Random(7)
    params = {"p1": 0.008, "p2": 0.05}
    state_index = {"a": 0, "b": 1}
    for _ in range(200):
        ast = _random_expr(rng, 4)
        bindings = {
            "p1": params["p1"],
            "p2": params["p2"],
            "N": 10.0,
            "m[a]": rng.uniform(0.01, 1.0),
            "m[b]": rng.uniform(0.01, 1.0),
        }
        fn = compile_fn(ast, params, state_index)
        with np.errstate(all="ignore"):
            want = evaluate(ast, bindings)
            got = fn(np.float64(10.0), [np.float64(bindings["m[a]"]), np.float64(bindings["m[b]"])])
        assert same_value(got, want), pretty(ast)


def test_compile_vectorizes_over_occupancy_arrays():
    fn = compile_fn(
        parse("p*pow(1-p/2, N*m[a])"), {"p": 0.008}, {"a": 0, "b": 1}
    )
    m_a = np.array([0.0, 0.5, 1.0])
    got = fn(10.0, [m_a, 1.0 - m_a])
    want = 0.008 * np.power(0.996, 10.0 * m_a)
    assert np.allclose(got, want, rtol=1e-14)


def test_compile_rejects_unbound_names():
    with pytest.raises(ExprEvalError, match="unbound"):
        compile_fn(parse("nope"), {}, {})
    with pytest.raises(ExprEvalError, match="unknown state"):
        compile_fn(parse("m[zzz]"), {}, {"a": 0})


def test_compile_pow_zero_zero():
    fn = compile_fn(parse("pow(m[a], m[a])"), {}, {"a": 0})
    assert fn(1.0, [0.0]) == 1.0
    assert np.array_equal(fn(1.0, [np.zeros(3)]), np.ones(3))
    assert np.array_equal(fn(1.0, (np.array([0.0, 2.0]),)), [1.0, 4.0])


# names that are Python keywords, builtins, or the language's own words
ODD_NAMES = ("if", "lambda", "None", "exp", "m")
ODD_EXPRS = (
    "if", "lambda", "None", "exp", "m", "N*if", "-None", "None*m[if]",
    "if*m[lambda] + None", "exp(m[m])*lambda", "min(if, m[None])",
    "max(m, m[exp])", "pow(lambda, 2) - m/(1 + m[m])", "ln(1 + m[if])*exp",
    "pow(m[None], m[None])",
)


@pytest.mark.parametrize("value", [math.inf, -0.5, -0.0, 0.25])
def test_compile_matches_evaluate_for_odd_names(value):
    # no state or parameter name reaches the compiled source, so names
    # that would clash with Python or with the kernel's own names work
    params = {name: value for name in ODD_NAMES}
    state_index = {name: k for k, name in enumerate(ODD_NAMES)}
    m = [0.0, 0.1, 0.2, 0.3, 0.4]
    bindings = {"N": 7.0, **params}
    bindings.update({f"m[{name}]": m[k] for name, k in state_index.items()})
    for text in ODD_EXPRS:
        ast = parse(text)
        with np.errstate(all="ignore"):
            want = evaluate(ast, bindings)
            got = compile_fn(ast, params, state_index)(np.float64(7.0), [np.float64(x) for x in m])
        assert same_value(got, want), text


def nested_text(depth: int) -> str:
    """1-(1-(...)) around a product of m[a] factors, exactly depth levels deep."""
    k = (depth - 1) // 2
    return "1-(" * k + "*".join(["m[a]"] * (depth - 2 * k)) + ")" * k


DEPTH_SHAPES = {
    "nested": nested_text,
    "sum": lambda d: "+".join(["m[a]"] * d),
    "parens": lambda d: "(" * (d - 1) + "m[a]" + ")" * (d - 1),
    "negations": lambda d: "-" * (d - 1) + "m[a]",
    "calls": lambda d: "max(1, " * (d - 1) + "m[a]" + ")" * (d - 1),
}


@pytest.mark.parametrize("shape", sorted(DEPTH_SHAPES))
def test_nesting_limit_is_exact_and_what_it_accepts_compiles(shape):
    text = DEPTH_SHAPES[shape]
    ast = parse(text(_MAX_DEPTH))
    assert parse(pretty(ast)) == ast
    # the tree keeps no redundant parentheses: those of "parens" and the
    # innermost pair of "nested", around a single term, are not levels
    assert depth(ast) == {"parens": 1, "nested": _MAX_DEPTH - 1}.get(shape, _MAX_DEPTH)
    fn = compile_fn(ast, {}, {"a": 0})
    assert same_value(fn(10.0, [0.5]), evaluate(ast, {"m[a]": 0.5}))
    with pytest.raises(ExprSyntaxError, match=f"deeper than {_MAX_DEPTH} levels") as err:
        parse(text(_MAX_DEPTH + 1))
    assert 1 <= err.value.column <= len(text(_MAX_DEPTH + 1))


def test_nesting_far_beyond_the_limit_is_a_syntax_error():
    for text in ("(" * 5000 + "1" + ")" * 5000, "-" * 5000 + "1",
                 "+".join(["1"] * 5000), nested_text(601)):
        with pytest.raises(ExprSyntaxError, match="deeper than"):
            parse(text)


def test_constant_subtrees_divide_like_numpy():
    # constants are folded at compile time, so no float literal is
    # divided by another at run time
    cases = {"1/p": math.inf, "-1/p": -math.inf, "0/p": math.nan, "m[a] + 1/p": math.inf}
    for text, want in cases.items():
        fn = compile_fn(parse(text), {"p": 0.0}, {"a": 0})
        got = fn(5.0, [0.5])
        assert got == want or (math.isnan(want) and math.isnan(got)), text
        batch = fn(np.float64(5.0), [np.array([0.25, 0.5])])
        assert np.array_equal(np.broadcast_to(batch, (2,)), [want, want], equal_nan=True), text


def test_folded_constants_keep_the_bits_of_run_time_arithmetic():
    params = {"p1": 0.008, "p2": 0.05, "z": -0.3}
    for text in ("p1*(1 - pow(1-p1/2, N*m[a])*pow(1-p2/2, N*m[b]))",
                 "exp(z)*m[a] - ln(p2)/3 + min(p1, p2)*max(z, -z)*N",
                 "-(p1 + p2)*m[b] / (2 - z)"):
        ast = parse(text)
        fn = compile_fn(ast, params, {"a": 0, "b": 1})
        unfolded = {"p1": "0.008", "p2": "0.05", "z": "(-0.3)"}
        source = text.replace("m[a]", "m[0]").replace("m[b]", "m[1]")
        for name, literal in unfolded.items():
            source = re.sub(rf"\b{name}\b", literal, source)
        ref = eval(f"lambda N, m: {source}", {"pow": np.power, "exp": np.exp,
                                              "ln": np.log, "min": np.minimum,
                                              "max": np.maximum})
        for point in ((0.2, 0.8), (1.0, 0.0)):
            assert fn(40.0, point) == ref(40.0, point), text


def test_product_terms_split_reads_and_pull_constants_out():
    e = parse("p*(1 - pow(0.5, N*m[a])*pow(0.25, N*m[b]))/m[c]")
    terms = _product_terms(e, {"p": 2.0})
    inv = (BinOp("/", Num(1.0), Occ("c")), {"c"})
    pa, pb = (parse("pow(0.5, N*m[a])"), {"a"}), (parse("pow(0.25, N*m[b])"), {"b"})
    assert terms == [(2.0, (inv,)), (-2.0, (pa, pb, inv))]


def test_product_terms_keep_one_read_subtrees_and_calls_whole():
    for text, reads in (
        ("m[a]*(1 - m[a])", {"a"}),
        ("exp(-m[a]*m[b])", {"a", "b"}),
        ("min(1, m[a]/m[b])", {"a", "b"}),
        ("pow(2, N)", set()),
    ):
        e = parse(text)
        assert _product_terms(e, {}) == [(1.0, ((e, reads),))]


def test_product_terms_stop_at_the_cap():
    # 2^5 = 32 terms fit, 2^6 = 64 do not
    e = parse("*".join(["(m[a] + m[b])"] * 5))
    assert len(_product_terms(e, {})) == _MAX_TERMS == 32
    e = parse("*".join(["(m[a] + m[b])"] * 6))
    assert _product_terms(e, {}) is None


def test_product_terms_pull_constants_out_of_one_read_subtrees():
    f = (parse("pow(0.5, N*m[a])"), {"a"})
    assert _product_terms(parse("p*pow(0.5, N*m[a])"), {"p": 3.0}) == [(3.0, (f,))]
    assert _product_terms(parse("pow(0.5, N*m[a])/4"), {}) == [(0.25, (f,))]
    inv = (BinOp("/", Num(1.0), Occ("a")), {"a"})
    assert _product_terms(parse("0.3/m[a]"), {}) == [(0.3, (inv,))]


def _bits(values):
    return np.array(values, dtype=float).view(np.int64).tolist()


def test_array_calls_equal_scalar_calls_bit_for_bit():
    # the RK4 step form takes a group of pow calls in one array call and
    # must get each scalar call's value: np.power does wherever no
    # exponent is a shortcut exponent, and _powers everywhere
    rng = np.random.default_rng(2024)
    edges = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -2.5, 3.0, math.inf, -math.inf,
             math.nan, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e308]
    pool = np.concatenate([edges, rng.normal(scale=10.0, size=60),
                           rng.integers(-4, 5, size=20), rng.random(20)])
    shortcuts = 0
    with np.errstate(all="ignore"):
        for n in range(1, 6):
            for _ in range(2000):
                a, b = rng.choice(pool, size=(2, n)).tolist()
                want = _bits([np.power(x, z) for x, z in zip(a, b)])
                assert _bits(_powers(np.array(a), b)) == want
                assert _bits(_powers(a, np.array(b))) == want
                if _SHORTCUT_EXPONENTS.isdisjoint(b):
                    assert _bits(np.power(a, b)) == want
                else:
                    shortcuts += 1
    assert shortcuts > 1000
