"""Invariants checked on small count-vector spaces, on small random
models drawn from a fixed rate pool, and on Poisson windows.

Each pool model has two or three states and a few transitions whose
rates come from the pool below, with the occupancy coordinate they read
drawn too.  Every pool rate is finite, non-negative and at most 1.5 on
the simplex, so slotted paths at D = 10 never need a finer slot.  The
mean-drift lattice is also checked on models of two to four states
whose rates read random subsets of the occupancies, and the rate
table's evaluation paths on random rate trees at numpy's domain edges,
its generated RK4 step among them.
A mean-drift field walked along nearby points, so that its kept block
values are built, read, grown and outgrown, must equal the sum that
keeps nothing, bit for bit.
The projected exact transient is checked against dense and sparse
matrix exponentials: its reported error must cover its distance to them.
Given the model, it must equal the transient of the model's whole
generator bit for bit.
"""

import math
import pathlib
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply
from scipy.stats import poisson

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from popdrift import exact  # noqa: E402
from popdrift import expr as ex  # noqa: E402
from popdrift.drift import drift  # noqa: E402
from popdrift.errors import ModelError, NumericsError, RateError  # noqa: E402
from popdrift.expr import BinOp, Call, Neg, Num, Occ  # noqa: E402
from popdrift.exact import (  # noqa: E402
    LumpedDistribution,
    enumerate_states,
    generator,
    point_mass,
    transient,
)
from popdrift.meandrift import (  # noqa: E402
    _lattice_sums,
    _window_budget,
    _windows,
    mean_drift,
    mean_drift_field,
    poisson_mean_intensity,
    poisson_weights,
)
from popdrift.model import ModelSpec, _batched, builtin_example, load_model  # noqa: E402
from popdrift.odesolve import _settle, _stage  # noqa: E402
from popdrift.sim import simulate_ctmc, simulate_slotted  # noqa: E402

from oracle import rate_fns, rates_at  # noqa: E402

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


# rounding in uniformization and in the dense oracle, which the error
# bound does not cover: far below every tol drawn here
ROUNDING = 1e-13


@SETTINGS
@given(st.data(), models(), st.integers(3, 14), st.floats(1.0, 60.0),
       st.sampled_from([1e-10, 1e-6, 1e-3, 0.1]))
def test_projected_transient_stays_within_its_error_bound(data, model, N, t, tol):
    space = enumerate_states(model.n_states, N)
    gen = generator(model, space)
    if data.draw(st.booleans(), label="spread"):
        weights = data.draw(st.lists(st.integers(0, 5), min_size=space.size,
                                     max_size=space.size))
        weights[0] += 1
        init = LumpedDistribution(space=space, probs=np.array(weights) / sum(weights),
                                  time=0.0)
    else:
        init = point_mass(space, space.states[data.draw(st.integers(0, space.size - 1))])
    # the bound holds whatever the tuning; small values project small
    # spaces onto few states over short segments, so the mass drifts out
    # of the first active sets, segments are redone and mass is dropped
    tuning = {
        "_MIN_ACTIVE": data.draw(st.sampled_from([1, 256]), label="min_active"),
        "_HEADROOM": data.draw(st.sampled_from([1e-3, 0.5]), label="headroom"),
        "_SEGMENT_JUMPS": data.draw(st.sampled_from([4, 50, 800]), label="jumps"),
    }
    with mock.patch.multiple(exact, **tuning):
        dist = transient(gen, init, t, tol=tol)
    assert np.all(dist.probs >= 0)
    assert math.fsum(dist.probs) == pytest.approx(1.0, abs=1e-12)
    want = init.probs @ expm(gen.toarray() * t)
    assert np.abs(dist.probs - want).sum() <= dist.error + ROUNDING
    assert dist.error <= tol
    # before renormalizing, the result lay below the exact law state by
    # state, so 1 - min(want/probs) is at most the mass it lost, which
    # the error counts twice
    held = dist.probs > 1e-6
    assert 1.0 - np.min(want[held] / dist.probs[held]) <= dist.error / 2 + ROUNDING


CONTENTION = """states = idle, backoff, send
param a = 0.05
param b = 0.2
param c = 0.5
rate idle -> send : a*pow(1-a/2, N*m[idle])
rate idle -> backoff : a*(1 - pow(1-a/2, N*m[idle]))
rate backoff -> idle : b*pow(1-c/2, N*m[send])
rate send -> idle : c
"""


def test_projected_transient_matches_expm_multiply_on_a_mid_size_space():
    model = load_model(CONTENTION)
    space = enumerate_states(3, 60)  # 1,891 count vectors
    gen = generator(model, space)
    init = point_mass(space, (60, 0, 0))
    dist = transient(gen, init, 15.0, tol=1e-10)
    want = expm_multiply(gen.T.tocsr() * 15.0, init.probs)
    assert np.abs(dist.probs - want).sum() <= dist.error + ROUNDING
    assert dist.error <= 1e-10


@SETTINGS
@given(st.data(), models(), st.integers(1, 15), st.integers(0, 2**32 - 1))
def test_sampled_paths_conserve_population(data, model, N, seed):
    counts = counts_of(data.draw(occupancies(model.n_states)), N)
    at = np.linspace(0.0, 5.0, 11)
    ctmc = simulate_ctmc(model, N, counts, 5.0, np.random.default_rng(seed), at)
    slotted = simulate_slotted(
        model, N, 10, counts, 5.0, np.random.default_rng(seed), at
    )
    for got, z in (ctmc, slotted):
        assert np.all(got.sum(axis=1) == N)
        assert np.all(got >= 0)
        assert np.array_equal(got[-1], counts + z.sum(0) - z.sum(1))


@SETTINGS
@given(st.data(), models(FIXED_POINT_POOL, cross_only=True), st.integers(1, 20))
def test_mean_drift_equals_drift_at_the_fixed_points(data, model, N):
    m = data.draw(occupancies(model.n_states))
    got = mean_drift(model, N, m, tau=1e-12)
    want = drift(model, N, m)
    assert np.max(np.abs(got - want)) <= 1e-9


# factors of a rate reading m[{x}]; every product of them is finite and
# non-negative on the simplex
SPARSE_FACTORS = (
    "m[{x}]",
    "exp(-2*m[{x}])",
    "pow(1 - 0.2, N*m[{x}])",
    "1/(1 + m[{x}])",
    "(0.5 + m[{x}])",
)


@st.composite
def sparse_models(draw):
    """2-4 states; each rate reads a random subset of the occupancies.

    An empty subset is a constant rate; a rate may also carry 0.3/m[s],
    singular where its source s is empty.
    """
    n = draw(st.integers(2, 4))
    names = ("a", "b", "c", "d")[:n]
    pairs = [(s, t) for s in names for t in names if s != t]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=5, unique=True))
    lines = [f"states = {', '.join(names)}"]
    for s, t in chosen:
        reads = draw(st.lists(st.sampled_from(names), max_size=n, unique=True))
        factors = ["0.7"] + [draw(st.sampled_from(SPARSE_FACTORS)).format(x=x) for x in reads]
        if draw(st.booleans()):
            factors.append(f"0.3/m[{s}]")
        lines.append(f"rate {s} -> {t} : {'*'.join(factors)}")
    return load_model("\n".join(lines) + "\n")


def full_rectangle_flows(model, N, m, tau):
    """Poisson-averaged intensity of every transition, by a plain broadcast
    sum over the full rectangle of all coordinate windows."""
    windows = [poisson_weights(N * x, tau / (2 * model.n_states)) for x in m]
    grid = np.meshgrid(*[w.support() / N for w in windows], indexing="ij")
    weight = np.ones(grid[0].shape)
    for c, w in enumerate(windows):
        weight = weight * w.probs.reshape([-1 if d == c else 1 for d in range(len(m))])
    flows = []
    for i, _, fn in rate_fns(model._rate_table):
        with np.errstate(all="ignore"):
            q = np.broadcast_to(fn(float(N), grid), weight.shape).copy()
        q[grid[i] == 0] = 0.0  # no intensity where the source is empty
        flows.append(float(np.sum(grid[i] * q * weight)))
    return flows


@SETTINGS
@given(st.data(), sparse_models(), st.integers(1, 12))
def test_mean_drift_equals_the_full_rectangle_sum(data, model, N):
    m = data.draw(occupancies(model.n_states))
    tau = 1e-6
    want = full_rectangle_flows(model, N, m, tau)
    names = model.state_names
    for (i, j, _), flow in zip(rate_fns(model._rate_table), want):
        got = poisson_mean_intensity(model, N, m, names[i], names[j], tau=tau)
        assert got == pytest.approx(flow, rel=1e-12, abs=1e-300)
    net = np.zeros(model.n_states)
    for (i, j, _), flow in zip(rate_fns(model._rate_table), want):
        net[i] -= flow
        net[j] += flow
    scale = sum(want)
    assert np.allclose(mean_drift(model, N, m, tau=tau), net, rtol=0, atol=1e-12 * scale)


SHIPPED_MODELS = (
    builtin_example(),
    load_model(CONTENTION),
    load_model(
        (pathlib.Path(__file__).parents[1] / "perfbench" / "models" / "sir.pop")
        .read_text(encoding="utf-8")
    ),
)


def smallest_projected_N(n_states):
    """The smallest N whose space holds more than _MIN_ACTIVE states."""
    N = 1
    while math.comb(N + n_states - 1, n_states - 1) <= exact._MIN_ACTIVE:
        N += 1
    return N


@SETTINGS
@given(st.data(), st.one_of(st.sampled_from(SHIPPED_MODELS), sparse_models()),
       st.floats(0.5, 30.0), st.sampled_from([1e-10, 1e-6]))
def test_row_source_transient_equals_the_generator_transient(data, model, t, tol):
    # spaces above _MIN_ACTIVE, so the run projects and ranks on demand
    lo = smallest_projected_N(model.n_states)
    N = data.draw(st.integers(lo, 2 * lo), label="N")
    space = enumerate_states(model.n_states, N)
    start = data.draw(st.integers(0, space.size - 1), label="start")
    init = point_mass(space, space.states[start])
    want = transient(generator(model, space), init, t, tol=tol)
    got = transient(model, init, t, tol=tol)
    assert got.probs.tobytes() == want.probs.tobytes()
    assert got.error.hex() == want.error.hex()


@SETTINGS
@given(st.floats(1e-3, 1e4), st.floats(1e-10, 0.5))
# an inaccurate p_mode kept the running sum below 1-tau here, and the
# window ran on to underflow: 3,578 points with a tail of 1.4e-12
@example(lam=2089.0, tau=1e-12)
def test_poisson_windows_hold_the_mass_and_report_their_tail(lam, tau):
    w = poisson_weights(lam, tau)
    rounding = len(w.probs) * np.finfo(float).eps
    assert w.tail <= tau
    assert math.fsum(w.probs) >= 1.0 - tau - rounding
    assert w.tail == pytest.approx(max(0.0, 1.0 - float(w.probs.sum())), abs=rounding)
    assert np.all(w.probs > 0) and w.k_min >= 0
    # the two-sided quantile interval holds at least 1-tau of the mass
    span = poisson.isf(tau / 2, lam) - poisson.ppf(tau / 2, lam) + 1
    assert len(w.probs) <= 1.2 * span


def mode_probability(lam):
    """P(K = floor(lam)) for K ~ Poisson(lam): the exp of -lam + sum of
    ln(lam/k) over k = 1..floor(lam), the sum rounded once by fsum.
    Within about 2e-13 of a 40-digit reference for lam up to 1e6."""
    mode = int(math.floor(lam))
    return math.exp(math.fsum([-lam, *np.log(lam / np.arange(1.0, mode + 1))]))


def greedy_window(lam, tau, p_mode):
    """The window by a walk outward from the mode, one step at a time,
    from the mode's probability p_mode."""
    mode = int(math.floor(lam))
    below, above = [], []
    total, lo, hi, p_lo, p_hi = p_mode, mode, mode, p_mode, p_mode
    while total < 1.0 - tau:
        down = p_lo * lo / lam if lo > 0 else 0.0
        up = p_hi * lam / (hi + 1)
        if down == 0.0 and up == 0.0:
            break  # the mass is numerically exhausted
        if down >= up:
            lo, p_lo = lo - 1, down
            below.append(down)
            total += down
        else:
            hi, p_hi = hi + 1, up
            above.append(up)
            total += up
    return lo, np.array(below[::-1] + [p_mode] + above), total


def test_poisson_windows_match_the_greedy_walk():
    eps = np.finfo(float).eps
    for tau in (1e-3, 1e-6, 1e-10, 2.5e-11):
        for lam in np.logspace(-3, 5, 81):
            w = poisson_weights(lam, tau)
            # the same start, so the walks are compared to the bit; the
            # start itself is checked against mode_probability below
            p_mode = w.probs[int(math.floor(lam)) - w.k_min]
            k_min, probs, total = greedy_window(lam, tau, p_mode)
            if total >= 1.0 - tau and (w.k_min, len(w.probs)) != (k_min, len(probs)):
                # the two running totals straddle 1-tau by a rounding error
                shorter = min(w.probs, probs, key=len)
                assert abs(len(w.probs) - len(probs)) == 1, (lam, tau)
                assert abs(math.fsum(shorter) - (1.0 - tau)) <= 32 * eps, (lam, tau)
            elif total < 1.0 - tau:
                # 1-tau is out of reach in floats: both walk to underflow
                assert w.tail > tau, (lam, tau)
                assert abs(w.k_min - k_min) <= 1, (lam, tau)
                assert abs(w.k_max - (k_min + len(probs) - 1)) <= 1, (lam, tau)
            lo, hi = max(w.k_min, k_min), min(w.k_max, k_min + len(probs) - 1)
            ours, theirs = w.probs[lo - w.k_min:hi - w.k_min + 1], probs[lo - k_min:hi - k_min + 1]
            normal = theirs > 1e-290
            assert np.allclose(ours[normal], theirs[normal], rtol=1e-10, atol=0), (lam, tau)


def test_poisson_windows_start_from_an_accurate_mode_probability():
    # ln(p_mode) by mode*ln(lam) - lam - lgamma(mode+1) loses about
    # lam*ln(lam) ulps to cancellation (3e-9 at lam=1e6)
    for lam in np.concatenate([np.logspace(-3, 6, 37), np.arange(1.0, 40.0), [15.5, 16.5]]):
        w = poisson_weights(lam, 1e-10)
        got = w.probs[int(math.floor(lam)) - w.k_min]
        assert got == pytest.approx(mode_probability(lam), rel=1e-12, abs=0), lam


def rate_trees(states):
    """Rate trees over the occupancies of states that reach every numpy
    domain edge: division by empty occupancies, ln of zero and of
    negatives, pow of zero and of negatives to fractional powers."""
    leaves = st.sampled_from(
        [Num(0.0), Num(0.5), Num(2.0), Num(-1.0), *(Occ(x) for x in states)]
    )
    occupancies = st.sampled_from([Occ(x) for x in states])

    def grow(sub):
        return st.one_of(
            st.builds(BinOp, st.sampled_from("+-*/"), sub, sub),
            st.builds(lambda a, m: BinOp("/", a, m), sub, occupancies),
            st.builds(Neg, sub),
            st.builds(lambda f, a: Call(f, (a,)), st.sampled_from(["ln", "exp"]), sub),
            st.builds(lambda f, a, b: Call(f, (a, b)),
                      st.sampled_from(["pow", "min", "max"]), sub, sub),
        )

    return st.recursive(leaves, grow, max_leaves=6)


@st.composite
def domain_edge_tables(draw, divides_by_zero=True):
    """A rate table of 2-3 states with random trees on random pairs, plus,
    with ``divides_by_zero``, a transition from the last state to the
    first whose plain-float evaluation always divides by zero."""
    n = draw(st.integers(2, 3))
    names = NAMES[:n]
    trigger = (names[-1], names[0])
    pairs = [(s, t) for s in names for t in names if s != t and (s, t) != trigger]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4, unique=True))
    rates = {pair: draw(rate_trees(names)) for pair in chosen}
    if divides_by_zero:
        rates[trigger] = BinOp("/", Num(1.0), BinOp("-", Occ(names[0]), Occ(names[0])))
    return ModelSpec(names, {}, rates)._rate_table


def bits(x):
    x = np.float64(x)
    return "nan" if np.isnan(x) else int(x.view(np.int64))


def refused(table, q, m, occupied):
    """Positions k whose rate q[k] the check refuses, one at a time.

    A rate the check lets through must be usable as it leaves it: one
    excused at an empty source is set to 0.
    """
    out = []
    for k in range(len(q)):
        part = q[k:k + 1]
        before = part[0]
        try:
            table.check(part, m, occupied=occupied, ks=(k,))
        except RateError:
            out.append(k)
        else:
            assert bits(part[0]) == bits(before if 0.0 <= before < math.inf else 0.0)
    return out


@SETTINGS
@given(domain_edge_tables(), st.sampled_from([1.0, 3.0, 10.0]), st.data())
def test_rate_table_paths_agree_at_domain_edges(table, N, data):
    n = len(table.state_names)
    points = data.draw(st.lists(occupancies(n), min_size=1, max_size=4))
    # the batched path, all points at once, unchecked
    ks = range(len(table.nodes))
    batch = _batched(table._generated[0], ks, N, [np.array(c) for c in zip(*points)],
                     (len(points),))
    for p, point in enumerate(points):
        m = point.tolist()
        # each transition alone, by the oracle
        alone = rates_at(table, N, m)
        # all at once: the trigger divides by zero, so every rate is retried
        retried = table.kernel(N, m)
        with pytest.raises(ZeroDivisionError):
            table.entries[table.index[(n - 1, 0)]][2](N, m)
        with np.errstate(all="ignore"):
            closures = [f(np.float64(N), [np.float64(x) for x in m])
                        for _, _, f in table.entries]
        batched = batch[:, p]
        assert [bits(x) for x in alone] == [bits(x) for x in retried]
        assert [bits(x) for x in alone] == [bits(x) for x in closures]
        assert [bits(x) for x in alone] == [bits(x) for x in batched]
        for occupied in (False, True):
            want = refused(table, alone, m, occupied)
            assert refused(table, retried, m, occupied) == want
            assert refused(table, list(batched), m, occupied) == want
            assert refused(table, batched, m, occupied) == want


def outcome(call):
    """call's value, or the type and text of the ModelError it raised."""
    try:
        return call()
    except ModelError as err:
        return type(err), str(err)


@SETTINGS
@given(st.one_of(domain_edge_tables(), domain_edge_tables(divides_by_zero=False)),
       st.sampled_from([1.0, 3.0, 10.0]), st.data())
def test_point_kernel_and_fused_drift_match_each_rate_alone(table, N, data):
    # no numpy warning may escape either kernel: warnings are errors here
    n = len(table.state_names)
    for point in data.draw(st.lists(occupancies(n), min_size=1, max_size=4)):
        m = point.tolist()
        alone = rates_at(table, N, m)
        assert [bits(x) for x in table.kernel(N, m)] == [bits(x) for x in alone]

        def reference():
            q = list(alone)
            table.check(q, m, occupied=True)
            return table.net(table.intensities(q, m))

        want, got = outcome(reference), outcome(lambda: table.drift(N, m))
        if isinstance(want, tuple):
            assert want[0] is RateError and got == want
        else:
            assert [bits(x) for x in got] == [bits(x) for x in want]
        for wrong in (m[:-1], m + [0.0]):
            text = f"occupancy has {len(wrong)} entries, model has {n} states"
            assert outcome(lambda: table.drift(N, wrong)) == (ModelError, text)


def plain_valued_drift(table):
    """The table's generated drift form, each numpy call's value made a
    plain float, as the step form makes it: there an x/0 that follows a
    numpy call raises ZeroDivisionError where numpy scalars give inf."""
    plain = {name: (lambda fn: lambda *a: float(fn(*a)))(ex._KERNEL_GLOBALS[name])
             for name in ex.FUNCTIONS}
    with mock.patch.dict(ex._KERNEL_GLOBALS, plain):
        return ex._kernel(table.nodes, table.params, table.state_index,
                          (table.sources, table.targets))[0]


@SETTINGS
@given(st.one_of(domain_edge_tables(), domain_edge_tables(divides_by_zero=False)),
       st.sampled_from([1.0, 3.0, 10.0]), st.sampled_from([1e-3, 0.1, 0.5, 3.0]),
       st.data())
def test_generated_rk4_step_equals_the_list_path_step(table, N, dt, data):
    # no numpy warning may escape: the error state is held as integrate holds it
    n = len(table.state_names)
    kernel = plain_valued_drift(table)
    for point in data.draw(st.lists(occupancies(n), min_size=1, max_size=3)):
        y = point.tolist()
        falls_back = []  # per stage point of the list path

        def f(m):
            try:
                falls_back.append(kernel(N, m) is None)
            except ZeroDivisionError:
                falls_back.append(True)
            return table.drift(N, m, held=True)

        def reference():
            k1 = f(y)
            k2 = f(_stage(y, 0.5 * dt, k1))
            k3 = f(_stage(y, 0.5 * dt, k2))
            k4 = f(_stage(y, dt, k3))
            c = dt / 6.0
            return _settle([a + c * (((p + 2.0 * q) + 2.0 * r) + s)
                            for a, p, q, r, s in zip(y, k1, k2, k3, k4)], dt)

        with np.errstate(all="ignore"):
            try:
                want = outcome(reference)
            except NumericsError:
                want = NumericsError
            try:
                got = table._fused_step(N, y, dt)
            except ZeroDivisionError:
                got = ZeroDivisionError
        if got is None or got is ZeroDivisionError:
            # a stage falls back, or the step leaves the simplex
            assert any(falls_back) or want is NumericsError
        else:
            assert isinstance(want, list)
            assert [bits(x) for x in got] == [bits(x) for x in want]


def law_bits(law):
    total, cum = law
    return bits(total), [bits(x) for x in cum]


@SETTINGS
@given(st.one_of(domain_edge_tables(), domain_edge_tables(divides_by_zero=False)),
       st.integers(1, 12), st.data())
def test_generated_jump_law_matches_checked_rates_summed(table, N, data):
    # count vectors with empty states, where the check excuses a bad rate
    n = len(table.state_names)
    for _ in range(data.draw(st.integers(1, 4), label="vectors")):
        cuts = sorted(data.draw(st.lists(st.integers(0, N), min_size=n - 1,
                                         max_size=n - 1), label="cuts"))
        c = tuple(b - a for a, b in zip([0, *cuts], [*cuts, N]))

        def reference():
            weights = table.intensities(
                table.rates(N, [x / N for x in c], occupied=True), c)
            return math.fsum(weights), tuple(accumulate(weights))

        want, got = outcome(reference), outcome(lambda: table.jump_law(N, c))
        if isinstance(want, tuple) and want[0] is RateError:
            assert got == want
            assert table._fused_jump(N, c) is None
            continue
        fused = table._fused_jump(N, c)
        assert law_bits(got) == law_bits(want)
        assert fused is None or law_bits(fused) == law_bits(want)


# a rate no split applies to: its joint windows pass the box cap from
# about N = 200 on
CACHE_MODELS = SHIPPED_MODELS + (
    load_model("states = a, b\nrate a -> b : 0.1*exp(-m[a]*m[b])\nrate b -> a : 0.2\n"),
)


@settings(SETTINGS, max_examples=150)
@given(st.data(), st.one_of(st.sampled_from(CACHE_MODELS), sparse_models()),
       st.integers(0, 33).map(lambda e: round(10 ** (e / 10))))  # N = 1 .. 1995
def test_a_walked_mean_drift_field_equals_the_uncached_sum(data, model, N):
    # steps of 1e-4 stay inside a box, larger ones grow it or leave it,
    # and a step of 1 empties a state, which drops the transitions out
    # of it from their groups
    n, table = model.n_states, model._rate_table
    field = mean_drift_field(model, N)._lists
    budget = _window_budget(model, 1e-10)
    m = data.draw(occupancies(n)).tolist()
    for _ in range(data.draw(st.integers(2, 10), label="steps")):
        i, j = data.draw(st.permutations(range(n)), label="move")[:2]
        size = data.draw(st.sampled_from([1e-4, 1e-3, 1e-2, 0.2, 1.0]), label="size")
        step = min(size, m[i])
        m[i] -= step
        m[j] += step
        want = outcome(lambda: table.net(
            _lattice_sums(table, N)(m, _windows(N, m, budget))))
        got = outcome(lambda: field(list(m)))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert [bits(x) for x in got] == [bits(x) for x in want]
