"""Path generators, ensembles, Poisson fit, mean-dynamics check."""

import importlib
import math
import pathlib
import tracemalloc
from itertools import accumulate

import numpy as np
import pytest
from scipy.stats import poisson

from popdrift import sim
from popdrift.errors import ModelError, RateError, SlotResolutionError
from popdrift.exact import (
    enumerate_states,
    expected_occupancy,
    generator,
    point_mass,
    transient,
)
from popdrift.model import (
    builtin_example,
    largest_remainder_counts,
    load_model,
    slot_probability,
    validate,
)
from popdrift.odesolve import solve
from popdrift.sim import (
    SimConfig,
    ensemble,
    generator_check,
    poisson_marginal_fit,
    simulate_ctmc,
    simulate_slotted,
)

from oracle import rates_at

ZERO_DOC = "states = a, b\nrate a -> b : 0\n"
FAST_DOC = "states = a, b\nrate a -> b : 2 + m[b]\nrate b -> a : 1 + 0.5*m[a]\n"
SIR_MODEL = pathlib.Path(__file__).parents[1] / "perfbench" / "models" / "sir.pop"
CONTENTION_MODEL = SIR_MODEL.with_name("contention.pop")
# a -> b is infinite at an empty a, where the check excuses it
EXCUSED_DOC = "states = a, b\nrate a -> b : 1/m[a]\nrate b -> a : 0.5\n"
# a -> b turns negative once b holds more than 40% of the agents
RANGE_DOC = "states = a, b\nrate a -> b : 1 - 2.5*m[b]\nrate b -> a : 2\n"


def test_ctmc_zero_rates_single_segment():
    model = load_model(ZERO_DOC)
    counts, z = simulate_ctmc(
        model, 5, (3, 2), 100.0, np.random.default_rng(0), (0.0, 50.0, 100.0)
    )
    assert counts.tolist() == [[3, 2]] * 3
    assert z.sum() == 0


def test_ctmc_path_bookkeeping():
    model = builtin_example()
    at = np.linspace(0.0, 400.0, 81)
    counts, z = simulate_ctmc(
        model, 30, (30, 0), 400.0, np.random.default_rng(7), at
    )
    assert counts.shape == (81, 2)
    # agents conserved and counts non-negative at every sample
    assert np.all(counts.sum(axis=1) == 30) and np.all(counts >= 0)
    # the jump totals reconstruct the counts at t_end
    assert np.all(z >= 0) and np.all(np.diag(z) == 0) and z.sum() > 0
    assert np.array_equal(counts[0], [30, 0])
    assert np.array_equal(counts[-1], np.array([30, 0]) + z.sum(0) - z.sum(1))
    # the samples read one path: asking for more times changes neither
    # the stream nor the counts at the times asked before
    finer = np.union1d(at, at[:-1] + 2.5)
    more, z_more = simulate_ctmc(
        model, 30, (30, 0), 400.0, np.random.default_rng(7), finer
    )
    assert np.array_equal(more[np.searchsorted(finer, at)], counts)
    assert np.array_equal(z_more, z)


def test_ctmc_seed_determinism():
    model = builtin_example()
    at = np.linspace(0.0, 300.0, 301)

    def path(seed):
        return simulate_ctmc(
            model, 20, (20, 0), 300.0, np.random.default_rng(seed), at
        )

    (a, za), (b, zb), (c, zc) = path(42), path(42), path(43)
    assert np.array_equal(a, b)
    assert np.array_equal(za, zb)
    assert not (np.array_equal(a, c) and np.array_equal(za, zc))


def test_ctmc_two_state_empirical_probability():
    # single-agent chain long past mixing: occupancy of the second
    # state estimates its transient probability
    model = builtin_example()
    config = SimConfig(
        N=1, init=(1, 0), t_end=1000.0, reps=10**5, seed=9,
        sample_times=(0.0, 1000.0),
    )
    stats = ensemble(model, config)
    p = 6.5598e-4
    band = 4.0 * math.sqrt(p * (1 - p) / config.reps)
    assert abs(stats.mean[-1, 1] - p) <= band


def test_slotted_zero_rates_constant():
    model = load_model(ZERO_DOC)
    counts, z = simulate_slotted(
        model, 4, 50, (1, 3), 10.0, np.random.default_rng(3), (0.0, 5.0, 10.0)
    )
    assert counts.tolist() == [[1, 3]] * 3
    assert z.sum() == 0


def test_slot_probability_single_agent_oracle():
    model = builtin_example()
    p = slot_probability(model, 1, (1.0, 0.0), "idle", "backoff", 100)
    assert p == pytest.approx(3.2e-5 / 100, rel=1e-12)


def test_slotted_resolution_overflow():
    model = load_model("states = a, b\nrate a -> b : 200\n")
    with pytest.raises(SlotResolutionError, match="increase D above 200"):
        simulate_slotted(
            model, 3, 100, (3, 0), 1.0, np.random.default_rng(0), (1.0,)
        )


def test_slotted_conservation_and_grid_times():
    model = load_model(FAST_DOC)
    D = 16  # slot width 1/16: the boundaries k/16 are exact floats
    k = np.arange(80)
    # each slot's start, two times inside it, and the end of the path
    at = np.concatenate(
        [np.sort(np.concatenate([k, k + 0.25, k + 0.75])) / D, [5.0]]
    )
    counts, z = simulate_slotted(
        model, 12, D, (12, 0), 5.0, np.random.default_rng(11), at
    )
    assert np.all(counts.sum(axis=1) == 12) and np.all(counts >= 0)
    start, early, late = counts[0:-1:3], counts[1:-1:3], counts[2:-1:3]
    # moves happen only at slot boundaries: two times inside one slot
    # read the same counts as its start
    assert np.array_equal(start, early) and np.array_equal(start, late)
    # a time on a boundary reads the counts after the slot that ends
    # there has moved
    ends = np.concatenate([start[1:], counts[-1:]])
    assert np.any(ends != late)
    # the jump totals reconstruct the final counts
    assert np.all(z >= 0) and z.sum() > 0
    assert np.array_equal(counts[-1], np.array([12, 0]) + z.sum(0) - z.sum(1))


def test_slotted_boundary_times_are_exact():
    # slot 3 of width 1/10 ends at 3/10 == 0.3 exactly, where 3 * (1/10)
    # is 0.30000000000000004: t=0.3 must read slot 3's moves like t=0.31
    model = load_model("states = a, b\nrate a -> b : 5\n")
    for seed in range(200):
        counts, _ = simulate_slotted(
            model, 20, 10, (20, 0), 0.31, np.random.default_rng(seed), (0.3, 0.31)
        )
        assert np.array_equal(counts[0], counts[1]), seed


def slot_kernel(model, N, D):
    """Exact one-slot transition matrix via binomial products."""
    space = enumerate_states(2, N)
    kern = np.zeros((space.size, space.size))
    for idx, (na, nb) in enumerate(space.states):
        m = (na / N, nb / N)
        pa = slot_probability(model, N, m, "a", "b", D)
        pb = slot_probability(model, N, m, "b", "a", D)
        for i in range(na + 1):
            for j in range(nb + 1):
                w = (
                    math.comb(na, i) * pa**i * (1 - pa) ** (na - i)
                    * math.comb(nb, j) * pb**j * (1 - pb) ** (nb - j)
                )
                tgt = space.index_of((na - i + j, nb + i - j))
                kern[idx, tgt] += w
    return space, kern


def exact_slot_law(model, N, D, t):
    space, kern = slot_kernel(model, N, D)
    law = np.zeros(space.size)
    law[space.index_of((N, 0))] = 1.0
    for _ in range(int(round(D * t))):
        law = law @ kern
    return space, law


def test_slotted_law_approaches_jump_chain_as_resolution_grows():
    """Kolmogorov-Smirnov gap between exact laws shrinks like 1/D."""
    model = load_model(FAST_DOC)
    N, t = 2, 1.0
    space = enumerate_states(2, N)
    ctmc_law = transient(
        generator(model, space), point_mass(space, (N, 0)), t
    ).probs
    gaps = []
    for D in (10, 100, 10000):
        _, law = exact_slot_law(model, N, D, t)
        gaps.append(np.abs(np.cumsum(law) - np.cumsum(ctmc_law)).max())
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[0] / gaps[2] > 50


def test_slotted_sampler_matches_exact_slot_law():
    model = load_model(FAST_DOC)
    N, D, t, reps = 2, 10, 1.0, 4000
    space, law = exact_slot_law(model, N, D, t)
    streams = np.random.SeedSequence(123).spawn(reps)
    tally = np.zeros(space.size)
    for ss in streams:
        counts, _ = simulate_slotted(
            model, N, D, (N, 0), t, np.random.default_rng(ss), (t,)
        )
        tally[space.index_of(tuple(counts[-1]))] += 1
    emp = tally / reps
    band = 4.0 * np.sqrt(law * (1 - law) / reps) + 1e-3
    assert np.all(np.abs(emp - law) <= band)


def test_ensemble_zero_rate_reference_gives_zero_mse():
    model = load_model(ZERO_DOC)
    ref = solve(model, "drift", 6, (0.5, 0.5), 10.0)
    config = SimConfig(N=6, init=(3, 3), t_end=10.0, reps=20, seed=1)
    stats = ensemble(model, config, reference=ref)
    assert stats.mse_sup == 0.0
    assert np.all(stats.sup_distances == 0.0)
    assert np.all(stats.stderr == 0.0)


def test_replication_streams_are_spawned_as_they_are_used():
    # spawning all of them first took 36.8 MB at 10^5 reps
    config = SimConfig(N=2, init=(2, 0), t_end=1.0, reps=10**5, seed=9)
    tracemalloc.start()
    try:
        rngs = sim._replication_rngs(config)
        first = [next(rngs) for _ in range(3)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    for got, stream in zip(first, np.random.SeedSequence(9).spawn(3), strict=True):
        want = np.random.default_rng(stream).bit_generator.state
        assert got.bit_generator.state == want


def test_ensemble_matches_manual_replications():
    model = builtin_example()
    config = SimConfig(
        N=15, init=(15, 0), t_end=200.0, reps=5, seed=77,
        sample_times=(0.0, 50.0, 200.0),
    )
    ref = solve(model, "drift", 15, (1.0, 0.0), 200.0)
    stats = ensemble(model, config, reference=ref)
    grid = np.array([0.0, 50.0, 200.0])
    ref_vals = ref.sample(grid)
    streams = np.random.SeedSequence(77).spawn(5)
    occs = []
    sups = []
    jumps = np.zeros((2, 2), dtype=np.int64)
    for ss in streams:
        counts, z = simulate_ctmc(
            model, 15, (15, 0), 200.0, np.random.default_rng(ss), grid
        )
        occ = counts / 15.0
        occs.append(occ)
        sups.append(np.sqrt(((occ - ref_vals) ** 2).sum(axis=1)).max())
        jumps += z
    assert np.allclose(stats.mean, np.mean(occs, axis=0), atol=1e-15)
    assert np.array_equal(stats.sup_distances, np.array(sups))
    assert stats.z_counts.dtype == np.int64
    assert np.array_equal(stats.z_counts, jumps)
    assert jumps.sum() > 0
    assert stats.mse_sup == pytest.approx(np.mean(np.square(sups)), rel=1e-15)


def test_ensemble_mean_agrees_with_lumped_transient():
    model = builtin_example()
    config = SimConfig(
        N=10, init=(10, 0), t_end=200.0, reps=10**4, seed=2,
        sample_times=(0.0, 200.0),
    )
    stats = ensemble(model, config)
    space = enumerate_states(2, 10)
    dist = transient(generator(model, space), point_mass(space, (10, 0)), 200.0)
    want = expected_occupancy(dist)
    gap = np.abs(stats.mean[-1] - want)
    band = 4.0 * np.maximum(stats.stderr[-1], 1e-12)
    assert np.all(gap <= band)


def test_ensemble_aborts_on_failing_replications():
    # the rate turns negative once the second state fills up, so every
    # replication eventually dies and the ensemble reports it
    model = load_model("states = a, b\nrate a -> b : 1 - 3*m[b]\n")
    config = SimConfig(N=4, init=(4, 0), t_end=50.0, reps=50, seed=0)
    with pytest.raises(ModelError, match="replications failed"):
        ensemble(model, config)


# sample times over the horizon [0, 1] that SimConfig and both samplers
# refuse, with the words of the refusal
BAD_SAMPLE_TIMES = {
    "unsorted": ((0.0, 0.5, 0.2), "non-decreasing"),
    "nan": ((0.0, math.nan), "finite"),
    "inf": ((0.0, math.inf), "finite"),
    "empty": ((), "non-empty"),
    "late": ((0.0, 2.0), "within"),
    "negative": ((-0.1, 0.5), "within"),
}


def test_simconfig_validation():
    with pytest.raises(ModelError, match="mode"):
        SimConfig(N=2, init=(2, 0), t_end=1.0, mode="euler")
    with pytest.raises(ModelError, match="replication"):
        SimConfig(N=2, init=(2, 0), t_end=1.0, reps=0)
    with pytest.raises(ModelError, match="resolution"):
        SimConfig(N=2, init=(2, 0), t_end=1.0, mode="slotted")
    for times, words in BAD_SAMPLE_TIMES.values():
        with pytest.raises(ModelError, match=words):
            SimConfig(N=2, init=(2, 0), t_end=1.0, sample_times=times)
    with pytest.raises(ModelError, match="histogram times"):
        SimConfig(N=2, init=(2, 0), t_end=1.0, hist=((2.0, 1),))


SAMPLERS = {
    "ctmc": lambda model, rng, at: simulate_ctmc(model, 2, (2, 0), 1.0, rng, at),
    "slotted": lambda model, rng, at: simulate_slotted(
        model, 2, 10, (2, 0), 1.0, rng, at
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_SAMPLE_TIMES))
@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
def test_samplers_refuse_bad_sample_times(sampler, case):
    times, words = BAD_SAMPLE_TIMES[case]
    with pytest.raises(ModelError, match=words):
        SAMPLERS[sampler](builtin_example(), np.random.default_rng(0), times)


def test_a_sample_time_matrix_gets_the_ode_words():
    times = ((0.0, 0.5), (0.5, 1.0))
    model = builtin_example()
    traj = solve(model, "drift", 2, (1.0, 0.0), 1.0)
    refusals = [
        lambda: SimConfig(N=2, init=(2, 0), t_end=1.0, sample_times=times),
        lambda: traj.sample(times),
    ] + [
        lambda sampler=sampler: sampler(model, np.random.default_rng(0), times)
        for sampler in SAMPLERS.values()
    ]
    for refuse in refusals:
        with pytest.raises(ModelError, match="^sample times must be a vector$"):
            refuse()


def test_path_memory_does_not_grow_with_events():
    # a SIRS path at N=500 over t=100 makes about 25,000 jumps; kept
    # per event, their count vectors alone would take over 0.5 MB
    model = load_model(SIR_MODEL.read_text())
    at = np.linspace(0.0, 100.0, 101)
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        _, z = simulate_ctmc(model, 500, (450, 50, 0), 100.0, rng, at)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert z.sum() > 20000
    assert peak < 0.5e6


def test_ensemble_memory_does_not_grow_with_reps():
    # an ensemble keeps running totals, so reps must not raise its peak;
    # with a reference it keeps 8 bytes of sup distance a replication,
    # and mse_sup squares them once more
    model = builtin_example()
    ref = solve(model, "drift", 1, (1.0, 0.0), 1e-6)

    def peak(reps, reference):
        config = SimConfig(N=1, init=(1, 0), t_end=1e-6, reps=reps, seed=3,
                           sample_times=(0.0, 1e-6))
        tracemalloc.start()
        try:
            ensemble(model, config, reference=reference)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10, ref)  # first-call imports and caches
    for reference, per_rep in ((None, 0), (ref, 16)):
        growth = peak(1050, reference) - peak(50, reference)
        assert growth < 1000 * per_rep + 8000, reference


def test_poisson_fit_exact_pmf_leaves_tail_only():
    lam = 3.0
    ks = np.arange(16)
    pmf = np.exp(ks * math.log(lam) - lam - np.array([math.lgamma(k + 1) for k in ks]))
    tail = 1.0 - pmf.sum()
    assert poisson_marginal_fit(pmf, lam) == pytest.approx(tail, rel=1e-9)


def test_poisson_fit_point_mass_direct_sum():
    lam = 4
    h = np.zeros(11)
    h[lam] = 250
    want = 1.0 - math.exp(-lam) * lam**lam / math.factorial(lam)
    assert poisson_marginal_fit(h, float(lam)) == pytest.approx(want, abs=1e-12)


def test_poisson_fit_zero_rate_and_validation():
    assert poisson_marginal_fit(np.array([10.0, 0.0]), 0.0) == 0.0
    assert poisson_marginal_fit(np.array([0.0, 10.0]), 0.0) == pytest.approx(1.0)
    with pytest.raises(ModelError, match="non-empty"):
        poisson_marginal_fit(np.array([]), 1.0)
    with pytest.raises(ModelError, match="observations"):
        poisson_marginal_fit(np.zeros(4), 1.0)
    with pytest.raises(ModelError, match="Poisson rate"):
        poisson_marginal_fit(np.ones(4), -1.0)


@pytest.mark.parametrize("lam", [0.0, 1e-3, 0.5, 3.0, 17.25, 99.5, 1000.0, 2089.0, 1e4])
def test_poisson_fit_matches_scipy_reference(lam):
    # TV(P, Q) is the sum of (P_k - Q_k)+ over the bins P occupies; Q_k
    # is a difference of scipy's cdf, whose error stays near eps, where
    # poisson.pmf loses about lam*ln(lam)*eps
    rng = np.random.default_rng(int(lam * 8))
    mode = int(lam)
    for size in (max(1, mode // 2), max(1, mode), 2 * mode + 40):
        h = np.zeros(size)
        near = np.clip(rng.poisson(lam, 30), 0, size - 1)
        anywhere = rng.integers(0, size, 5)
        np.add.at(h, np.concatenate([near, anywhere]), rng.integers(1, 9, 35))
        occupied = np.flatnonzero(h)
        pmf = poisson.cdf(occupied, lam) - poisson.cdf(occupied - 1, lam)
        excess = h[occupied] / h.sum() - pmf
        want = float(np.maximum(excess, 0.0).sum())
        assert poisson_marginal_fit(h, lam) == pytest.approx(want, rel=0, abs=1e-12)


def test_generator_check_zero_rates():
    model = load_model(ZERO_DOC)
    config = SimConfig(N=6, init=(3, 3), t_end=10.0, reps=30, seed=4)
    report = generator_check(model, config, (2.0, 8.0))
    assert np.all(report.finite_difference == 0.0)
    assert np.all(report.drift_mean == 0.0)
    assert np.all(report.sigmas == 0.0)
    assert report.ok


def test_generator_check_linear_model():
    # constant rates make the mean dynamics exactly linear, so the
    # finite difference and the drift agree up to Monte Carlo noise
    model = load_model("states = a, b\nrate a -> b : 0.5\nrate b -> a : 0.7\n")
    config = SimConfig(N=20, init=(20, 0), t_end=8.0, reps=3000, seed=21)
    report = generator_check(model, config, (6.0, 8.0))
    assert report.ok, (report.discrepancy, report.stderr)


def test_generator_check_window_validation():
    model = builtin_example()
    config = SimConfig(N=5, init=(5, 0), t_end=10.0, reps=2, seed=0)
    with pytest.raises(ModelError, match="window"):
        generator_check(model, config, (5.0, 11.0))
    with pytest.raises(ModelError, match="window"):
        generator_check(model, config, (7.0, 3.0))


# ------------------------------------------------- memoized jump law


def reference_ctmc(model, N, init, t_end, rng, at):
    """The jump chain one event at a time, as it ran before its law was memoized.

    Rates, their check, the intensities and their fsum are rebuilt at
    every event, and a linear scan of the running sums picks the jump.
    A u that reaches their rounded end takes the first transition whose
    running sum equals it, the last one at which the sum rose.
    """
    counts = np.array(init, dtype=np.int64)
    at = np.asarray(at, dtype=float)
    stops = at.tolist() + [math.inf]
    out = np.empty((at.size, model.n_states), dtype=np.int64)
    table = model._rate_table
    n = model.n_states
    z = np.zeros((n, n), dtype=np.int64)
    pos = 0
    t = 0.0
    while True:
        c = counts.tolist()
        m = [x / N for x in c]
        q = rates_at(table, N, m)
        table.check(q, m, occupied=True)
        weights = table.intensities(q, c)
        total = math.fsum(weights)
        if total <= 0.0:
            break
        t += rng.exponential(1.0 / total)
        if t > t_end:
            break
        u = rng.random() * total
        acc = 0.0
        pick = None
        for k, w in enumerate(weights):
            acc += w
            if u < acc:
                pick = k
                break
        if pick is None:
            running = list(accumulate(weights))
            pick = running.index(running[-1])
        while stops[pos] < t:
            out[pos] = counts
            pos += 1
        i, j = table.sources[pick], table.targets[pick]
        counts[i] -= 1
        counts[j] += 1
        z[i, j] += 1
    out[pos:] = counts
    return out, z


REFERENCE_CASES = {
    "bundled": (builtin_example, 40, (40, 0), 300.0),
    "contention": (
        lambda: load_model(CONTENTION_MODEL.read_text()), 30, (30, 0, 0), 60.0
    ),
    "sirs": (lambda: load_model(SIR_MODEL.read_text()), 200, (180, 20, 0), 20.0),
    "excused": (lambda: load_model(EXCUSED_DOC), 6, (6, 0), 20.0),
}


@pytest.mark.parametrize("cap", [sim._MEMO_CAP, 2])
@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_ctmc_matches_per_event_reference(monkeypatch, case, cap):
    # a cap of 2 makes the memo start over every few events
    monkeypatch.setattr(sim, "_MEMO_CAP", cap)
    make, N, init, t_end = REFERENCE_CASES[case]
    model = make()
    at = np.linspace(0.0, t_end, 41)
    shared = sim._JumpLaw(model, N)
    events = 0
    for seed in range(4):
        want = reference_ctmc(model, N, init, t_end, np.random.default_rng(seed), at)
        alone = simulate_ctmc(model, N, init, t_end, np.random.default_rng(seed), at)
        after = sim._jump_path(shared, init, t_end, np.random.default_rng(seed), at)
        for got in (alone, after):
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
        events += int(want[1].sum())
        if case == "excused":
            assert np.any(want[0][:, 0] == 0)
    assert events > 100
    assert len(shared.memo) <= cap


class EdgeDraws:
    """A generator stub: every holding time is 0.6, every u is 1 - 2**-53."""

    def exponential(self, scale):
        return 0.6

    def random(self):
        return 1.0 - 2.0**-53


def test_a_pick_past_the_rounded_sum_never_leaves_an_empty_state():
    # at (1, 1, 0) the weights are (1, 2**-53, 2**-53, 0): every running
    # sum rounds to 1, their fsum is 1 + 2**-52, and u*total rounds to 1,
    # past every running sum.  The last transition, c -> a, has an empty
    # source; the pick goes to a -> b, the last at which the sum rose.
    tiny = 2.0**-53
    model = load_model(
        f"states = a, b, c\nrate a -> b : 1\nrate a -> c : {tiny!r}\n"
        f"rate b -> a : {tiny!r}\nrate c -> a : 1\n"
    )
    total, cum = sim._JumpLaw(model, 2)((1, 1, 0))
    assert (total, cum) == (1.0 + 2.0**-52, (1.0,) * 4)
    assert EdgeDraws().random() * total == cum[-1]
    want = ([[1, 1, 0], [0, 2, 0]], [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    for path in (simulate_ctmc, reference_ctmc):
        counts, z = path(model, 2, (1, 1, 0), 1.0, EdgeDraws(), (0.0, 1.0))
        assert (counts.tolist(), z.tolist()) == want


class WatchedMemo(dict):
    """A memo that remembers every key it held and its largest size."""

    def __init__(self):
        super().__init__()
        self.seen = set()
        self.peak = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.seen.add(key)
        self.peak = max(self.peak, len(self))


def test_jump_law_memo_stays_within_its_cap():
    model = load_model(SIR_MODEL.read_text())
    law = sim._JumpLaw(model, 500)
    law.memo = memo = WatchedMemo()
    at = np.linspace(0.0, 100.0, 101)
    sim._jump_path(law, (450, 50, 0), 100.0, np.random.default_rng(0), at)
    # the path visits more count vectors than the memo may hold
    assert len(memo.seen) > sim._MEMO_CAP
    assert memo.peak <= sim._MEMO_CAP
    assert 0 < len(memo) <= sim._MEMO_CAP


def test_jump_law_never_stores_a_refused_vector():
    law = sim._JumpLaw(load_model(RANGE_DOC), 6)
    with pytest.raises(RateError, match="a -> b"):
        law((3, 3))
    assert law.memo == {}
    total, cum = law((6, 0))
    assert list(law.memo) == [(6, 0)]
    assert (total, cum) == (6.0, (6.0, 6.0))


def test_ensemble_failures_match_per_replication_paths():
    model = load_model(RANGE_DOC)
    config = SimConfig(
        N=6, init=(6, 0), t_end=1.0, reps=60, seed=5, sample_times=(0.0, 1.0)
    )
    failed = []
    for ss in np.random.SeedSequence(5).spawn(60):
        try:
            simulate_ctmc(model, 6, (6, 0), 1.0, np.random.default_rng(ss), (0.0, 1.0))
        except ModelError as exc:
            failed.append(str(exc))
    assert 0 < len(failed) < 60
    with pytest.raises(ModelError) as info:
        ensemble(model, config)
    assert str(info.value) == (
        f"{len(failed)} of 60 replications failed; first failure: {failed[0]}"
    )


def test_ensemble_and_generator_check_build_one_jump_law_each(monkeypatch):
    built = []

    class CountedLaw(sim._JumpLaw):
        def __init__(self, model, N):
            built.append(N)
            super().__init__(model, N)

    monkeypatch.setattr(sim, "_JumpLaw", CountedLaw)
    config = SimConfig(N=10, init=(10, 0), t_end=5.0, reps=100, seed=1)
    ensemble(builtin_example(), config)
    generator_check(builtin_example(), config, (1.0, 2.0))
    assert built == [10, 10]


# ------------------------------------------------- memoized slot law


def reference_slotted(model, N, D, init, t_end, rng, at):
    """The slotted path as it ran before its law was memoized.

    Rates, their check and the slot rows are rebuilt at every moving
    slot, and a scan over the block's slots finds the first one in
    which an agent left its source.
    """
    counts = np.array(init, dtype=np.int64)
    at = np.asarray(at, dtype=float)
    stops = at.tolist() + [math.inf]
    out = np.empty((at.size, model.n_states), dtype=np.int64)
    table = model._rate_table
    n = model.n_states
    z = np.zeros((n, n), dtype=np.int64)
    n_slots = int(math.floor(t_end * D + 1e-9))
    pos = 0
    slot = 0
    while slot < n_slots:
        c = counts.tolist()
        m = [x / N for x in c]
        q = rates_at(table, N, m)
        table.check(q, m, occupied=True)
        rows = []
        stay_all = 1.0
        for i, ks in enumerate(table.out):
            if c[i] == 0:
                continue
            probs, total = table.slot_row(q[ks.start:ks.stop], i, D)
            if total <= 0.0:
                continue
            pvec = np.array(probs + [max(0.0, 1.0 - total)])
            rows.append((i, [table.targets[k] for k in ks], pvec))
            stay_all *= (1.0 - total) ** c[i]
        p_move = 1.0 - stay_all
        if p_move <= 0.0:
            break
        block_cap = max(1, min(sim._SLOT_BLOCK, int(0.5 / p_move) + 1))
        while slot < n_slots:
            block = min(block_cap, n_slots - slot)
            draws = [rng.multinomial(c[i], pvec, size=block) for i, _, pvec in rows]
            first = next(
                (s for s in range(block)
                 if any(d[s, -1] != c[i] for (i, _, _), d in zip(rows, draws))),
                None,
            )
            if first is None:
                slot += block
                continue
            slot += first + 1
            while stops[pos] < slot / D:
                out[pos] = counts
                pos += 1
            for (i, targets, _), d in zip(rows, draws):
                for col, j in enumerate(targets):
                    k = d[first, col]
                    counts[i] -= k
                    counts[j] += k
                    z[i, j] += k
            break
    out[pos:] = counts
    return out, z


SLOTTED_CASES = {
    "bundled": (builtin_example, 40, 10, (40, 0), 400.0),
    "sirs": (lambda: load_model(SIR_MODEL.read_text()), 200, 20, (180, 20, 0), 10.0),
    "excused": (lambda: load_model(EXCUSED_DOC), 6, 10, (6, 0), 20.0),
    # about 250 slots per block, past the list scan
    "long_blocks": (lambda: load_model(FAST_DOC), 4, 4000, (4, 0), 10.0),
}


@pytest.mark.parametrize("cap", [sim._MEMO_CAP, 2])
@pytest.mark.parametrize("case", sorted(SLOTTED_CASES))
def test_slotted_matches_per_slot_reference(monkeypatch, case, cap):
    # a cap of 2 makes the memo start over every few moving slots
    monkeypatch.setattr(sim, "_MEMO_CAP", cap)
    make, N, D, init, t_end = SLOTTED_CASES[case]
    model = make()
    at = np.linspace(0.0, t_end, 41)
    shared = sim._SlotLaw(model, N, D)
    jumps = 0
    for seed in range(4):
        want = reference_slotted(model, N, D, init, t_end, np.random.default_rng(seed), at)
        alone = simulate_slotted(model, N, D, init, t_end, np.random.default_rng(seed), at)
        after = sim._slot_path(shared, init, t_end, np.random.default_rng(seed), at)
        for got in (alone, after):
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
        jumps += int(want[1].sum())
        if case == "excused":
            assert np.any(want[0][:, 0] == 0)
        if case == "long_blocks":
            assert all(block > sim._LIST_SCAN for _, _, block in shared.memo.values())
    assert jumps > 100
    assert 0 < len(shared.memo) <= cap


# b -> a's slot probability at D=5 passes 1 once b holds more than 40%
COARSE_DOC = "states = a, b\nrate a -> b : 1\nrate b -> a : 1 + 10*m[b]\n"
REFUSALS = {
    "coarse": (COARSE_DOC, 5, SlotResolutionError),
    "negative": (RANGE_DOC, 10, RateError),
}


@pytest.mark.parametrize("cap", [sim._MEMO_CAP, 2])
@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_slot_law_refuses_as_the_reference_does_and_never_stores_a_refusal(
    monkeypatch, case, cap
):
    monkeypatch.setattr(sim, "_MEMO_CAP", cap)
    doc, D, error = REFUSALS[case]
    model = load_model(doc)
    at = (0.0, 1.0, 2.0)
    shared = sim._SlotLaw(model, 6, D)
    refused = 0
    for seed in range(12):
        try:
            want = reference_slotted(model, 6, D, (6, 0), 2.0, np.random.default_rng(seed), at)
        except error as exc:
            refused += 1
            with pytest.raises(error) as info:
                sim._slot_path(shared, (6, 0), 2.0, np.random.default_rng(seed), at)
            assert str(info.value) == str(exc)
        else:
            got = sim._slot_path(shared, (6, 0), 2.0, np.random.default_rng(seed), at)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
        # both refusals start where b holds half the agents
        assert all(key[1] < 3 for key in shared.memo)
        assert 0 < len(shared.memo) <= cap
    assert 2 <= refused < 12
    with pytest.raises(error):
        shared((3, 3))
    assert (3, 3) not in shared.memo


def test_kept_slot_rows_are_read_only():
    law = sim._SlotLaw(builtin_example(), 10, 10)
    rows, p_move, block_cap = law((6, 4))
    assert [(i, ci, targets) for i, ci, targets, _ in rows] == [(0, 6, [1]), (1, 4, [0])]
    assert 0.0 < p_move < 1.0 and 1 <= block_cap <= sim._SLOT_BLOCK
    for *_, pvec in rows:
        assert not pvec.flags.writeable
        assert pvec.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("make", [
    lambda model: sim._JumpLaw(model, 6),
    lambda model: sim._SlotLaw(model, 6, 10),
], ids=["jump", "slot"])
def test_a_full_law_memo_starts_over(monkeypatch, make):
    monkeypatch.setattr(sim, "_MEMO_CAP", 2)
    law = make(load_model(RANGE_DOC))
    for key in [(6, 0), (5, 1), (6, 0), (4, 2)]:
        law(key)
    assert list(law.memo) == [(4, 2)]


def test_slotted_path_memory_stays_bounded_past_the_memo_cap():
    # a SIRS slotted path at N=500 over t=200 visits about 2,300 count
    # vectors; a kept slot law takes about 0.9 kB, so the memo at its cap
    # holds about 0.95 MB and one that never started over about 2.1 MB
    model = load_model(SIR_MODEL.read_text())
    at = np.linspace(0.0, 200.0, 101)
    watched = sim._SlotLaw(model, 500, 20)
    watched.memo = memo = WatchedMemo()
    sim._slot_path(watched, (450, 50, 0), 200.0, np.random.default_rng(0), at)
    assert len(memo.seen) > 2 * sim._MEMO_CAP
    assert memo.peak <= sim._MEMO_CAP
    # the same path on a plain memo, traced once one-time allocations are made
    law = sim._SlotLaw(model, 500, 20)
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        sim._slot_path(law, (450, 50, 0), 200.0, rng, at)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_slotted_ensemble_and_generator_check_build_one_slot_law_each(monkeypatch):
    built = []

    class CountedLaw(sim._SlotLaw):
        def __init__(self, model, N, D):
            built.append((N, D))
            super().__init__(model, N, D)

    monkeypatch.setattr(sim, "_SlotLaw", CountedLaw)
    config = SimConfig(
        N=10, init=(10, 0), t_end=5.0, reps=100, seed=1, mode="slotted", resolution=10
    )
    ensemble(builtin_example(), config)
    generator_check(builtin_example(), config, (1.0, 2.0))
    assert built == [(10, 10), (10, 10)]


def test_generator_check_builds_one_drift_field(monkeypatch):
    # every replication's midpoint drift comes from one field; the
    # package's name popdrift.drift is the function, hence import_module
    drift_module = importlib.import_module("popdrift.drift")
    built = []
    real = drift_module._field

    def counted(kind, N, *kernels):
        built.append(kind)
        return real(kind, N, *kernels)

    monkeypatch.setattr(drift_module, "_field", counted)
    config = SimConfig(N=10, init=(10, 0), t_end=5.0, reps=50, seed=1)
    generator_check(builtin_example(), config, (1.0, 2.0))
    assert built == ["drift"]


def test_generator_check_keeps_its_recorded_values():
    # recorded while every event still rebuilt its own jump law
    config = SimConfig(N=50, init=(50, 0), t_end=6.0, reps=200, seed=3)
    report = generator_check(builtin_example(), config, (5.0, 6.0))
    assert [x.hex() for x in report.discrepancy.tolist()] == [
        "-0x1.f4635e48d5761p-14", "0x1.f4635e48d570ap-14",
    ]
    assert [x.hex() for x in report.stderr.tolist()] == [
        "0x1.c7b37b107c056p-12", "0x1.c7b37b107c050p-12",
    ]


def test_simconfig_and_validate_refuse_a_negative_seed():
    with pytest.raises(ModelError, match="seed must be non-negative, got -1"):
        SimConfig(N=2, init=(2, 0), t_end=1.0, seed=-1)
    with pytest.raises(ModelError, match="seed must be non-negative, got -1"):
        validate(builtin_example(), 100.0, seed=-1)


# config fields an ensemble refuses before its first replication, with
# the words of the refusal
BAD_CONFIGS = {
    "N": ({"N": 5.5}, "N must be an integer, got 5.5"),
    "reps": ({"reps": 2.5}, "reps must be an integer, got 2.5"),
    "seed": ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    "init": ({"init": (4, 0)}, "counts must sum to N=5, got 4"),
}


@pytest.mark.parametrize("mode", ["ctmc", "slotted"])
@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_ensemble_refuses_a_bad_config_before_any_replication(case, mode, monkeypatch):
    def path(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(sim, "_jump_path", path)
    monkeypatch.setattr(sim, "_slot_path", path)
    monkeypatch.setattr(sim, "simulate_slotted", path)
    changes, words = BAD_CONFIGS[case]
    fields = dict(N=5, init=(5, 0), t_end=1.0, reps=1000, mode=mode, resolution=10)
    with pytest.raises(ModelError, match=words):
        ensemble(builtin_example(), SimConfig(**{**fields, **changes}))


def test_simconfig_takes_numpy_integers():
    config = SimConfig(
        N=np.int64(5), init=(5, 0), t_end=1.0, reps=np.int32(3), seed=np.uint8(2)
    )
    assert ensemble(builtin_example(), config).reps == 3


def test_simconfig_refuses_a_non_integer_slotted_resolution():
    with pytest.raises(ModelError, match="integer time resolution"):
        SimConfig(N=5, init=(5, 0), t_end=10.0, reps=3, mode="slotted", resolution=2.5)


# library integer arguments that SimConfig would refuse, with the words
# of the refusal; each once got through or failed with a bare error
RESOLUTION = "slotted mode needs an integer time resolution D >= 1, got nan"
BAD_INTEGERS = {
    "counts N<0": (lambda model: largest_remainder_counts((0.5, 0.5), -3),
                   "N must be non-negative, got -3"),
    "counts N=2.5": (lambda model: largest_remainder_counts((0.5, 0.5), 2.5),
                     "N must be an integer, got 2.5"),
    "validate samples": (lambda model: validate(model, 10, sample_count=2.5),
                         "sample_count must be an integer, got 2.5"),
    "validate seed": (lambda model: validate(model, 10, seed=1.5),
                      "seed must be an integer, got 1.5"),
    "simulate_slotted D": (lambda model: simulate_slotted(
        model, 5, math.nan, (5, 0), 1.0, np.random.default_rng(0), (1.0,)),
        RESOLUTION),
    "slot_probability D": (lambda model: slot_probability(
        model, 5, (0.5, 0.5), "idle", "backoff", math.nan), RESOLUTION),
    "SimConfig D": (lambda model: SimConfig(
        N=5, init=(5, 0), t_end=1.0, mode="slotted", resolution=math.nan),
        RESOLUTION),
}


@pytest.mark.parametrize("case", sorted(BAD_INTEGERS))
def test_library_integer_arguments_are_refused_as_simconfig_refuses_them(case):
    call, words = BAD_INTEGERS[case]
    with pytest.raises(ModelError) as err:
        call(builtin_example())
    assert str(err.value) == words


def test_simconfig_refuses_a_non_integer_histogram_state_index():
    with pytest.raises(ModelError, match="histogram state index must be an integer"):
        SimConfig(N=5, init=(5, 0), t_end=10.0, reps=3, hist=((0.5, 1.5),))
