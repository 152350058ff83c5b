"""Path generators, ensembles, Poisson fit, mean-dynamics check."""

import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from popdrift.errors import ModelError, SlotResolutionError
from popdrift.exact import (
    enumerate_states,
    expected_occupancy,
    generator,
    point_mass,
    transient,
)
from popdrift.model import builtin_example, load_model, slot_probability
from popdrift.odesolve import solve
from popdrift.sim import (
    SimConfig,
    ensemble,
    generator_check,
    poisson_marginal_fit,
    simulate_ctmc,
    simulate_slotted,
)

ZERO_DOC = "states = a, b\nrate a -> b : 0\n"
FAST_DOC = "states = a, b\nrate a -> b : 2 + m[b]\nrate b -> a : 1 + 0.5*m[a]\n"
SIR_MODEL = pathlib.Path(__file__).parents[1] / "perfbench" / "models" / "sir.pop"


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
    for ss in streams:
        counts, _ = simulate_ctmc(
            model, 15, (15, 0), 200.0, np.random.default_rng(ss), grid
        )
        occ = counts / 15.0
        occs.append(occ)
        sups.append(np.sqrt(((occ - ref_vals) ** 2).sum(axis=1)).max())
    assert np.allclose(stats.mean, np.mean(occs, axis=0), atol=1e-15)
    assert np.array_equal(stats.sup_distances, np.array(sups))
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
