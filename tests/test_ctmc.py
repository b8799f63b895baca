import numpy as np
import pytest
from scipy import stats as sp_stats

from helpers import AbsorbingStateLoop, EmptyInterval, default_omega, gillespie_sample, matrix_exponential, sample_virtual_times
from smjp.core import Alphabet, SmjpError, derive_rng, validate_generator
from smjp.ctmc import (
    NO_OBSERVATION,
    TAG_EVENT,
    TAG_VIRTUAL,
    NonMonotoneTimestamps,
    OmegaTooSmall,
    VirtualTimeOverflow,
    build_time_grid,
    uniformize,
)
from smjp.events import EventSequence

from test_core import random_generator


def make_sequence(times, obs=None, act=None):
    times = np.asarray(times, dtype=np.float64)
    n = times.shape[0]
    return EventSequence(
        "t",
        times,
        np.zeros(n, dtype=np.int64) if obs is None else np.asarray(obs),
        np.zeros(n, dtype=np.int64) if act is None else np.asarray(act),
        Alphabet("observation", ("o0", "o1")),
        Alphabet("action", ("a0", "a1")),
    )


class TestGillespie:
    def test_zero_generator_never_jumps(self):
        g = validate_generator(np.zeros((3, 3)))
        traj = gillespie_sample(g, 1, 100.0, seed=0)
        assert traj.n_jumps == 0
        assert traj.states.tolist() == [1]

    def test_absorbing_state_infinite_horizon(self):
        g = validate_generator(np.zeros((2, 2)))
        with pytest.raises(AbsorbingStateLoop):
            gillespie_sample(g, 0, np.inf, seed=0)

    def test_holding_times_exponential(self):
        # Empirical law of the symmetric 2-state chain with unit rates.
        g = validate_generator([[-1.0, 1.0], [1.0, -1.0]])
        traj = gillespie_sample(g, 0, 12000.0, seed=123)
        holds = traj.holding_times()
        assert holds.size > 5000
        assert abs(holds.mean() - 1.0) < 0.05
        ks = sp_stats.kstest(holds, "expon", args=(0.0, 1.0))
        assert ks.pvalue > 0.01

    def test_destination_counts_multinomial(self):
        rates = np.array([
            [-3.0, 1.0, 2.0],
            [0.5, -2.0, 1.5],
            [2.0, 2.0, -4.0],
        ])
        g = validate_generator(rates)
        counts = np.zeros((3, 3))
        traj = gillespie_sample(g, 0, 40000.0, seed=7)
        for a, b in zip(traj.states[:-1], traj.states[1:]):
            counts[a, b] += 1
        assert counts.sum() > 1e5
        for s in range(3):
            total = counts[s].sum()
            for d in range(3):
                if d == s:
                    continue
                p = rates[s, d] / -rates[s, s]
                sigma = np.sqrt(total * p * (1 - p))
                assert abs(counts[s, d] - total * p) < 3 * sigma

    def test_no_self_jumps(self):
        rng = derive_rng(2)
        g = random_generator(rng, 4)
        traj = gillespie_sample(g, 0, 200.0, seed=5)
        assert np.all(np.diff(traj.states) != 0)
        assert np.all(np.diff(traj.jump_times) > 0)
        assert traj.jump_times[-1] < 200.0


class TestUniformize:
    def test_direct_arithmetic(self):
        g = validate_generator([[-1.0, 1.0], [2.0, -2.0]])
        b = uniformize(g, 2.0)
        assert np.allclose(b.probs, [[0.5, 0.5], [1.0, 0.0]], atol=1e-15)

    def test_zero_generator_gives_identity(self):
        g = validate_generator(np.zeros((3, 3)))
        assert np.array_equal(uniformize(g, 5.0).probs, np.eye(3))

    def test_omega_too_small(self):
        g = validate_generator([[-1.0, 1.0], [2.0, -2.0]])
        with pytest.raises(OmegaTooSmall):
            uniformize(g, 1.5)
        with pytest.raises(OmegaTooSmall):
            uniformize(g, 0.0)

    def test_default_omega_factor(self):
        g = validate_generator([[-1.0, 1.0], [2.0, -2.0]])
        assert default_omega(g) == 4.0
        assert default_omega([g, validate_generator(np.zeros((2, 2)))]) == 4.0
        assert default_omega(validate_generator(np.zeros((2, 2)))) == 1.0

    def test_poisson_mixture_reproduces_transition_matrix(self):
        # Mix the chain's n-step kernels with Poisson(omega*t) weights and
        # compare against the exact continuous-time transition matrix.
        rng = derive_rng(31)
        for trial in range(8):
            n = int(rng.integers(2, 5))
            g = random_generator(rng, n)
            omega = default_omega(g)
            t = float(rng.uniform(0.5, 2.0)) / g.max_exit_rate
            b = uniformize(g, omega).probs
            mu = omega * t
            nmax = int(sp_stats.poisson.ppf(1 - 1e-12, mu)) + 1
            weights = sp_stats.poisson.pmf(np.arange(nmax + 1), mu)
            acc = np.zeros((n, n))
            power = np.eye(n)
            for k in range(nmax + 1):
                acc += weights[k] * power
                power = power @ b
            expected = matrix_exponential(g, t).probs
            assert np.abs(acc - expected).max() < 1e-6

    def test_monte_carlo_step_count_mixture(self):
        # Sample jump counts from the Poisson clock, mix the exact n-step
        # rows, and compare the time-t state marginal in total variation.
        rng = derive_rng(77)
        g = random_generator(rng, 3)
        omega = default_omega(g)
        t = 1.0 / g.max_exit_rate
        b = uniformize(g, omega).probs
        counts = rng.poisson(omega * t, size=100_000)
        nmax = counts.max()
        powers = [np.eye(3)]
        for _ in range(nmax):
            powers.append(powers[-1] @ b)
        freq = np.bincount(counts, minlength=nmax + 1) / counts.size
        marginal = sum(f * p[0] for f, p in zip(freq, powers))
        expected = matrix_exponential(g, t).probs[0]
        assert 0.5 * np.abs(marginal - expected).sum() < 1e-3


class TestSampleVirtualTimes:
    def test_empty_interval_rejected(self):
        with pytest.raises(EmptyInterval):
            sample_virtual_times(1.0, (2.0, 2.0), seed=0)

    def test_tiny_rate_usually_empty(self):
        empties = sum(
            sample_virtual_times(1e-6, (0.0, 1.0), seed=s).size == 0 for s in range(50)
        )
        assert empties == 50

    def test_poisson_count_statistics(self):
        total = 0
        for s in range(1000):
            total += sample_virtual_times(10.0, (0.0, 100.0), seed=s).size
        mean = total / 1000
        assert 970 <= mean <= 1030

    def test_adjacent_intervals_behave_like_union(self):
        # Counts over [0,1) and [1,2) from independent draws sum like one
        # Poisson over [0,2); compare manually via moments.
        rng = derive_rng(4)
        counts = []
        for s in range(2000):
            a = sample_virtual_times(5.0, (0.0, 1.0), derive_rng(s, 0)).size
            b = sample_virtual_times(5.0, (1.0, 2.0), derive_rng(s, 1)).size
            counts.append(a + b)
        counts = np.asarray(counts)
        assert abs(counts.mean() - 10.0) < 3 * np.sqrt(10.0 / 2000)
        assert abs(counts.var() - 10.0) < 1.5

    def test_sorted_within_bounds(self):
        times = sample_virtual_times(50.0, (3.0, 7.0), seed=2)
        assert np.all(np.diff(times) > 0)
        assert times.min() > 3.0 and times.max() < 7.0

    def test_overflow_guard(self):
        with pytest.raises(VirtualTimeOverflow):
            sample_virtual_times(1e9, (0.0, 1e5), seed=0)


class TestBuildTimeGrid:
    def test_tiny_omega_grid_equals_events(self):
        seq = make_sequence([1.0, 2.0, 3.5])
        grid = build_time_grid(seq, 1e-9, seed=0)
        assert np.array_equal(grid.times, seq.times)
        assert np.all(grid.tags == TAG_EVENT)

    def test_event_times_bit_identical(self):
        rng = derive_rng(8)
        times = np.cumsum(rng.exponential(1.0, size=200))
        seq = make_sequence(times)
        grid = build_time_grid(seq, 3.0, seed=1)
        ev = grid.tags == TAG_EVENT
        assert np.array_equal(grid.times[ev], times)
        assert np.all(grid.observations[~ev] == NO_OBSERVATION)

    def test_expected_virtual_count(self):
        seq = make_sequence([1.0, 2.0])
        counts = [np.sum(build_time_grid(seq, 5.0, seed=s).tags == TAG_VIRTUAL) for s in range(600)]
        mean = float(np.mean(counts))
        assert abs(mean - 5.0) < 3 * np.sqrt(5.0 / 600)

    def test_virtual_points_inherit_interval_action(self):
        seq = make_sequence([0.0, 1.0, 2.0], act=[1, 0, 1])
        grid = build_time_grid(seq, 20.0, seed=3)
        for i in range(len(grid)):
            if grid.tags[i] == TAG_VIRTUAL:
                t = grid.times[i]
                assert grid.actions[i] == (1 if t < 1.0 else 0)

    def test_non_monotone_rejected(self):
        seq = make_sequence([1.0, 2.0])
        object.__setattr__(seq, "times", np.array([2.0, 1.0]))
        with pytest.raises(NonMonotoneTimestamps):
            build_time_grid(seq, 1.0, seed=0)

    def test_fresh_seed_fresh_grid(self):
        seq = make_sequence(np.linspace(0, 30, 40))
        g1 = build_time_grid(seq, 2.0, seed=1)
        g2 = build_time_grid(seq, 2.0, seed=2)
        assert not np.array_equal(g1.times, g2.times)
        assert np.array_equal(g1.times[g1.tags == TAG_EVENT], g2.times[g2.tags == TAG_EVENT])


def reference_grid(seq, omega, rng):
    """Loop reference for build_time_grid: one Poisson draw of every
    interval's count on the shared stream ``rng``, then, interval by
    interval, its k points at lo + (hi - lo) * j/(k+1), j = 1..k, skipping
    a point that rounding puts on an endpoint or on the point before."""
    n = len(seq.times)
    counts = rng.poisson(omega * np.diff(seq.times))
    times, tags, obs, acts = [], [], [], []
    for i in range(n):
        times.append(seq.times[i])
        tags.append(TAG_EVENT)
        obs.append(seq.observations[i])
        acts.append(seq.actions[i])
        if i + 1 < n:
            lo, hi, k = seq.times[i], seq.times[i + 1], int(counts[i])
            last = lo
            for j in range(1, k + 1):
                t = lo + (hi - lo) * (j / (k + 1))
                if last < t < hi:
                    times.append(t)
                    tags.append(TAG_VIRTUAL)
                    obs.append(NO_OBSERVATION)
                    acts.append(seq.actions[i])
                    last = t
    return (
        np.asarray(times, dtype=np.float64),
        np.asarray(tags, dtype=np.int8),
        np.asarray(obs, dtype=np.int64),
        np.asarray(acts, dtype=np.int64),
    )


def assert_same_stream_and_grid(seqs_and_omegas, seed):
    """build_time_grid on one Generator matches the loop reference on a
    twin Generator bit for bit, and both streams stay in lockstep."""
    ref_rng, rng = derive_rng(seed, 2), derive_rng(seed, 2)
    for seq, omega in seqs_and_omegas:
        want = reference_grid(seq, omega, ref_rng)
        grid = build_time_grid(seq, omega, rng)
        for field, expected in zip(("times", "tags", "observations", "actions"), want):
            got = getattr(grid, field)
            assert got.dtype == expected.dtype, field
            assert np.array_equal(got, expected), field
        np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)


class TestGridStream:
    def test_random_sequences_match_reference(self):
        rng = derive_rng(31)
        cases = []
        for scale, omega in ((0.05, 3.0), (1.0, 0.7), (1.0, 2.0), (4.0, 5.0)):
            n = int(rng.integers(50, 200))
            times = 0.5 + np.cumsum(rng.exponential(scale, size=n))
            cases.append((make_sequence(times, rng.integers(0, 2, n), rng.integers(0, 2, n)), omega))
        assert_same_stream_and_grid(cases, seed=1)

    def test_zero_draw_intervals(self):
        seq = make_sequence(np.linspace(1.0, 20.0, 30), act=np.arange(30) % 2)
        assert_same_stream_and_grid([(seq, 1e-9), (seq, 0.05)], seed=2)

    def test_large_expected_count_branch(self):
        # omega * dt >= 10 takes numpy's other Poisson sampler.
        seq = make_sequence([0.0, 1.0, 3.0, 3.5, 10.0], act=[0, 1, 0, 1, 1])
        assert_same_stream_and_grid([(seq, 12.0), (seq, 40.0)], seed=3)

    def test_single_event_and_empty_sequence(self):
        one = make_sequence([2.5], obs=[1], act=[1])
        empty = make_sequence([])
        assert_same_stream_and_grid([(one, 3.0), (empty, 3.0), (one, 3.0)], seed=4)
        grid = build_time_grid(one, 3.0, seed=0)
        assert np.array_equal(grid.times, [2.5]) and grid.observations[0] == 1
        assert len(build_time_grid(empty, 3.0, seed=0)) == 0

    def test_counts_are_one_poisson_draw_and_points_evenly_placed(self):
        rng = derive_rng(32)
        times = 0.5 + np.cumsum(rng.exponential(1.0, size=300))
        seq = make_sequence(times, act=rng.integers(0, 2, 300))
        omega = 3.0
        counts = derive_rng(7).poisson(omega * np.diff(times))
        grid = build_time_grid(seq, omega, derive_rng(7))
        ev = grid.event_indices
        assert np.array_equal(np.diff(ev) - 1, counts)
        for i, (a, b) in enumerate(zip(ev[:-1], ev[1:])):
            pts = grid.times[a + 1 : b]
            k = pts.size
            assert np.all((pts > times[i]) & (pts < times[i + 1]))
            assert np.array_equal(pts, times[i] + (times[i + 1] - times[i]) * (np.arange(1, k + 1) / (k + 1)))

    def test_points_on_endpoints_are_dropped(self):
        # A one-ulp interval: every evenly placed point rounds onto an
        # endpoint, so the strict-interior rule alone keeps virtual points
        # off events.
        a, b = 1.0, np.nextafter(1.0, 2.0)
        seq = make_sequence([a, b], obs=[0, 1], act=[1, 0])
        omega = 5.0 / (b - a)
        drew = 0
        for s in range(20):
            grid = build_time_grid(seq, omega, derive_rng(s))
            assert np.array_equal(grid.times, [a, b])
            assert np.array_equal(grid.tags, [TAG_EVENT, TAG_EVENT])
            assert np.array_equal(grid.observations, [0, 1])
            drew += derive_rng(s).poisson(omega * (b - a)) > 0
        assert drew >= 15
        assert_same_stream_and_grid([(seq, omega)] * 5, seed=5)

    def test_points_that_round_together_are_dropped(self):
        # Four ulps hold three interior floats; fifty points round onto
        # them (and the endpoints) many times over.
        a = 1.0
        b = a + 4 * (np.nextafter(a, 2.0) - a)
        seq = make_sequence([a, b])
        grid = build_time_grid(seq, 50.0 / (b - a), derive_rng(0))
        assert np.array_equal(grid.times[1:-1], [np.nextafter(a, 2.0) + i * (np.nextafter(a, 2.0) - a)
                                                 for i in range(3)])
        assert_same_stream_and_grid([(seq, 50.0 / (b - a))] * 5, seed=6)

    def test_validation_precedes_any_draw(self):
        rng = derive_rng(6)
        before = rng.bit_generator.state
        with pytest.raises(SmjpError, match="non-negative"):
            build_time_grid(make_sequence([-1.0, 1.0]), 1.0, rng)
        with pytest.raises(OmegaTooSmall):
            build_time_grid(make_sequence([0.0, 1.0]), 0.0, rng)
        with pytest.raises(VirtualTimeOverflow, match="interval 2 "):
            build_time_grid(make_sequence([0.0, 1.0, 2.0, 1e6, 2e6]), 50.0, rng)
        np.testing.assert_equal(rng.bit_generator.state, before)
        # With no interval there is nothing to validate or draw.
        assert len(build_time_grid(make_sequence([1.0]), -1.0, rng)) == 1

    def test_overflow_message_prints_plain_floats(self):
        with pytest.raises(VirtualTimeOverflow) as err:
            build_time_grid(make_sequence([0.0, 1.0, 2.0, 1e6, 2e6]), 50.0, derive_rng(0))
        assert str(err.value) == (
            "5e+07 expected virtual points in interval 2 (2.0, 1000000.0); "
            "omega or the interval length is misconfigured"
        )


class TestUniformizationInvariant:
    def test_poisson_quantile_sum_matches_exponential(self):
        rng = derive_rng(55)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            g = random_generator(rng, n)
            omega = default_omega(g)
            b = uniformize(g, omega).probs
            for scale in (0.1, 1.0, 10.0):
                t = scale / g.max_exit_rate
                mu = omega * t
                nmax = int(sp_stats.poisson.ppf(1 - 1e-12, mu)) + 1
                w = sp_stats.poisson.pmf(np.arange(nmax + 1), mu)
                acc = np.zeros((n, n))
                power = np.eye(n)
                for k in range(nmax + 1):
                    acc += w[k] * power
                    power = power @ b
                assert np.abs(acc - matrix_exponential(g, t).probs).max() < 1e-6
