import numpy as np
import pytest
from scipy import stats as sp_stats

from helpers import (
    AbsorbingStateLoop,
    EmptyInterval,
    default_omega,
    gillespie_sample,
    matrix_exponential,
    points,
    sample_virtual_times,
)
from smjp.core import Alphabet, SmjpError, derive_rng, validate_generator
from smjp.ctmc import TimeGrid, build_time_grid, uniformize
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
        with pytest.raises(SmjpError, match=r"^omega=1\.5 below max exit rate 2\.0$"):
            uniformize(g, 1.5)
        with pytest.raises(SmjpError, match=r"^omega=0\.0 below max exit rate 2\.0$"):
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
        with pytest.raises(SmjpError, match=r"^1e\+14 expected virtual points in one interval; "):
            sample_virtual_times(1e9, (0.0, 1e5), seed=0)


class TestBuildTimeGrid:
    def test_tiny_omega_grid_equals_events(self):
        seq = make_sequence([1.0, 2.0, 3.5])
        grid = build_time_grid(seq, 1e-9, seed=0)
        assert grid.sequence is seq
        assert grid.counts.tolist() == [0, 0] and len(grid) == grid.n_events == 3

    def test_expected_virtual_count(self):
        seq = make_sequence([1.0, 2.0])
        counts = [len(build_time_grid(seq, 5.0, seed=s)) - 2 for s in range(600)]
        mean = float(np.mean(counts))
        assert abs(mean - 5.0) < 3 * np.sqrt(5.0 / 600)

    def test_virtual_points_inherit_interval_action(self):
        seq = make_sequence([0.0, 1.0, 2.0], obs=[1, 0, 1], act=[1, 0, 1])
        grid = build_time_grid(seq, 20.0, seed=3)
        k0, k1 = grid.counts
        pts = points(grid)
        assert pts.actions.tolist() == [1] * (k0 + 1) + [0] * (k1 + 1) + [1]
        assert pts.observations.tolist() == [1] + [-1] * k0 + [0] + [-1] * k1 + [1]

    def test_non_monotone_rejected(self):
        seq = make_sequence([1.0, 2.0])
        object.__setattr__(seq, "times", np.array([2.0, 1.0]))
        with pytest.raises(SmjpError, match="^event timestamps must be strictly increasing$"):
            build_time_grid(seq, 1.0, seed=0)

    def test_fresh_seed_fresh_grid(self):
        seq = make_sequence(np.linspace(0, 30, 40))
        g1 = build_time_grid(seq, 2.0, seed=1)
        g2 = build_time_grid(seq, 2.0, seed=2)
        assert not np.array_equal(g1.counts, g2.counts)
        assert g1.sequence is g2.sequence is seq


class TestTimeGrid:
    @pytest.mark.parametrize("counts", [[], [1], [0, 1, 2], [[0, 1]]])
    def test_one_count_per_interval(self, counts):
        with pytest.raises(SmjpError, match=r"^need one virtual-point count per interval \(2\)"):
            TimeGrid(make_sequence([0.0, 1.0, 2.0]), counts)

    @pytest.mark.parametrize("counts, message", [
        ([0, -1], "non-negative, got -1"),
        ([0.0, 1.0], "integers, got float64"),
        ([0, np.nan], "integers, got float64"),
        ([True, False], "integers, got bool"),
    ])
    def test_counts_are_non_negative_integers(self, counts, message):
        with pytest.raises(SmjpError, match=f"^virtual-point counts must be {message}$"):
            TimeGrid(make_sequence([0.0, 1.0, 2.0]), counts)

    def test_no_interval_takes_no_count(self):
        for times in ([], [1.0]):
            grid = TimeGrid(make_sequence(times), [])
            assert len(grid) == grid.n_events == len(times)
            assert grid.counts.dtype == np.int64

    def test_sizes_are_the_point_expansion(self):
        rng = derive_rng(33)
        for n in (1, 2, 7, 40):
            seq = make_sequence(np.cumsum(rng.exponential(1.0, size=n)), rng.integers(0, 2, n), rng.integers(0, 2, n))
            grid = TimeGrid(seq, rng.poisson(2.0, size=n - 1).astype(np.int32))
            assert grid.counts.dtype == np.int64
            pts = points(grid)
            assert len(grid) == len(pts) == n + grid.counts.sum()
            assert grid.n_events == pts.n_events == n


class TestGridStream:
    """A grid's counts are one Poisson draw over its intervals, taken from
    the generator it is given and nothing else."""

    def assert_one_draw_each(self, seqs_and_omegas, seed):
        ref_rng, rng = derive_rng(seed, 2), derive_rng(seed, 2)
        for seq, omega in seqs_and_omegas:
            want = ref_rng.poisson(omega * np.diff(seq.times))
            grid = build_time_grid(seq, omega, rng)
            assert grid.counts.dtype == np.int64
            assert np.array_equal(grid.counts, want)
            np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)

    def test_random_sequences(self):
        rng = derive_rng(31)
        cases = []
        for scale, omega in ((0.05, 3.0), (1.0, 0.7), (1.0, 2.0), (4.0, 5.0)):
            n = int(rng.integers(50, 200))
            times = 0.5 + np.cumsum(rng.exponential(scale, size=n))
            cases.append((make_sequence(times, rng.integers(0, 2, n), rng.integers(0, 2, n)), omega))
        self.assert_one_draw_each(cases, seed=1)

    def test_zero_draw_intervals(self):
        seq = make_sequence(np.linspace(1.0, 20.0, 30), act=np.arange(30) % 2)
        self.assert_one_draw_each([(seq, 1e-9), (seq, 0.05)], seed=2)

    def test_large_expected_count_branch(self):
        # omega * dt >= 10 takes numpy's other Poisson sampler.
        seq = make_sequence([0.0, 1.0, 3.0, 3.5, 10.0], act=[0, 1, 0, 1, 1])
        self.assert_one_draw_each([(seq, 12.0), (seq, 40.0)], seed=3)

    def test_single_event_and_empty_sequence(self):
        one = make_sequence([2.5], obs=[1], act=[1])
        empty = make_sequence([])
        self.assert_one_draw_each([(one, 3.0), (empty, 3.0), (one, 3.0)], seed=4)
        assert len(build_time_grid(one, 3.0, seed=0)) == 1
        assert len(build_time_grid(empty, 3.0, seed=0)) == 0

    def test_one_ulp_interval_keeps_its_count(self):
        # No point is placed, so none can round onto an event and be lost.
        a, b = 1.0, np.nextafter(1.0, 2.0)
        seq = make_sequence([a, b], obs=[0, 1], act=[1, 0])
        omega = 5.0 / (b - a)
        self.assert_one_draw_each([(seq, omega)] * 5, seed=5)
        assert sum(len(build_time_grid(seq, omega, derive_rng(s))) > 2 for s in range(20)) >= 15

    def test_validation_precedes_any_draw(self):
        rng = derive_rng(6)
        before = rng.bit_generator.state
        with pytest.raises(SmjpError, match="non-negative"):
            build_time_grid(make_sequence([-1.0, 1.0]), 1.0, rng)
        with pytest.raises(SmjpError, match=r"^omega must be positive, got 0\.0$"):
            build_time_grid(make_sequence([0.0, 1.0]), 0.0, rng)
        with pytest.raises(SmjpError, match="^5e\\+07 expected virtual points in interval 2 "):
            build_time_grid(make_sequence([0.0, 1.0, 2.0, 1e6, 2e6]), 50.0, rng)
        np.testing.assert_equal(rng.bit_generator.state, before)
        # With no interval there is nothing to validate or draw.
        assert len(build_time_grid(make_sequence([1.0]), -1.0, rng)) == 1

    def test_overflow_message_prints_plain_floats(self):
        with pytest.raises(SmjpError, match="^5e\\+07 expected virtual points") as err:
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
