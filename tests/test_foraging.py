from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from scipy import stats as sp_stats

from helpers import (
    bellman_backup,
    belief_mdp_per_state,
    event_grid,
    grid_forward_backward,
    simulate_agent_per_step,
    toy_path_searchsorted,
    value_iteration_dense,
)
from smjp import foraging
from smjp.foraging import (
    A_MOVE,
    A_PRESS_1,
    A_PRESS_2,
    A_STAY,
    MAX_M_BINS,
    InvalidConfig,
    InvalidProbability,
    NonConvergence,
    ToyConfig,
    WorldConfig,
    belief_update,
    build_belief_mdp,
    generate_toy,
    policy_is_nontrivial,
    simulate_agent,
    solve_belief_mdp,
    value_iteration,
)


# The worlds whose planners policy iteration and the scalar agent loop are
# pinned on: (world, m_bins).
PLANNER_WORLDS = {
    "default": (WorldConfig(), 10),
    "m5": (WorldConfig(), 5),
    "m8": (WorldConfig(), 8),
    "m20": (WorldConfig(), 20),
    "free-press": (WorldConfig(press_cost=0.0), 10),
    "far-boxes": (WorldConfig(box_means=(5.0, 50.0), travel_time=3.0), 10),
    "quarter-tick": (WorldConfig(decision_tick=0.25), 10),
}


@lru_cache(maxsize=None)
def solved_planner(name):
    """The named world's planner with its policy-iteration solution attached."""
    mdp = build_belief_mdp(*PLANNER_WORLDS[name])
    result = value_iteration(mdp)
    return replace(mdp, values=result.values, policy=result.policy), result


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestWorldConfig:
    def test_defaults_valid(self):
        WorldConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"box_means": (0.0, 10.0)},
            {"press_cost": -1.0},
            {"reward_value": 0.0},
            {"decision_tick": 0.0},
            {"discount": 1.0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(InvalidConfig):
            WorldConfig(**kwargs)


class TestBeliefUpdate:
    def test_zero_dt_keeps_zero(self):
        assert belief_update(0.0, False, False, 10.0, 0.0) == 0.0

    def test_one_mean_reaches_exponential_cdf(self):
        out = belief_update(0.0, False, False, 10.0, 10.0)
        assert out == pytest.approx(1.0 - np.exp(-1.0), abs=1e-12)

    def test_rewarded_press_resets_to_zero(self):
        assert belief_update(0.9, True, True, 10.0, 0.5) == 0.0

    def test_unrewarded_press_restarts_accrual(self):
        out = belief_update(0.9, True, False, 10.0, 0.5)
        assert out == pytest.approx(1.0 - np.exp(-0.05), abs=1e-12)

    def test_monotone_in_dt_without_press(self):
        dts = np.linspace(0.0, 30.0, 50)
        vals = [belief_update(0.2, False, False, 10.0, dt) for dt in dts]
        assert np.all(np.diff(vals) > 0)
        assert all(0 <= v <= 1 for v in vals)

    def test_invalid_probability(self):
        with pytest.raises(InvalidProbability):
            belief_update(1.5, False, False, 10.0, 1.0)


class TestBuildBeliefMdp:
    def test_kernel_rows_stochastic(self):
        mdp = build_belief_mdp(WorldConfig(), m_bins=6, diffusion_eps=0.05)
        sums = mdp.transition.sum(axis=2)
        assert np.abs(sums - 1.0).max() < 1e-10

    def test_no_diffusion_two_bins_deterministic(self):
        mdp = build_belief_mdp(WorldConfig(), m_bins=2, diffusion_eps=0.0)
        assert np.allclose(mdp.transition.max(axis=2), 1.0, atol=1e-12)

    def test_press_reward_probability_is_bin_center(self):
        world = WorldConfig()
        mdp = build_belief_mdp(world, m_bins=10, diffusion_eps=0.05)
        for s in range(mdp.n_states):
            loc, b0, b1 = mdp.state_parts(s)
            local = A_PRESS_1 if loc == 0 else A_PRESS_2
            center = mdp.belief_bins[b0 if loc == 0 else b1]
            implied = (mdp.reward[s, local] + world.press_cost) / world.reward_value
            assert implied == pytest.approx(center, abs=1e-12)

    @pytest.mark.parametrize("world, m_bins, eps", [
        pytest.param(WorldConfig(), 10, 0.05, id="default"),
        pytest.param(WorldConfig(), 2, 0.0, id="m2-no-diffusion"),
        pytest.param(WorldConfig(), 2, 0.2, id="m2-max-diffusion"),
        pytest.param(WorldConfig(box_means=(3.0, 50.0), travel_time=1.3, decision_tick=0.7), 7, 0.0,
                     id="uneven-world"),
        pytest.param(WorldConfig(press_cost=0.0, reward_value=0.3), 4, 0.05, id="free-press"),
        pytest.param(WorldConfig(), 13, 0.05, id="m13"),
    ])
    def test_kronecker_build_equals_per_state_oracle_bit_for_bit(self, world, m_bins, eps):
        got, want = build_belief_mdp(world, m_bins, eps), belief_mdp_per_state(world, m_bins, eps)
        for name in ("transition", "reward", "step_discounts"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("build", [build_belief_mdp, belief_mdp_per_state])
    @pytest.mark.parametrize("setting, value, message", [
        ("m_bins", 1, "m_bins must be an integer of at least 2, got 1"),
        ("m_bins", 0, "m_bins must be an integer of at least 2, got 0"),
        ("m_bins", -1, "m_bins must be an integer of at least 2, got -1"),
        ("m_bins", float("nan"), "m_bins must be an integer of at least 2, got nan"),
        ("m_bins", float("inf"), "m_bins must be an integer of at least 2, got inf"),
        ("m_bins", 4.5, "m_bins must be an integer of at least 2, got 4.5"),
        ("diffusion_eps", 0.5, "diffusion_eps must be in [0, 0.2], got 0.5"),
        ("diffusion_eps", -1.0, "diffusion_eps must be in [0, 0.2], got -1.0"),
        ("diffusion_eps", float("nan"), "diffusion_eps must be in [0, 0.2], got nan"),
        ("diffusion_eps", float("inf"), "diffusion_eps must be in [0, 0.2], got inf"),
    ])
    def test_bad_config_names_the_setting_and_value(self, build, setting, value, message):
        with pytest.raises(InvalidConfig) as err:
            build(WorldConfig(), **{"m_bins": 5, setting: value})
        assert str(err.value) == message

    def test_integral_float_m_bins_builds_the_integer_grid(self):
        got, want = build_belief_mdp(WorldConfig(), 10.0), build_belief_mdp(WorldConfig(), 10)
        assert type(got.m_bins) is int and got.m_bins == 10
        for name in ("belief_bins", "transition", "reward", "step_discounts"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_m_bins_bound_keeps_the_kernel_under_512_mib(self):
        assert build_belief_mdp(WorldConfig(), 4).transition.nbytes == 128 * 4**4
        assert 128 * MAX_M_BINS**4 < 512 * 2**20 < 128 * (MAX_M_BINS + 1) ** 4

    @pytest.mark.parametrize("m_bins", [MAX_M_BINS + 1, 3000, 3000.0])
    def test_m_bins_above_the_bound_refused_before_any_array(self, monkeypatch, m_bins):
        world = WorldConfig()
        # Without numpy the builder cannot allocate, so the refusal comes first.
        monkeypatch.setattr(foraging, "np", None)
        with pytest.raises(InvalidConfig) as err:
            build_belief_mdp(world, m_bins)
        assert str(err.value) == f"m_bins must be at most 45, got {m_bins!r} (the kernel takes 128 m^4 bytes)"


class TestValueIteration:
    def test_zero_reward_gives_zero_values_and_stay(self):
        from dataclasses import replace

        mdp = build_belief_mdp(WorldConfig(), m_bins=4, diffusion_eps=0.0)
        zeroed = replace(mdp, reward=np.zeros_like(mdp.reward))
        result = value_iteration(zeroed, tol=1e-10)
        assert np.abs(result.values).max() == 0.0
        assert np.all(result.policy == A_STAY)

    def test_residual_below_tolerance(self):
        mdp = build_belief_mdp(WorldConfig(), m_bins=5)
        result = value_iteration(mdp, tol=1e-8)
        assert result.residuals[-1] < 1e-8

    @pytest.mark.parametrize("name", sorted(PLANNER_WORLDS))
    def test_values_are_a_bellman_fixed_point(self, name):
        mdp, result = solved_planner(name)
        backed_up = bellman_backup(mdp, result.values).max(axis=0)
        assert np.abs(backed_up - result.values).max() < 1e-8

    def test_zero_costs_press_whenever_belief_positive(self):
        # Needs the default diffusion: without it the binned belief can get
        # stuck below the first bin boundary and the planner works around
        # the trap instead of pressing.
        world = WorldConfig(press_cost=0.0, switch_cost=0.0)
        mdp = solve_belief_mdp(world, m_bins=10, diffusion_eps=0.05)
        for s in range(mdp.n_states):
            loc, b0, b1 = mdp.state_parts(s)
            local_bin = b0 if loc == 0 else b1
            local_press = A_PRESS_1 if loc == 0 else A_PRESS_2
            if local_bin > 0:
                assert mdp.policy[s] == local_press

    def test_round_cap_guard(self):
        mdp = build_belief_mdp(WorldConfig(), m_bins=4)
        rounds = value_iteration(mdp).sweeps
        assert rounds > 1
        with pytest.raises(NonConvergence) as err:
            value_iteration(mdp, sweep_cap=rounds - 1)
        assert str(err.value) == f"no convergence after {rounds - 1} rounds"
        assert value_iteration(mdp, sweep_cap=rounds).sweeps == rounds

    def test_default_policy_nontrivial(self):
        mdp = solve_belief_mdp(WorldConfig())
        assert policy_is_nontrivial(mdp)

    @pytest.mark.parametrize("per_location, expected", [
        pytest.param(([A_STAY, A_STAY, A_MOVE, A_STAY], [A_MOVE] * 4), False, id="never-presses"),
        pytest.param(([A_PRESS_1] * 4, [A_MOVE, A_STAY, A_PRESS_1, A_STAY]), False, id="presses-everywhere"),
        pytest.param(([A_PRESS_1, A_STAY, A_STAY, A_PRESS_1], [A_PRESS_2, A_STAY, A_STAY, A_STAY]), False,
                     id="never-moves"),
        pytest.param(([A_STAY, A_PRESS_1, A_MOVE, A_PRESS_1], [A_MOVE] * 4), True, id="nontrivial"),
    ])
    def test_policy_is_nontrivial_clauses(self, per_location, expected):
        # m_bins = 2: four (bin0, bin1) states per location.
        mdp = build_belief_mdp(WorldConfig(), m_bins=2)
        policy = np.array(per_location, dtype=np.int64).ravel()
        assert policy_is_nontrivial(replace(mdp, policy=policy)) is expected

    @staticmethod
    def assert_matches_the_dense_oracle(mdp, got, tol=1e-8):
        want = value_iteration_dense(mdp, tol)
        gamma = mdp.world.discount
        assert np.array_equal(got.policy, want.policy) and got.policy.dtype == want.policy.dtype
        # Value iteration stops within gamma * tol / (1 - gamma) of the fixed point.
        assert np.abs(got.values - want.values).max() <= gamma * tol / (1 - gamma) + 1e-12
        assert got.residuals[-1] < tol and len(got.residuals) == got.sweeps

    @pytest.mark.parametrize("name", sorted(PLANNER_WORLDS))
    def test_policy_iteration_matches_the_dense_oracle(self, name):
        mdp, got = solved_planner(name)
        self.assert_matches_the_dense_oracle(mdp, got)

    @pytest.mark.parametrize("action, location", [(A_STAY, 0), (A_PRESS_2, 1), (A_MOVE, 1)])
    def test_transition_reaching_both_locations_is_solved_as_the_oracle_solves_it(self, action, location):
        mdp = build_belief_mdp(WorldConfig(), m_bins=3)
        trans = mdp.transition.copy().reshape(4, 2, 9, 2, 9)
        # Half of one row's mass goes to the location the action does not reach.
        reached = 1 - location if action == A_MOVE else location
        row = trans[action, location, 4]
        row[1 - reached] = row[reached] / 2
        row[reached] /= 2
        both = replace(mdp, transition=trans.reshape(4, 18, 18))
        self.assert_matches_the_dense_oracle(both, value_iteration(both))

    def test_policy_structure_insensitive_to_halved_tick(self):
        # The decision cadence is a discretization knob: halving it must not
        # change the qualitative policy (lowest belief bin worth pressing).
        def press_thresholds(mdp):
            out = []
            for loc in range(2):
                press = A_PRESS_1 if loc == 0 else A_PRESS_2
                bins = [
                    (mdp.state_parts(s)[1] if loc == 0 else mdp.state_parts(s)[2])
                    for s in range(mdp.n_states)
                    if mdp.state_parts(s)[0] == loc and mdp.policy[s] == press
                ]
                out.append(min(bins))
            return out

        coarse = solve_belief_mdp(WorldConfig(decision_tick=0.5))
        fine = solve_belief_mdp(WorldConfig(decision_tick=0.25))
        assert policy_is_nontrivial(coarse) and policy_is_nontrivial(fine)
        for a, b in zip(press_thresholds(coarse), press_thresholds(fine)):
            assert abs(a - b) <= 1


class TestSimulateAgent:
    def test_always_stay_policy(self):
        mdp = build_belief_mdp(WorldConfig(), m_bins=4)
        policy = np.full(mdp.n_states, A_STAY, dtype=np.int64)
        seq, trace = simulate_agent(mdp, 100.0, seed=1, policy=policy)
        assert np.all(seq.actions == A_STAY)
        labels = {seq.observation_alphabet.label(int(o)) for o in seq.observations}
        assert labels == {"box-1"}
        assert trace.rewarded.sum() == 0

    def test_press_always_renewal_rate(self):
        # Pressing every tick at box 1 collects each reward at the first
        # tick after it arms: a renewal process with period mean + ~tick/2.
        world = WorldConfig(box_means=(10.0, 30.0), decision_tick=0.25)
        mdp = build_belief_mdp(world, m_bins=3)
        policy = np.full(mdp.n_states, A_PRESS_1, dtype=np.int64)
        horizon = 100_000.0
        seq, trace = simulate_agent(mdp, horizon, seed=11, policy=policy, start_location=0)
        rewards = int(trace.rewarded.sum())
        expected = horizon / world.box_means[0]
        assert abs(rewards - expected) < 3 * np.sqrt(expected)

    def test_rewards_only_from_local_presses(self):
        mdp = solve_belief_mdp(WorldConfig(), m_bins=6)
        seq, trace = simulate_agent(mdp, 3000.0, seed=3)
        reward_idx = seq.observation_alphabet.index("reward")
        for i in np.nonzero(seq.observations == reward_idx)[0]:
            a = int(seq.actions[i])
            assert a in (A_PRESS_1, A_PRESS_2)
            assert trace.location[i] == (0 if a == A_PRESS_1 else 1)
            assert trace.rewarded[i]

    def test_optimal_press_intervals_not_exponential(self):
        mdp = solve_belief_mdp(WorldConfig())
        seq, _ = simulate_agent(mdp, 15_000.0, seed=4)
        press = (seq.actions == A_PRESS_1) | (seq.actions == A_PRESS_2)
        intervals = np.diff(seq.times[press])
        assert intervals.size > 500
        ks = sp_stats.kstest(intervals, "expon", args=(0.0, intervals.mean()))
        assert ks.pvalue < 0.01

    def test_trace_indexing(self):
        mdp = solve_belief_mdp(WorldConfig(), m_bins=5)
        seq, trace = simulate_agent(mdp, 500.0, seed=6)
        assert trace.n_z == 2 * 2 * 5
        assert trace.z.min() >= 0 and trace.z.max() < trace.n_z
        oh = trace.one_hot()
        assert np.array_equal(oh.sum(axis=1), np.ones(len(seq)))


class TestScalarAgentLoop:
    """``simulate_agent`` against the per-step oracle: the event stream and
    the truth trace equal in bytes and dtype."""

    SEEDS = [*range(10), 42]

    def assert_same_run(self, mdp, horizon, seed, **kwargs):
        got_seq, got_trace = simulate_agent(mdp, horizon, seed, **kwargs)
        want_seq, want_trace = simulate_agent_per_step(mdp, horizon, seed, **kwargs)
        for name in ("times", "observations", "actions"):
            assert same_bytes(getattr(got_seq, name), getattr(want_seq, name)), name
        for name in ("times", "z", "location", "rewarded", "belief_bin", "beliefs"):
            assert same_bytes(getattr(got_trace, name), getattr(want_trace, name)), name
        assert got_seq.metadata == want_seq.metadata and got_trace.m_bins == want_trace.m_bins

    @pytest.mark.parametrize("name", sorted(PLANNER_WORLDS))
    def test_solved_policy_matches_the_oracle(self, name):
        mdp, _ = solved_planner(name)
        for seed in self.SEEDS:
            self.assert_same_run(mdp, 800.0, seed)

    @pytest.mark.parametrize("start_location", [0, 1])
    @pytest.mark.parametrize("policy", ["solved", "all-stay", "all-move", "local-press", "random"])
    def test_policies_and_start_locations_match_the_oracle(self, policy, start_location):
        mdp, _ = solved_planner("default")
        by_location = np.array([[A_PRESS_1], [A_PRESS_2]]).repeat(mdp.n_states // 2, axis=1).ravel()
        chosen = {
            "solved": None,
            "all-stay": np.full(mdp.n_states, A_STAY),
            "all-move": np.full(mdp.n_states, A_MOVE),
            "local-press": by_location,
            "random": np.random.default_rng(8).integers(0, mdp.n_actions, mdp.n_states),
        }[policy]
        for seed in self.SEEDS:
            self.assert_same_run(mdp, 800.0, seed, policy=chosen, start_location=start_location)

    def test_forager_horizon_matches_the_oracle(self):
        # The 6000-s run of criterion 07 and of the forage-pipeline workload.
        mdp, _ = solved_planner("default")
        for seed in (1, 2, 42):
            self.assert_same_run(mdp, 6000.0, seed)

    @pytest.mark.parametrize("start_location", [2, -1, 0.5, float("nan")])
    def test_bad_start_location_refused_before_any_draw(self, start_location):
        mdp, _ = solved_planner("m5")
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        with pytest.raises(InvalidConfig) as err:
            simulate_agent(mdp, 100.0, rng, start_location=start_location)
        assert str(err.value) == f"start_location must be 0 or 1, got {start_location!r}"
        assert rng.bit_generator.state == before


class TestGenerateToy:
    def test_single_action_reduces_to_plain_chain(self):
        toy = generate_toy(ToyConfig(n_actions=1, expected_length=300), seed=2)
        assert np.all(toy.sequence.actions == 0)
        assert toy.model.n_actions == 1

    def test_default_shape_and_length(self):
        toy = generate_toy(ToyConfig(), seed=9)
        assert toy.model.n_states == 5
        assert toy.model.n_observations == 2
        assert toy.model.n_actions == 2
        assert abs(len(toy.sequence) - 5000) < 3 * np.sqrt(5000)
        assert np.array_equal(toy.sequence.observations % 2, toy.sequence.actions)

    def test_transition_counts_recover_chains(self):
        toy = generate_toy(ToyConfig(expected_length=100_000), seed=14)
        chains = toy.model.chain_stack
        counts = np.zeros_like(chains)
        s, a = toy.states, toy.sequence.actions
        for i in range(len(s) - 1):
            counts[a[i], s[i], s[i + 1]] += 1
        for k in range(2):
            for i in range(5):
                row_n = counts[k, i].sum()
                if row_n < 50:
                    continue
                for j in range(5):
                    p = chains[k, i, j]
                    sigma = max(np.sqrt(row_n * p * (1 - p)), 1.0)
                    assert abs(counts[k, i, j] - row_n * p) < 3 * sigma

    def test_true_model_likelihood_matches_counted_entropy(self):
        # Per-symbol likelihood under the generating model vs the 4-symbol
        # context conditional entropy estimated by counting.
        toy = generate_toy(ToyConfig(expected_length=50_000), seed=5)
        seq = toy.sequence
        ll = grid_forward_backward(toy.model, event_grid(seq.observations, seq.actions)).log_likelihood
        per_symbol = -ll / len(seq)
        k = 5
        obs = seq.observations
        ctx = np.zeros(obs.size - k + 1, dtype=np.int64)
        for j in range(k):
            ctx = ctx * 2 + obs[j : obs.size - k + 1 + j]
        joint = np.bincount(ctx, minlength=2**k).astype(float)
        joint /= joint.sum()
        marg = joint.reshape(-1, 2).sum(axis=1)
        h_joint = -np.sum(joint[joint > 0] * np.log(joint[joint > 0]))
        h_marg = -np.sum(marg[marg > 0] * np.log(marg[marg > 0]))
        counted = h_joint - h_marg
        assert abs(per_symbol - counted) < 0.02 * counted

    @pytest.mark.parametrize("config", [
        ToyConfig(expected_length=5000),
        ToyConfig(n_actions=1, expected_length=300),
        ToyConfig(n_states=3, n_observations=4, n_actions=3, expected_length=400, concentration=0.2),
    ])
    def test_path_is_the_searchsorted_loop(self, monkeypatch, config):
        # Seeds 0-19 and the toy seeds of the switching, analysis and
        # acceptance tests: the data they fit cannot move.
        seeds = [*range(20), 21, 33, 101]
        fast = [generate_toy(config, seed) for seed in seeds]
        monkeypatch.setattr(foraging, "_toy_path", toy_path_searchsorted)
        for seed, got in zip(seeds, fast):
            want = generate_toy(config, seed)
            for name in ("times", "observations", "actions"):
                a, b = getattr(got.sequence, name), getattr(want.sequence, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert got.states.dtype == want.states.dtype and got.states.tobytes() == want.states.tobytes()

    def test_bad_configs(self):
        with pytest.raises(InvalidConfig):
            ToyConfig(n_actions=3, n_observations=2)
        with pytest.raises(InvalidConfig):
            ToyConfig(expected_length=0)
        with pytest.raises(InvalidConfig):
            generate_toy(ToyConfig(chains=(np.eye(3),), n_states=4, n_actions=1), seed=0)
