import io
import itertools
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    NO_OBSERVATION,
    accumulate_stats,
    default_omega,
    enumerate_paths,
    event_grid,
    event_laws,
    exact_loglik,
    forward_logspace,
    grid_forward_backward,
    interval_law_stack,
    logsumexp,
    matrix_exponential,
    model_from_chains,
    point_emission,
    points,
    random_grid,
    random_model,
    random_sequence,
    scaled_xi,
)
from smjp.core import derive_rng, index_alphabet
from smjp.ctmc import MAX_EXPECTED_VIRTUAL, TimeGrid, VirtualTimeOverflow, build_time_grid, uniformize
from smjp.events import EventSequence, split_chronological
from smjp.foraging import ToyConfig, WorldConfig, build_belief_mdp, generate_toy, simulate_agent, value_iteration
from smjp import analysis, switching
from smjp.analysis import event_state_posterior
from smjp.core import SmjpError
from smjp.switching import (
    EmptyStatistics,
    FitConfig,
    ForwardBackwardResult,
    InconsistentShapes,
    StructureViolation,
    SufficientStats,
    ZeroProbabilityObservation,
    _emission_table,
    _SCAN_BLOCK,
    _filter_smooth,
    _filter_steps,
    _loglik,
    _smooth_steps,
    fit,
    fit_best,
    forward_backward,
    held_out_loglik,
    init_random_model,
    inner_em,
    load_model,
    m_step,
    model_text,
    rebuild_model,
    select_num_states,
    update_generator,
)


class TestForward:
    def test_single_state_closed_form(self):
        rng = derive_rng(0)
        model = random_model(rng, 1, 2, 3)
        grid = random_grid(rng, 40, 2, 3)
        ll = grid_forward_backward(model, grid).log_likelihood
        expected = sum(
            np.log(model.emission[0, o]) for o in grid.observations if o != NO_OBSERVATION
        )
        assert ll == pytest.approx(expected, abs=1e-10)

    def test_uniform_model_counts_events(self):
        n, k, o = 3, 2, 4
        chains = np.full((k, n, n), 1.0 / n)
        emission = np.full((n, o), 1.0 / o)
        model = model_from_chains(chains, emission)
        rng = derive_rng(1)
        grid = random_grid(rng, 60, k, o)
        ll = grid_forward_backward(model, grid).log_likelihood
        assert ll == pytest.approx(grid.n_events * np.log(1.0 / o), abs=1e-9)

    def test_matches_enumeration(self):
        rng = derive_rng(2)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, 3))
            o = int(rng.integers(2, 4))
            t = int(rng.integers(1, 7))
            model = random_model(rng, n, k, o)
            grid = random_grid(rng, t, k, o)
            ll = grid_forward_backward(model, grid).log_likelihood
            expected_ll, _, _ = enumerate_paths(model, grid)
            assert ll == pytest.approx(expected_ll, abs=1e-10)

    def test_zero_probability_observation(self):
        emission = np.array([[1.0, 0.0], [1.0, 0.0]])
        chains = np.full((1, 2, 2), 0.5)
        model = model_from_chains(chains, emission)
        grid = event_grid([0, 1], [0, 0])
        with pytest.raises(ZeroProbabilityObservation, match="^observation at grid step 1 has zero likelihood$"):
            grid_forward_backward(model, grid)


class TestBackward:
    def test_terminal_condition(self):
        rng = derive_rng(3)
        model = random_model(rng, 3, 2, 2)
        grid = random_grid(rng, 12, 2, 2)
        log_beta = grid_forward_backward(model, grid).log_beta
        assert np.array_equal(log_beta[-1], np.zeros(3))

    def test_alpha_beta_consistency(self):
        rng = derive_rng(4)
        for _ in range(10):
            model = random_model(rng, int(rng.integers(2, 4)), 2, 3)
            grid = random_grid(rng, int(rng.integers(2, 30)), 2, 3)
            res = grid_forward_backward(model, grid)
            ll = res.log_likelihood
            recombined = np.array([logsumexp(res.log_alpha[t] + res.log_beta[t]) for t in range(len(grid))])
            assert np.abs(recombined - ll).max() < 1e-8 * max(1.0, abs(ll))

    def test_deterministic_chain_picks_single_path(self):
        # Cyclic permutation dynamics with identity emissions admit exactly
        # one latent path per observation sequence.
        chains = np.zeros((1, 3, 3))
        chains[0, 0, 1] = chains[0, 1, 2] = chains[0, 2, 0] = 1.0
        model = model_from_chains(chains, np.eye(3))
        grid = event_grid([0, 1, 2, 0], [0, 0, 0, 0])
        res = grid_forward_backward(model, grid)
        gamma = np.exp(res.log_alpha + res.log_beta - res.log_likelihood)
        assert np.allclose(gamma, np.eye(4, 3)[[0, 1, 2, 0]], atol=1e-12)


class TestPosteriorXi:
    def test_slices_normalized_and_match_enumeration(self):
        rng = derive_rng(5)
        for _ in range(15):
            n = int(rng.integers(2, 4))
            t = int(rng.integers(2, 7))
            model = random_model(rng, n, 2, 3)
            grid = random_grid(rng, t, 2, 3)
            xi, gamma = scaled_xi(model, grid), grid_forward_backward(model, grid).gamma
            assert np.abs(xi.sum(axis=(1, 2)) - 1.0).max() < 1e-9
            assert np.abs(gamma.sum(axis=1) - 1.0).max() < 1e-9
            _, gamma_o, xi_o = enumerate_paths(model, grid)
            assert np.abs(xi - xi_o).max() < 1e-10
            assert np.abs(gamma - gamma_o).max() < 1e-10

    def test_deterministic_two_step(self):
        chains = np.zeros((1, 2, 2))
        chains[0, 0, 1] = 1.0
        chains[0, 1, 0] = 1.0
        model = model_from_chains(chains, np.eye(2))
        grid = event_grid([0, 1], [0, 0])
        xi = scaled_xi(model, grid)
        assert xi[0, 0, 1] == pytest.approx(1.0, abs=1e-12)
        assert xi[0].sum() == pytest.approx(1.0, abs=1e-12)



class TestForwardBackwardResult:
    def test_invariants(self):
        rng = derive_rng(7)
        for _ in range(10):
            model = random_model(rng, int(rng.integers(2, 5)), 2, 3)
            grid = random_grid(rng, int(rng.integers(2, 60)), 2, 3)
            res = grid_forward_backward(model, grid)
            xi = scaled_xi(model, grid)
            assert np.abs(res.gamma.sum(axis=1) - 1.0).max() < 1e-9
            assert np.abs(xi.sum(axis=(1, 2)) - 1.0).max() < 1e-9
            assert np.abs(res.gamma[:-1] - xi.sum(axis=2)).max() < 1e-8
            assert res.log_likelihood == pytest.approx(np.log(res.per_step_scaling).sum(), abs=1e-12)

    def test_scaled_matches_log_domain_long_sequence(self):
        rng = derive_rng(8)
        model = random_model(rng, 4, 2, 3)
        grid = random_grid(rng, 10_000, 2, 3)
        res = grid_forward_backward(model, grid)
        log_alpha_fast, ll_fast = res.log_alpha, res.log_likelihood
        log_alpha_ref, ll_ref = forward_logspace(model, grid)
        assert ll_fast == pytest.approx(ll_ref, abs=1e-8)
        finite = np.isfinite(log_alpha_ref)
        assert np.abs(log_alpha_fast[finite] - log_alpha_ref[finite]).max() < 1e-6


    def test_rejects_a_grid(self):
        rng = derive_rng(9)
        model = random_model(rng, 2, 1, 2)
        with pytest.raises(InconsistentShapes, match="^forward_backward takes an EventSequence, got TimeGrid$"):
            forward_backward(model, build_time_grid(random_sequence(rng, model, 5), 1.0, rng))


class TestScaledCore:
    """The per-point E-step's counts are sums of the filter-smoother's
    posteriors."""

    @pytest.mark.parametrize("per_action", [False, True])
    def test_accumulated_stats_are_sums_of_posteriors(self, per_action):
        rng = derive_rng(25)
        for _ in range(10):
            n, k, o = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
            model = random_model(rng, n, k, o)
            if per_action:
                model = replace(model, emission=np.stack([rng.dirichlet(np.ones(o), size=n) for _ in range(k)]))
            grid = random_grid(rng, int(rng.integers(1, 300)), k, o)
            stats = SufficientStats.zeros(n, k, o, per_action)
            ll = accumulate_stats(model.chain_stack, np.asarray(model.emission), grid, stats)
            res = grid_forward_backward(model, grid)
            xi = scaled_xi(model, grid)
            trans = np.zeros((k, n, n))
            emit = np.zeros(stats.emit.shape)
            for i in range(len(grid)):
                if i + 1 < len(grid):
                    trans[grid.actions[i]] += xi[i]
                obs = grid.observations[i]
                if obs == NO_OBSERVATION:
                    continue
                if per_action:
                    emit[grid.actions[i], :, obs] += res.gamma[i]
                else:
                    emit[:, obs] += res.gamma[i]
            np.testing.assert_allclose(stats.trans, trans, rtol=1e-12, atol=0)
            np.testing.assert_allclose(stats.emit, emit, rtol=1e-12, atol=0)
            assert ll == pytest.approx(res.log_likelihood, rel=1e-12)
            assert np.array_equal(stats.action_steps, np.bincount(grid.actions[:-1], minlength=k))


def per_action_case(rng, n, k, o, length):
    """(chains, emission table, actions) of a random per-action-emission
    model on a random grid."""
    model = random_model(rng, n, k, o)
    model = replace(model, emission=np.stack([rng.dirichlet(np.ones(o), size=n) for _ in range(k)]))
    grid = random_grid(rng, length, k, o)
    return model.chain_stack, point_emission(model.emission, grid), grid.actions


def assert_blocked_matches_steps(chains, e, kidx, alpha_atol=0.0):
    alpha, c, beta = _filter_smooth(chains, e, kidx)
    alpha_ref, c_ref = _filter_steps(chains, e, kidx)
    np.testing.assert_allclose(alpha, alpha_ref, rtol=1e-12, atol=alpha_atol)
    np.testing.assert_allclose(c, c_ref, rtol=1e-12, atol=0)
    beta_ref = _smooth_steps(chains, e, kidx, c_ref)
    assert beta.shape == beta_ref.shape
    # Padded steps are exact identities, so log_beta[T-1] is exactly zero.
    assert (beta[-1] == 1.0).all()
    np.testing.assert_allclose(alpha * beta, alpha_ref * beta_ref, rtol=0, atol=1e-10)


class TestBlockedScan:
    """The blocked filter-smoother against the one-step-at-a-time loops
    it falls back to: blocks of L = _SCAN_BLOCK = 8 steps, the last padded
    with identity steps, and a log-depth carry over the block products
    whose up-sweep passes an odd last block up alone."""

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("k", range(1, 5))
    def test_matches_step_loops(self, n, k):
        rng = derive_rng(40, n, k)
        # T-1 = 1..3 steps fit in one padded block; 49 and 50 steps fill 7
        # blocks, the last padded; 61 steps 8 blocks; 996 steps 125 blocks.
        for length in (2, 3, 4, 50, 51, 62, 997):
            assert_blocked_matches_steps(*per_action_case(rng, n, k, 3, length))

    @pytest.mark.parametrize("n", [1, 3, 6])
    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_step_loops_at_block_edges(self, n, k):
        assert _SCAN_BLOCK == 8
        rng = derive_rng(45, n, k)
        # T-1 = 1..2L+1 steps: one, two and three blocks, padded or full.
        steps = list(range(1, 2 * _SCAN_BLOCK + 2))
        # Exact multiples of L, no padding: 3, 4, 8 and 64 blocks.
        steps += [3 * _SCAN_BLOCK, 4 * _SCAN_BLOCK, 8 * _SCAN_BLOCK, 64 * _SCAN_BLOCK]
        # Block counts 2^j and 2^j + 1 with a padded last block (4, 5, 16,
        # 17, 128, 129), so the up-sweep meets odd node counts.
        steps += [nb * _SCAN_BLOCK - 3 for nb in (4, 5, 16, 17, 128, 129)]
        for length in steps:
            assert_blocked_matches_steps(*per_action_case(rng, n, k, 3, length + 1))

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_matches_step_loops_long_grid(self, n):
        assert_blocked_matches_steps(*per_action_case(derive_rng(41, n), n, 3, 4, 10_000))

    def test_single_point_grid(self):
        assert_blocked_matches_steps(*per_action_case(derive_rng(42), 3, 2, 3, 1))

    def test_impossible_observation_mid_block_names_its_step(self):
        rng = derive_rng(43)
        chains, e, kidx = per_action_case(rng, 4, 2, 3, 3000)
        e[1777] = 0.0
        with pytest.raises(ZeroProbabilityObservation, match="^observation at grid step 1777 has zero likelihood$"):
            _filter_smooth(chains, e, kidx)

    def test_non_finite_smoother_reruns_the_step_loops(self):
        # A subnormal switching rate against data that flips state at step
        # 200 overflows the smoother, blocked or not.
        chains = np.array([[[1.0, 1e-310], [1e-310, 1.0]]])
        e = np.tile([1.0, 1e-200], (400, 1))
        e[200:] = [1e-200, 1.0]
        kidx = np.zeros(400, dtype=np.int64)
        with np.errstate(over="ignore", invalid="ignore"):
            got = _filter_smooth(chains, e, kidx)
            alpha, c = _filter_steps(chains, e, kidx)
            beta = _smooth_steps(chains, e, kidx, c)
        assert not np.isfinite(beta).all()
        for g, w in zip(got, (alpha, c, beta)):
            assert g.tobytes() == w.tobytes()

    def test_tiny_and_subnormal_emissions_match_step_loops(self):
        rng = derive_rng(44)
        emission = np.array([[1.0, 1e-300, 1e-320], [1e-300, 1.0, 1e-320], [1e-320, 1e-300, 1.0]])
        model = model_from_chains(np.stack([rng.dirichlet(np.ones(3), size=3) for _ in range(2)]), emission)
        grid = random_grid(rng, 5000, 2, 3)
        # Subnormal alpha_hat entries (down to ~1e-321) keep only a few
        # significant bits, so they are compared absolutely.
        e = point_emission(model.emission, grid)
        assert_blocked_matches_steps(model.chain_stack, e, grid.actions, alpha_atol=1e-300)


class TestMStep:
    def test_deterministic_path_gives_one_hot_rows(self):
        chains = np.zeros((1, 3, 3))
        chains[0, 0, 1] = chains[0, 1, 2] = chains[0, 2, 0] = 1.0
        model = model_from_chains(chains, np.eye(3))
        grid = event_grid([0, 1, 2, 0, 1], [0] * 5)
        stats = SufficientStats.zeros(3, 1, 3)
        accumulate_stats(model.chain_stack, model.emission, grid, stats)
        new_chains, new_emission, untouched = m_step(stats, model.chain_stack, np.asarray(model.emission))
        assert untouched == ()
        assert np.allclose(new_chains[0], chains[0], atol=1e-12)
        assert np.allclose(new_emission, np.eye(3), atol=1e-12)

    def test_action_never_taken_keeps_chain(self):
        rng = derive_rng(9)
        model = random_model(rng, 3, 2, 2)
        grid = random_grid(rng, 30, 1, 2)  # only action 0 appears
        stats = SufficientStats.zeros(3, 2, 2)
        accumulate_stats(model.chain_stack, np.asarray(model.emission), grid, stats)
        new_chains, _, untouched = m_step(stats, model.chain_stack, np.asarray(model.emission))
        assert untouched == (1,)
        assert np.array_equal(new_chains[1], model.chain_stack[1])
        assert not np.array_equal(new_chains[0], model.chain_stack[0])

    def test_empty_statistics(self):
        stats = SufficientStats.zeros(2, 1, 2)
        with pytest.raises(EmptyStatistics):
            m_step(stats, np.full((1, 2, 2), 0.5), np.full((2, 2), 0.5))

    def test_action_partitioning_instrumentation(self):
        # Transition statistics for action k may only come from grid steps
        # labeled k; a grid without action 1 must leave trans[1] at zero.
        rng = derive_rng(10)
        model = random_model(rng, 3, 2, 2)
        grid = random_grid(rng, 50, 2, 2)
        stats = SufficientStats.zeros(3, 2, 2)
        accumulate_stats(model.chain_stack, np.asarray(model.emission), grid, stats)
        expected_counts = np.bincount(grid.actions[:-1], minlength=2)
        assert np.array_equal(stats.action_steps, expected_counts)
        assert stats.trans[0].sum() == pytest.approx(expected_counts[0], abs=1e-8)
        assert stats.trans[1].sum() == pytest.approx(expected_counts[1], abs=1e-8)


class TestUpdateGenerator:
    def test_identity_chain_gives_zero_generator(self):
        g = update_generator(np.eye(3), 3.0)
        assert np.array_equal(g.rates, np.zeros((3, 3)))

    def test_inverse_of_uniformize_example(self):
        g = update_generator(np.array([[0.5, 0.5], [1.0, 0.0]]), 2.0)
        assert np.allclose(g.rates, [[-1.0, 1.0], [2.0, -2.0]], atol=1e-15)

    def test_round_trip_recovers_generator(self):
        rng = derive_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            from test_core import random_generator

            g = random_generator(rng, n)
            omega = 2.0 * g.max_exit_rate
            b = uniformize(g, omega)
            back = update_generator(b, omega)
            assert np.abs(back.rates - g.rates).max() < 1e-12

    def test_structural_mask_kept_zero(self):
        b = np.array([[0.6, 1e-9, 0.4 - 1e-9], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]])
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 1] = True
        g = update_generator(b, 2.0, mask)
        assert g.rates[0, 1] == 0.0
        assert abs(g.rates.sum(axis=1)).max() < 1e-12

    def test_structural_violation(self):
        b = np.array([[0.6, 0.1, 0.3], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]])
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 1] = True
        with pytest.raises(StructureViolation):
            update_generator(b, 2.0, mask)


class TestInnerEm:
    def test_fixed_grid_monotone(self):
        rng = derive_rng(12)
        cfg = FitConfig(inner_iterations=8, inner_tol=0.0)
        for _ in range(8):
            n = int(rng.integers(2, 5))
            model = random_model(rng, n, 2, 3)
            grids = [build_time_grid(random_sequence(rng, model, 60), 1.0, rng) for _ in range(2)]
            _, _, trace, _ = inner_em(model, grids, cfg)
            diffs = np.diff(np.asarray(trace))
            assert diffs.min() > -1e-9

    def test_em_single_pass_improves_likelihood(self):
        rng = derive_rng(13)
        model = random_model(rng, 3, 2, 2)
        grid = build_time_grid(random_sequence(rng, model, 100), 1.0, rng)
        cfg = FitConfig(inner_iterations=2, inner_tol=0.0)
        _, _, trace, _ = inner_em(model, [grid], cfg)
        assert trace[1] >= trace[0] - 1e-9


def toy_sequences(length=600, seed=21):
    toy = generate_toy(ToyConfig(expected_length=length), seed=seed)
    return toy


class TestFit:
    def test_zero_inner_iterations_is_noop(self):
        toy = toy_sequences(length=120)
        cfg = FitConfig(seed=1, inner_iterations=0)
        report = fit(toy.model, [toy.sequence], cfg)
        assert report.iterations == 0
        assert not report.converged
        assert report.final_model is toy.model

    def test_holdout_free_fits_are_scored_by_the_models_they_return(self):
        # Without a held-out part every score is the exact training
        # log-likelihood of the model it scores, with or without EM passes,
        # not a grid likelihood of the parameters before the last M-step.
        seq = toy_sequences(length=200, seed=43).sequence
        cfg = FitConfig(seed=2, inner_iterations=2, outer_cap=3, holdout_fraction=0.0, restarts=3)
        starts = [init_random_model(3, seq.observation_alphabet, seq.action_alphabet, cfg, (3, 3, r), seq.event_rate)
                  for r in range(cfg.restarts)]
        reports = [fit(start, [seq], cfg) for start in starts]
        for rep in reports:
            assert np.isnan(rep.heldout_ll) and len(rep.heldout_trace) == rep.iterations == 3
            assert rep.heldout_trace[-1] == held_out_loglik(rep.final_model, [seq])
            assert rep.heldout_trace[-1] != rep.train_ll_trace[-1]
        scores = [rep.heldout_trace[-1] for rep in reports]
        best = fit_best([seq], 3, cfg)
        assert model_text(best.final_model) == model_text(reports[int(np.argmax(scores))].final_model)
        selection = select_num_states([seq], [2, 3], cfg)
        assert selection.heldout_lls == tuple(held_out_loglik(selection.reports[n].final_model, [seq]) for n in (2, 3))
        still = fit(starts[0], [seq], replace(cfg, inner_iterations=0))
        assert still.heldout_trace == (held_out_loglik(starts[0], [seq]),) and still.train_ll_trace == ()

    def test_self_consistency_from_truth(self):
        # One resample-EM-update cycle started at the generating model must
        # approximately preserve it: the held-out likelihood stays within
        # noise of the truth's and no parameter moves materially. (Longer
        # runs keep the likelihood but wander along the rate-scale softness
        # of the (chain, omega) parametrization, so one cycle is the unit.)
        toy = toy_sequences(length=4000, seed=33)
        cfg = FitConfig(seed=3, inner_iterations=4, outer_cap=1, eval_grids=3)
        report = fit(toy.model, [toy.sequence], cfg)
        _, holdout = split_chronological(toy.sequence, cfg.holdout_fraction)
        true_ll = held_out_loglik(toy.model, [holdout], cfg)
        assert abs(report.heldout_ll - true_ll) <= 0.01 * abs(true_ll)
        for trace in report.inner_ll_traces:
            assert np.diff(np.asarray(trace)).min(initial=0.0) > -1e-9
        for a in range(toy.model.n_actions):
            drift = np.abs(report.final_model.generators[a].rates - toy.model.generators[a].rates)
            assert drift.max() < 0.05 * max(1.0, toy.model.generators[a].max_exit_rate)
        assert np.abs(np.asarray(report.final_model.emission) - np.asarray(toy.model.emission)).max() < 0.05

    def test_structural_zeros_survive_whole_fit(self):
        toy = toy_sequences(length=400, seed=40)
        masks = []
        chains = toy.model.chain_stack.copy()
        for a in range(2):
            m = np.zeros((5, 5), dtype=bool)
            m[0, 3] = m[2, 4] = True
            chains[a][m] = 0.0
            chains[a] /= chains[a].sum(axis=1, keepdims=True)
            masks.append(m)
        from helpers import model_from_chains

        init = model_from_chains(chains, np.asarray(toy.model.emission), omega=toy.model.omega, masks=masks)
        cfg = FitConfig(seed=8, inner_iterations=3, outer_cap=3, eval_grids=2)
        report = fit(init, [toy.sequence], cfg)
        for a in range(2):
            rates = report.final_model.generators[a].rates
            assert np.all(rates[masks[a]] == 0.0)
            assert np.abs(rates.sum(axis=1)).max() < 1e-12

    def test_fit_best_with_per_action_emission(self):
        toy = toy_sequences(length=300, seed=41)
        cfg = FitConfig(seed=9, inner_iterations=3, outer_cap=3, restarts=2,
                        eval_grids=2, per_action_emission=True)
        report = fit_best([toy.sequence], 3, cfg)
        assert report.final_model.per_action_emission
        assert np.asarray(report.final_model.emission).shape == (2, 3, 2)
        assert np.isfinite(report.heldout_ll)

    def test_per_action_pair_only_in_heldout_tail_rejected_before_any_grid(self, monkeypatch):
        def no_grids(*args, **kwargs):
            raise AssertionError("a grid was built before the held-out pairs were checked")

        monkeypatch.setattr(switching, "build_time_grid", no_grids)
        # In the toy the recorded action is the emitted symbol, so a0 emits
        # only o0 in training; the last 5 events carry o1 under a0.
        seq = toy_sequences(length=100).sequence
        obs, acts = seq.observations.copy(), seq.actions.copy()
        obs[-5:], acts[-5:] = 1, 0
        seq = EventSequence(seq.id, seq.times, obs, acts, seq.observation_alphabet, seq.action_alphabet)
        cfg = FitConfig(restarts=1, inner_iterations=3, outer_cap=3, eval_grids=2, per_action_emission=True)
        with pytest.raises(SmjpError, match="^observation 'o1' under action 'a0' occurs only in the held-out "
                                            "part of sequence 'toy', so it has zero probability"):
            fit_best([seq], 2, cfg)

    def test_per_action_heldout_action_without_training_events_is_fitted(self):
        # a1 occurs only in the held-out tail, so its emission rows keep
        # their nonzero initial values and o1 stays possible under it.
        seq = toy_sequences(length=100).sequence
        train_part = len(split_chronological(seq, 0.2)[0])
        obs, acts = np.zeros(len(seq), dtype=np.int64), np.zeros(len(seq), dtype=np.int64)
        obs[train_part:], acts[train_part:] = 1, 1
        seq = EventSequence(seq.id, seq.times, obs, acts, seq.observation_alphabet, seq.action_alphabet)
        cfg = FitConfig(restarts=1, inner_iterations=3, outer_cap=3, eval_grids=2, per_action_emission=True)
        report = fit_best([seq], 2, cfg)
        assert np.isfinite(report.heldout_ll)
        assert np.all(np.asarray(report.final_model.emission)[1] > 0)

    def test_fit_best_rejects_zero_restarts(self):
        toy = toy_sequences(length=60)
        with pytest.raises(SmjpError, match="restarts must be at least 1"):
            fit_best([toy.sequence], 2, FitConfig(restarts=0))

    @pytest.mark.parametrize("length, message", [
        (None, "^need at least one training sequence$"),
        (1, "^sequence 'toy' has 1 training events, need at least 2$"),
    ])
    def test_fit_best_checks_training_data_before_any_start(self, monkeypatch, length, message):
        # The start omega is the event rate, which only a training part
        # with two events makes positive.
        monkeypatch.setattr(switching, "init_random_model", lambda *a: pytest.fail("drew a start"))
        s = toy_sequences(length=60).sequence
        seqs = [] if length is None else [EventSequence(
            s.id, s.times[:length], s.observations[:length], s.actions[:length],
            s.observation_alphabet, s.action_alphabet)]
        with pytest.raises(SmjpError, match=message):
            fit_best(seqs, 2, FitConfig(holdout_fraction=0.0))

    def test_fit_best_rejects_zero_states(self):
        toy = toy_sequences(length=60)
        with pytest.raises(SmjpError, match="^n_states must be at least 1, got 0$"):
            fit_best([toy.sequence], 0, FitConfig())

    @pytest.mark.parametrize("holdout_fraction", [0.0, 0.2])
    def test_fit_rejects_zero_eval_grids_before_any_grid(self, monkeypatch, holdout_fraction):
        def no_grids(*args, **kwargs):
            raise AssertionError("a grid was built before eval_grids was checked")

        monkeypatch.setattr(switching, "build_time_grid", no_grids)
        toy = toy_sequences(length=60)
        with pytest.raises(SmjpError, match="^eval_grids must be at least 1, got 0$"):
            cfg = FitConfig(eval_grids=0, holdout_fraction=holdout_fraction)
            fit(toy.model, [toy.sequence], cfg)

    def test_alphabet_mismatch_rejected(self):
        toy = toy_sequences(length=60)
        other = EventSequence(
            "bad",
            toy.sequence.times,
            toy.sequence.observations,
            toy.sequence.actions,
            index_alphabet("observation", 2, "different"),
            toy.sequence.action_alphabet,
        )
        with pytest.raises(InconsistentShapes):
            fit(toy.model, [other], FitConfig())


def small_case():
    """A 3-state, 2-action model and a 15-event sequence on its alphabets."""
    rng = derive_rng(60)
    model = random_model(rng, 3, 2, 3, omega=2.0)
    times = np.cumsum(rng.exponential(1.0, size=15))
    seq = EventSequence("s", times, rng.integers(0, 3, size=15), rng.integers(0, 2, size=15),
                        model.observations, model.actions)
    return model, seq


def grid_mean_loglik(model, seq, grids=2000):
    """Log of the mean likelihood over ``grids`` fixed-seed grids, and the
    delta-method standard error of that log."""
    draws = (build_time_grid(seq, model.omega, derive_rng(61, g)) for g in range(grids))
    lls = np.array([grid_forward_backward(model, points(grid)).log_likelihood for grid in draws])
    w = np.exp(lls - lls.max())
    return float(lls.max() + np.log(w.mean())), float(w.std() / (w.mean() * np.sqrt(grids)))


class TestOneLawPerOmega:
    """Omega is part of the model's law: a grid's mean likelihood is the
    grid-free likelihood at that omega, and the same generators at another
    omega are another law. So a fit holds omega, and rebuilding a model
    from its own chains gives back the same law."""

    @pytest.mark.parametrize("factor", [1.0, 2.0])
    def test_count_grid_mean_is_the_exact_likelihood(self, factor):
        model, seq = small_case()
        model = replace(model, omega=factor * model.omega)
        est, se = grid_mean_loglik(model, seq)
        assert abs(est - exact_loglik(model, seq)) < 4.0 * se

    def test_same_generators_score_differently_at_double_omega(self):
        model, seq = small_case()
        doubled = replace(model, omega=2.0 * model.omega)
        assert doubled.generators == model.generators
        gap = abs(exact_loglik(doubled, seq) - exact_loglik(model, seq))
        (_, se1), (_, se2) = grid_mean_loglik(model, seq), grid_mean_loglik(doubled, seq)
        assert gap > 8.0 * max(se1, se2)

    def test_rebuild_from_own_chains_keeps_omega_and_law(self):
        model, seq = small_case()
        # Action 1's chain never stays put: its exit rates all equal omega.
        chains = model.chain_stack.copy()
        chains[1] = (1.0 - np.eye(3)) / 2.0
        model = model_from_chains(chains, model.emission, omega=model.omega)
        assert np.all(model.generators[1].exit_rates == model.omega)
        rebuilt = rebuild_model(model, model.chain_stack, model.emission)
        assert rebuilt.omega == model.omega
        for got, want in zip(rebuilt.generators, model.generators):
            np.testing.assert_allclose(got.rates, want.rates, rtol=0, atol=1e-12)
        assert abs(exact_loglik(rebuilt, seq) - exact_loglik(model, seq)) < 1e-12

    def test_fit_keeps_the_start_omega(self):
        toy = toy_sequences(length=300, seed=42)
        seq = toy.sequence
        cfg = FitConfig(seed=5, inner_iterations=2, outer_cap=3, eval_grids=1)
        init = init_random_model(3, seq.observation_alphabet, seq.action_alphabet, cfg, (3, 3, 0), seq.event_rate)
        report = fit(init, [seq], cfg)
        assert report.iterations == 3
        assert report.final_model.omega == init.omega
        # Twice the fitted exit rates is another omega, so holding it shows.
        assert default_omega(report.final_model.generators) != init.omega


class TestHeldOut:
    def test_single_state_closed_form(self):
        rng = derive_rng(14)
        model = random_model(rng, 1, 1, 3, omega=0.5)
        toy = toy_sequences(length=80, seed=2)
        seq = EventSequence(
            "x",
            toy.sequence.times,
            np.minimum(toy.sequence.observations, 2),
            np.zeros(len(toy.sequence), dtype=np.int64),
            model.observations,
            model.actions,
        )
        cfg = FitConfig(eval_grids=4, seed=9)
        ll = held_out_loglik(model, [seq], cfg)
        expected = sum(np.log(model.emission[0, o]) for o in seq.observations)
        assert ll == pytest.approx(expected, abs=1e-9)

    def test_duplicate_sequence_doubles_exactly(self):
        toy = toy_sequences(length=150, seed=5)
        cfg = FitConfig(eval_grids=3, seed=4)
        one = held_out_loglik(toy.model, [toy.sequence], cfg)
        two = held_out_loglik(toy.model, [toy.sequence, toy.sequence], cfg)
        assert two == pytest.approx(2 * one, abs=1e-12)

    def test_matches_enumeration_on_tiny_sequence(self):
        # Brute force over every state path at the events, each step
        # weighted by B_k expm(A_k dt) from core.matrix_exponential.
        toy = toy_sequences(length=5, seed=12)
        model, seq = toy.model, toy.sequence
        assert len(seq) <= 6, "seed drift made the sequence too long to enumerate"
        steps = [
            model.chain_stack[a] @ matrix_exponential(model.generators[a], dt).probs
            for a, dt in zip(seq.actions[:-1], np.diff(seq.times))
        ]
        emit = model.emission[:, seq.observations].T
        n = model.n_states
        total = 0.0
        gamma = np.zeros((len(seq), n))
        xi = np.zeros((len(seq) - 1, n, n))
        for path in itertools.product(range(n), repeat=len(seq)):
            w = emit[0, path[0]] / n
            for i, step in enumerate(steps):
                w *= step[path[i], path[i + 1]] * emit[i + 1, path[i + 1]]
            total += w
            gamma[np.arange(len(seq)), path] += w
            xi[np.arange(len(seq) - 1), path[:-1], path[1:]] += w
        got = held_out_loglik(model, [seq], FitConfig(eval_grids=2, seed=6))
        assert got == pytest.approx(np.log(total), abs=1e-10)
        np.testing.assert_allclose(event_state_posterior(model, seq), gamma / total, rtol=0, atol=1e-12)
        np.testing.assert_allclose(scaled_xi(model, seq), xi / total, rtol=0, atol=1e-12)

    def test_rejects_zero_eval_grids(self):
        toy = toy_sequences(length=50, seed=3)
        with pytest.raises(SmjpError, match="eval_grids must be at least 1"):
            held_out_loglik(toy.model, [toy.sequence], FitConfig(eval_grids=0))

    def test_impossible_symbol_same_error_as_forward(self):
        toy = toy_sequences(length=60, seed=8)
        emission = np.array(toy.model.emission)
        emission[:, 1] = 0.0
        emission /= emission.sum(axis=1, keepdims=True)
        model = replace(toy.model, emission=emission)
        seq = toy.sequence
        first = int(np.flatnonzero(seq.observations == 1)[0])
        with pytest.raises(ZeroProbabilityObservation) as want:
            grid_forward_backward(model, event_grid(seq.observations, seq.actions))
        for call in (lambda: held_out_loglik(model, [seq], FitConfig(eval_grids=1, seed=3)),
                     lambda: forward_backward(model, seq)):
            with pytest.raises(ZeroProbabilityObservation) as got:
                call()
            assert got.value.step == want.value.step == first
            assert str(got.value) == f"observation at event {first} of sequence {seq.id!r} has zero likelihood"


class TestExactHeldOut:
    """held_out_loglik is the event-level likelihood of tests/helpers'
    exact_loglik, built from the uniformization series."""

    @pytest.mark.parametrize("per_action", [False, True])
    @pytest.mark.parametrize("n_actions", [1, 2, 3])
    @pytest.mark.parametrize("length", [1, 2, 40])
    def test_matches_exact_loglik(self, per_action, n_actions, length):
        rng = derive_rng(60, n_actions, length, per_action)
        model = random_model(rng, 4, n_actions, 3)
        if per_action:
            model = replace(model, emission=np.stack([rng.dirichlet(np.ones(3), size=4) for _ in range(n_actions)]))
        seq = random_sequence(rng, model, length)
        got = held_out_loglik(model, [seq])
        assert got == pytest.approx(exact_loglik(model, seq), rel=1e-9)
        # The event-level filter-smoother runs on the same laws.
        assert forward_backward(model, seq).log_likelihood == pytest.approx(got, rel=1e-12)

    def test_long_interval_takes_the_squaring_path(self):
        # Sticky chains keep expm(A dt) away from stationarity at omega dt
        # = 40 and 300, so a law that skips B or a squaring shows.
        rng = derive_rng(61)
        chains = 0.9 * np.eye(3) + 0.1 * np.stack([rng.dirichlet(np.ones(3), size=3) for _ in range(2)])
        model = model_from_chains(chains, rng.dirichlet(np.ones(3), size=3), omega=2.0)
        seq = random_sequence(rng, model, 30)
        times = seq.times.copy()
        for i, mean in ((8, 40.0), (15, 300.0), (22, 5e3)):
            times[i:] += mean / model.omega
        seq = replace(seq, times=times)
        assert model.omega * np.diff(seq.times).max() > 100 * switching._SERIES_CAP
        assert held_out_loglik(model, [seq]) == pytest.approx(exact_loglik(model, seq), rel=1e-9)

    def test_jordan_block_generator(self):
        # B = I + A/20 for A = [[-1, 1, 0], [0, -1, 1], [0, 0, 0]]: a
        # defective generator, eigenvalue -1 with one eigenvector.
        rates = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, 0.0]])
        model = model_from_chains((np.eye(3) + rates / 20.0)[None], derive_rng(62).dirichlet(np.ones(2), size=3),
                                  omega=20.0)
        np.testing.assert_allclose(model.generators[0].rates, rates, rtol=0, atol=1e-14)
        seq = random_sequence(derive_rng(63), model, 25)
        lam = model.omega * np.diff(seq.times)
        lam[3:6] = 40.0, 100.0, 400.0
        table = switching._power_table(model.chain_stack, 200)
        laws, index = switching._interval_laws(model.chain_stack, table, lam, np.zeros(lam.size, dtype=np.int64))
        for law, x in zip(laws[index], lam):
            ref = model.chain_stack[0] @ matrix_exponential(model.generators[0], x / model.omega).probs
            np.testing.assert_allclose(law, ref, rtol=0, atol=1e-10)
        assert held_out_loglik(model, [seq]) == pytest.approx(exact_loglik(model, seq), rel=1e-9)

    def test_law_stack_scores_as_the_step_filter(self):
        rng = derive_rng(64)
        model = random_model(rng, 3, 2, 4)
        seq = random_sequence(rng, model, 200)
        lam = model.omega * np.diff(seq.times)
        table = switching._power_table(model.chain_stack, 80)
        laws, index = switching._interval_laws(model.chain_stack, table, lam, seq.actions[:-1])
        e = _emission_table(model.emission, seq)
        _, c = _filter_steps(laws, e, index)
        assert _loglik(laws, e, index) == pytest.approx(np.log(c).sum(), abs=1e-9)

    @pytest.mark.parametrize("entries", [63, 1000, 5000])
    def test_chunking_leaves_the_score(self, monkeypatch, entries):
        rng = derive_rng(65)
        model = random_model(rng, 3, 2, 3)
        seqs = [random_sequence(rng, model, n) for n in (1, 2, 150, 400)]
        whole = held_out_loglik(model, seqs)
        monkeypatch.setattr(switching, "_REDUCE_BLOCK_ENTRIES", entries)
        assert held_out_loglik(model, seqs) == pytest.approx(whole, rel=1e-12)

    def test_reads_no_grid_knob(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("built a grid")

        for module in (analysis, switching):
            monkeypatch.setattr(module, "build_time_grid", no_grid)
        toy = toy_sequences(length=80, seed=4)
        configs = [FitConfig(seed=s, eval_grids=g) for s in (0, 9) for g in (1, 5)]
        scores = {held_out_loglik(toy.model, [toy.sequence], cfg) for cfg in configs}
        assert scores == {held_out_loglik(toy.model, [toy.sequence])}
        gammas = {event_state_posterior(toy.model, toy.sequence, cfg).tobytes() for cfg in configs}
        assert gammas == {event_state_posterior(toy.model, toy.sequence).tobytes()}

    def test_overflowing_interval_refused(self):
        toy = toy_sequences(length=20, seed=5)
        times = toy.sequence.times.copy()
        times[-1] = times[-2] + 2 * MAX_EXPECTED_VIRTUAL / toy.model.omega
        seq = replace(toy.sequence, times=times)
        with pytest.raises(VirtualTimeOverflow, match=f"interval {len(times) - 2} "):
            held_out_loglik(toy.model, [seq])

    def test_overflow_names_its_sequence(self):
        ok = toy_sequences(length=40, seed=5).sequence
        bad = replace(toy_sequences(length=40, seed=6).sequence, id="bad")
        times = bad.times.copy()
        times[13:] += 2 * MAX_EXPECTED_VIRTUAL / ok.event_rate
        bad = replace(bad, times=times)
        model = init_random_model(3, ok.observation_alphabet, ok.action_alphabet, FitConfig(), (3, 3, 0),
                                  ok.event_rate)
        message = "^.* expected virtual points in interval 12 of sequence 'bad' \\(.*misconfigured$"
        cfg = FitConfig(seed=1, inner_iterations=1, outer_cap=1, restarts=1)
        for call in (lambda: held_out_loglik(model, [ok, bad]), lambda: forward_backward(model, bad),
                     lambda: fit(model, [ok, bad], cfg)):
            with pytest.raises(VirtualTimeOverflow, match=message):
                call()


def joined_case(lengths, seed=65, **kw):
    """A random model and sequences of the given lengths, named s0, s1, ..."""
    rng = derive_rng(seed)
    model = random_model(rng, 3, 2, 3, **kw)
    return model, [replace(random_sequence(rng, model, n), id=f"s{i}") for i, n in enumerate(lengths)]


def spy_runs(monkeypatch) -> tuple[list[int], list[int]]:
    """Lists filled with the interval count of each law build and the
    event count of each scored run."""
    intervals, events = [], []
    laws_of = switching._interval_laws
    monkeypatch.setattr(switching, "_interval_laws", lambda *args: intervals.append(args[2].size) or laws_of(*args))
    monkeypatch.setattr(switching, "_loglik", lambda laws, e, index: events.append(len(e)) or _loglik(laws, e, index))
    return intervals, events


class TestJoinedRuns:
    """held_out_loglik joins consecutive sequences into runs of at most
    ``_REDUCE_BLOCK_ENTRIES // N^2`` events, one law build and one scan
    each, with a reset law between sequences."""

    @pytest.mark.parametrize("entries", [25, 1000, None])
    def test_a_run_scores_the_sum_of_its_sequences(self, monkeypatch, entries):
        model, seqs = joined_case([1, 2, 1, 150, 1, 400])
        singles = sum(held_out_loglik(model, [seq]) for seq in seqs)
        if entries is not None:
            monkeypatch.setattr(switching, "_REDUCE_BLOCK_ENTRIES", entries)
        assert held_out_loglik(model, seqs) == pytest.approx(singles, rel=1e-12)

    def test_run_of_single_events(self):
        model, seqs = joined_case([1] * 7)
        want = sum(held_out_loglik(model, [seq]) for seq in seqs)
        assert held_out_loglik(model, seqs) == pytest.approx(want, rel=1e-12)

    def test_run_with_a_squared_interval(self):
        model, seqs = joined_case([30, 20, 40], seed=66)
        times = seqs[1].times.copy()
        times[9:] += 40 * switching._SERIES_CAP / model.omega
        seqs[1] = replace(seqs[1], times=times)
        want = [held_out_loglik(model, [seq]) for seq in seqs]
        assert held_out_loglik(model, seqs) == pytest.approx(sum(want), rel=1e-12)
        assert want[1] == pytest.approx(exact_loglik(model, seqs[1]), rel=1e-9)

    def test_joined_smoother_is_each_sequences(self):
        # The reset law hands each sequence the uniform start and a constant
        # smoother at the previous one's last event.
        model, seqs = joined_case([1, 2, 5, 1, 30], seed=67)
        (joined,) = switching._on_events(model, seqs, _filter_smooth)
        gamma = ForwardBackwardResult(*joined).gamma
        want = np.concatenate([forward_backward(model, seq).gamma for seq in seqs])
        np.testing.assert_allclose(gamma, want, rtol=0, atol=1e-13)

    def test_runs_stay_under_the_cap(self, monkeypatch):
        model, seqs = joined_case([int(n) for n in derive_rng(68).integers(1, 300, size=30)])
        whole = held_out_loglik(model, seqs)
        entries = 1000
        monkeypatch.setattr(switching, "_REDUCE_BLOCK_ENTRIES", entries)
        intervals, events = spy_runs(monkeypatch)
        assert held_out_loglik(model, seqs) == pytest.approx(whole, rel=1e-12)
        assert len(intervals) == len(events) > 1
        assert max(events) <= max(entries // model.n_states**2, max(len(seq) for seq in seqs))
        assert sum(events) == sum(len(seq) for seq in seqs)
        assert sum(intervals) == sum(len(seq) - 1 for seq in seqs)

    def test_many_short_sequences_take_one_law_build(self, monkeypatch):
        rng = derive_rng(69)
        model = random_model(rng, 5, 2, 3)
        seqs = [random_sequence(rng, model, 50) for _ in range(40)]
        intervals, events = spy_runs(monkeypatch)
        held_out_loglik(model, seqs)
        assert intervals == [40 * 49] and events == [40 * 50]

    def test_impossible_first_event_of_a_later_sequence(self):
        # Symbol 2 is never emitted; the third sequence opens with it, on
        # the reset step from the second.
        emission = np.array([[0.7, 0.3, 0.0], [0.2, 0.8, 0.0]])
        model = model_from_chains(np.full((1, 2, 2), 0.5), emission)
        rng = derive_rng(70)
        seqs = [EventSequence(f"s{i}", np.cumsum(rng.exponential(1.0, size=n)), rng.integers(0, 2, n),
                              np.zeros(n, dtype=np.int64), model.observations, model.actions)
                for i, n in enumerate([4, 6, 5, 3])]
        obs = seqs[2].observations.copy()
        obs[0] = 2
        seqs[2] = replace(seqs[2], observations=obs)
        with pytest.raises(ZeroProbabilityObservation, match="^observation at event 0 of sequence 's2' has zero "
                                                             "likelihood$") as info:
            held_out_loglik(model, seqs)
        assert info.value.step == 0

    def test_impossibility_only_the_up_sweep_sees_inside_a_run(self):
        # TestLoglik's case, as the second of three sequences of one run:
        # after eight events of the first, x's step to its event 9 again
        # opens a block.
        model = model_from_chains(np.eye(2)[None], np.eye(2))

        def sequence(name, obs):
            return EventSequence(name, np.arange(float(len(obs))), np.array(obs), np.zeros(len(obs), dtype=np.int64),
                                 model.observations, model.actions)

        seqs = [sequence("w", [1] * 8), sequence("x", [0] * 9 + [1] * 5), sequence("y", [0] * 3)]
        message = "^observation at event 9 of sequence 'x' has zero likelihood$"
        with pytest.raises(ZeroProbabilityObservation, match=message) as info:
            held_out_loglik(model, seqs)
        assert info.value.step == 9

    def test_fallback_reruns_only_its_run(self, monkeypatch):
        # Symbol 1's subnormal emission puts a block product of the run
        # holding sequence s2 below _SCAN_FLOOR.
        emission = np.array([[1.0 - 1e-320, 1e-320], [1.0 - 1e-320, 1e-320]])
        model = model_from_chains(np.full((1, 2, 2), 0.5), emission)
        obs = [np.zeros(30), np.zeros(10), np.array([1, 0, 1, 0]), np.zeros(20)]
        seqs = [EventSequence(f"s{i}", np.arange(1.0, len(o) + 1), o.astype(np.int64), np.zeros(len(o), dtype=np.int64),
                              model.observations, model.actions) for i, o in enumerate(obs)]
        want = sum(held_out_loglik(model, [seq]) for seq in seqs)
        # Runs of at most 40 events: s0 and s1, then s2 and s3.
        monkeypatch.setattr(switching, "_REDUCE_BLOCK_ENTRIES", 40 * 4)
        reruns = []
        monkeypatch.setattr(switching, "_filter_steps", lambda c, e, k: reruns.append(len(e)) or _filter_steps(c, e, k))
        got = held_out_loglik(model, seqs)
        assert reruns == [24]
        assert got == pytest.approx(want, rel=1e-12)


def step_loglik(model, grid):
    """The step filter's log-likelihood: the reference for _loglik."""
    _, c = _filter_steps(model.chain_stack, point_emission(model.emission, grid), grid.actions)
    return float(np.log(c).sum())


@pytest.fixture(scope="module")
def forager_stream():
    """Criterion 07's optimal agent: 6000 s, seed 42."""
    mdp = build_belief_mdp(WorldConfig(), 10, 0.05)
    vi = value_iteration(mdp, tol=1e-8)
    seq, _ = simulate_agent(replace(mdp, values=vi.values, policy=vi.policy), 6000.0, seed=42)
    return seq


class TestDistinctLaws:
    """One law per distinct (action, dt), against tests/helpers'
    interval_law_stack, which builds one per interval."""

    def test_forager_scores_and_smooths_as_the_per_interval_stack(self, forager_stream):
        seq = forager_stream
        model = init_random_model(6, seq.observation_alphabet, seq.action_alphabet, FitConfig(), (3, 6, 0),
                                  seq.event_rate)
        laws, index = event_laws(model, seq)
        assert len(laws) == 4 and index.shape == (len(seq) - 1,)
        stack = interval_law_stack(model, seq)
        np.testing.assert_allclose(laws[index], stack, rtol=0, atol=1e-14)
        e = _emission_table(model.emission, seq)
        steps = np.arange(len(seq) - 1)
        ll = _loglik(stack, e, steps)
        assert held_out_loglik(model, [seq]) == pytest.approx(ll, rel=1e-12)
        want = ForwardBackwardResult(*_filter_smooth(stack, e, steps))
        got = forward_backward(model, seq)
        assert got.log_likelihood == pytest.approx(want.log_likelihood, rel=1e-12)
        np.testing.assert_allclose(got.gamma, want.gamma, rtol=1e-12, atol=1e-15)

    def test_distinct_intervals_keep_their_order_and_bits(self):
        toy = generate_toy(ToyConfig(expected_length=400), seed=4)
        laws, index = event_laws(toy.model, toy.sequence)
        assert np.array_equal(index, np.arange(len(toy.sequence) - 1))
        np.testing.assert_allclose(laws, interval_law_stack(toy.model, toy.sequence), rtol=0, atol=1e-14)
        # The scan's score, to the last bit.
        assert held_out_loglik(toy.model, [toy.sequence]) == -231.729276243509

    def test_repeats_share_a_law(self):
        rng = derive_rng(66)
        model = random_model(rng, 3, 2, 3, omega=2.0)
        # Gaps of 0.5 and 0.25 s under two actions, and 40 s and 80 s
        # gaps, whose halved means are equal, under the squaring path.
        gaps = np.array([0.5, 0.25, 0.5, 40.0, 0.25, 80.0, 0.5, 40.0, 0.5])
        acts = np.array([0, 0, 1, 0, 0, 0, 1, 0, 0, 0])
        seq = EventSequence("r", np.concatenate([[0.0], np.cumsum(gaps)]), rng.integers(0, 3, 10), acts,
                            model.observations, model.actions)
        laws, index = event_laws(model, seq)
        assert index.tolist() == [0, 1, 2, 3, 1, 4, 2, 3, 0]
        np.testing.assert_allclose(laws[index], interval_law_stack(model, seq), rtol=0, atol=1e-14)
        assert held_out_loglik(model, [seq]) == pytest.approx(exact_loglik(model, seq), rel=1e-9)

    def test_one_event_has_no_law(self):
        toy = generate_toy(ToyConfig(expected_length=50), seed=5)
        one = replace(toy.sequence, times=toy.sequence.times[:1], observations=toy.sequence.observations[:1],
                      actions=toy.sequence.actions[:1])
        laws, index = event_laws(toy.model, one)
        n = toy.model.n_states
        assert laws.shape == (0, n, n) and index.size == 0
        assert forward_backward(toy.model, one).gamma.shape == (1, n)


class TestLoglik:
    """The likelihood read off the scan's block products and up-sweep,
    against the log-domain and step filters."""

    def test_long_grid_per_action_emission(self):
        rng = derive_rng(23)
        model = random_model(rng, 6, 2, 3)
        model = replace(model, emission=np.stack([rng.dirichlet(np.ones(3), size=6) for _ in range(2)]))
        grid = random_grid(rng, 20_000, 2, 3)
        got = _loglik(model.chain_stack, point_emission(model.emission, grid), grid.actions)
        _, ref = forward_logspace(model, grid)
        # The log-domain oracle itself drifts ~1e-13 relative over 20k steps.
        assert got == pytest.approx(ref, rel=1e-12)
        assert got == pytest.approx(step_loglik(model, grid), abs=1e-9)

    @pytest.mark.parametrize("size", [1, 2, 3, 8])
    def test_blocks_and_odd_lengths(self, monkeypatch, size):
        # Lengths that pad the last block and leave odd up-sweep levels.
        rng = derive_rng(24)
        model = random_model(rng, 3, 2, 4)
        monkeypatch.setattr(switching, "_SCAN_BLOCK", size)
        for length in (1, 2, 3, 7, 8, 9, 50, 333):
            grid = random_grid(rng, length, 2, 4)
            got = _loglik(model.chain_stack, point_emission(model.emission, grid), grid.actions)
            assert got == pytest.approx(step_loglik(model, grid), abs=1e-10)

    def test_tiny_emission_stays_finite(self):
        toy = toy_sequences(length=200, seed=9)
        emission = np.array(toy.model.emission)
        emission[:, 1] = 1e-300
        emission /= emission.sum(axis=1, keepdims=True)
        model = replace(toy.model, emission=emission)
        got = held_out_loglik(model, [toy.sequence], FitConfig(eval_grids=2, seed=5))
        assert np.isfinite(got)
        assert got == pytest.approx(exact_loglik(model, toy.sequence), rel=1e-9)

    def test_subnormal_emission_matches_step_filter(self, monkeypatch):
        emission = np.array([[1.0 - 1e-320, 1e-320], [1.0 - 1e-320, 1e-320]])
        model = model_from_chains(np.full((1, 2, 2), 0.5), emission)
        grid = event_grid([1, 0, 1, 0], [0, 0, 0, 0])
        want = step_loglik(model, grid)
        reruns = []
        monkeypatch.setattr(switching, "_filter_steps", lambda *args: reruns.append(1) or _filter_steps(*args))
        got = _loglik(model.chain_stack, point_emission(model.emission, grid), grid.actions)
        # The block product's mass is subnormal, below _SCAN_FLOOR.
        assert reruns == [1]
        assert np.isfinite(got)
        assert got == pytest.approx(want, abs=1e-9)

    def test_impossibility_only_the_up_sweep_sees(self):
        # Eight steps of symbol 0 fill the first block and five of symbol 1
        # the second; under B = I each block product has positive mass,
        # but their product is zero.
        model = model_from_chains(np.eye(2)[None], np.eye(2))
        obs = [0] * 9 + [1] * 5
        seq = EventSequence("x", np.arange(14.0), np.array(obs), np.zeros(14, dtype=np.int64), model.observations,
                            model.actions)
        message = "^observation at event 9 of sequence 'x' has zero likelihood$"
        for score in (lambda: held_out_loglik(model, [seq]), lambda: forward_backward(model, seq)):
            with pytest.raises(ZeroProbabilityObservation, match=message) as info:
                score()
            assert info.value.step == 9


class TestSelectNumStates:
    def test_single_candidate(self):
        toy = toy_sequences(length=150, seed=6)
        cfg = FitConfig(seed=2, inner_iterations=3, outer_cap=3, restarts=1, eval_grids=2)
        sel = select_num_states([toy.sequence], [3], cfg)
        assert sel.chosen_n == 3
        assert len(sel.heldout_lls) == 1

    def test_flat_curve_chooses_smallest(self):
        # One observation symbol makes every candidate's likelihood exactly
        # zero, so the curve is flat and parsimony must win.
        rng = derive_rng(15)
        times = np.cumsum(rng.exponential(1.0, size=120))
        seq = EventSequence(
            "flat",
            times,
            np.zeros(120, dtype=np.int64),
            np.zeros(120, dtype=np.int64),
            index_alphabet("observation", 1, "o"),
            index_alphabet("action", 1, "a"),
        )
        cfg = FitConfig(seed=3, inner_iterations=2, outer_cap=2, restarts=1, eval_grids=2)
        sel = select_num_states([seq], [1, 2, 3], cfg)
        assert sel.chosen_n == 1
        assert np.allclose(sel.heldout_lls, 0.0, atol=1e-12)

    def test_bad_range_rejected(self):
        toy = toy_sequences(length=60)
        with pytest.raises(Exception):
            select_num_states([toy.sequence], [3, 2], FitConfig())

    def test_zero_restarts_rejected_before_candidates(self, monkeypatch):
        def no_fits(*args, **kwargs):
            raise AssertionError("a candidate was fitted before restarts was checked")

        monkeypatch.setattr(switching, "fit_best", no_fits)
        toy = toy_sequences(length=60)
        with pytest.raises(SmjpError, match="^restarts must be at least 1, got 0$"):
            select_num_states([toy.sequence], [2, 3], FitConfig(restarts=0))

    def test_empty_sequence_list_rejected_before_candidates(self, monkeypatch):
        def no_fits(*args, **kwargs):
            raise AssertionError("a candidate was fitted without any sequence")

        monkeypatch.setattr(switching, "fit_best", no_fits)
        with pytest.raises(SmjpError, match="^need at least one training sequence$"):
            select_num_states([], [2, 3], FitConfig())


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = derive_rng(16)
        model = random_model(rng, 4, 3, 2, omega=1.7)
        meta = {"heldout_loglik": repr(-123.456), "iterations": "7"}
        text = model_text(model, meta)
        loaded, meta_back = load_model(io.StringIO(text))
        assert meta_back == meta
        assert model_text(loaded, meta_back) == text
        for a in range(model.n_actions):
            assert np.array_equal(loaded.generators[a].rates, model.generators[a].rates)
        assert np.array_equal(np.asarray(loaded.emission), np.asarray(model.emission))
        assert loaded.omega == model.omega
        assert loaded.states.labels == model.states.labels

    def test_round_trip_with_masks(self):
        rng = derive_rng(17)
        chains = np.stack([rng.dirichlet(np.ones(3), size=3)])
        chains[0][0, 2] = 0.0
        chains[0] /= chains[0].sum(axis=1, keepdims=True)
        masks = [np.zeros((3, 3), dtype=bool)]
        masks[0][0, 2] = True
        model = model_from_chains(chains, rng.dirichlet(np.ones(2), size=3), masks=masks)
        text = model_text(model)
        loaded, _ = load_model(io.StringIO(text))
        assert loaded.structural_masks is not None
        assert np.array_equal(loaded.structural_masks[0], masks[0])
        assert model_text(loaded) == text

    def test_loaded_model_evaluates_identically(self):
        toy = toy_sequences(length=200, seed=8)
        cfg = FitConfig(seed=11, eval_grids=3)
        ll = held_out_loglik(toy.model, [toy.sequence], cfg)
        loaded, _ = load_model(io.StringIO(model_text(toy.model)))
        assert held_out_loglik(loaded, [toy.sequence], cfg) == ll

    def test_bad_documents_rejected(self):
        from smjp.switching import ModelFormatError

        with pytest.raises(ModelFormatError):
            load_model(io.StringIO("not a model\n"))
        rng = derive_rng(20)
        model = random_model(rng, 2, 1, 2)
        truncated = "\n".join(model_text(model).splitlines()[:4]) + "\n"
        with pytest.raises(ModelFormatError):
            load_model(io.StringIO(truncated))

    @pytest.mark.parametrize("omega", ["-1.0", "nan"])
    def test_whole_model_invariant_names_the_file(self, omega):
        from smjp.switching import ModelFormatError

        lines = model_text(random_model(derive_rng(20), 2, 1, 2)).splitlines()
        lines[4] = f"omega: {omega}"
        with pytest.raises(ModelFormatError, match=f"^<stream>: omega must be positive, got {omega}$"):
            load_model(io.StringIO("\n".join(lines) + "\n"))

    def test_per_action_emission_round_trip(self):
        rng = derive_rng(18)
        chains = np.stack([rng.dirichlet(np.ones(2), size=2) for _ in range(2)])
        emission = np.stack([rng.dirichlet(np.ones(3), size=2) for _ in range(2)])
        model = model_from_chains(chains, emission)
        loaded, _ = load_model(io.StringIO(model_text(model)))
        assert loaded.per_action_emission
        assert np.array_equal(np.asarray(loaded.emission), emission)


class TestPerActionEmission:
    def test_forward_uses_action_specific_rows(self):
        chains = np.full((2, 2, 2), 0.5)
        emission = np.zeros((2, 2, 2))
        emission[0] = [[1.0, 0.0], [1.0, 0.0]]  # action 0 always emits symbol 0
        emission[1] = [[0.0, 1.0], [0.0, 1.0]]  # action 1 always emits symbol 1
        model = model_from_chains(chains, emission)
        good = event_grid([0, 1], [0, 1])
        assert grid_forward_backward(model, good).log_likelihood == pytest.approx(0.0, abs=1e-12)
        bad = event_grid([0, 0], [0, 1])
        with pytest.raises(ZeroProbabilityObservation):
            grid_forward_backward(model, bad)

    def test_em_recovers_per_action_emissions(self):
        rng = derive_rng(19)
        chains = np.full((2, 3, 3), 1.0 / 3.0)
        emission = np.stack([
            np.array([[0.9, 0.1], [0.8, 0.2], [0.7, 0.3]]),
            np.array([[0.1, 0.9], [0.2, 0.8], [0.3, 0.7]]),
        ])
        model = model_from_chains(chains, emission)
        grid = TimeGrid(random_sequence(rng, model, 400), np.zeros(399, dtype=np.int64))
        cfg = FitConfig(inner_iterations=3, inner_tol=0.0)
        _, new_emission, trace, _ = inner_em(model, [grid], cfg)
        assert new_emission.shape == (2, 3, 2)
        assert np.diff(trace).min() > -1e-9
