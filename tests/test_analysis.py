import itertools
import re
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from helpers import (
    cocluster_by_restart,
    greedy_modularity_lists,
    information_loss,
    init_assignment_by_element,
    model_from_chains,
    modularity,
    random_model,
    select_cocluster_sizes_by_pair,
)
from smjp import analysis
from smjp.analysis import (
    DegenerateJoint,
    EmptyGraph,
    GridMisalignment,
    InvalidAction,
    TooFewEvents,
    cocluster,
    event_state_posterior,
    extract_subgraphs,
    interval_stats,
    joint_operator,
    mutual_information,
    select_cocluster_sizes,
    state_correspondence,
)
from smjp.core import Alphabet, SmjpError, derive_rng
from smjp.events import EventSequence
from smjp.foraging import ToyConfig, generate_toy
from smjp.switching import FitConfig


class TestStateCorrespondence:
    def test_identical_one_hot_streams(self):
        rng = derive_rng(0)
        t, n = 40, 4
        states = rng.integers(0, n, size=t)
        onehot = np.zeros((t, n))
        onehot[np.arange(t), states] = 1.0
        corr = state_correspondence(onehot, onehot)
        assert np.allclose(corr.joint, np.diag(np.bincount(states, minlength=n) / t), atol=1e-15)
        live = corr.row_marginal > 0
        assert np.allclose(corr.conditional[live], np.eye(n)[live], atol=1e-12)

    def test_single_time_point_is_outer_product(self):
        g = np.array([[0.2, 0.8]])
        z = np.array([[0.5, 0.25, 0.25]])
        corr = state_correspondence(g, z)
        assert np.allclose(corr.joint, np.outer(g[0], z[0]), atol=1e-15)

    def test_independent_streams_factorize(self):
        rng = derive_rng(1)
        t = 20000
        a = rng.integers(0, 3, size=t)
        b = rng.integers(0, 4, size=t)
        ga = np.zeros((t, 3))
        ga[np.arange(t), a] = 1
        gb = np.zeros((t, 4))
        gb[np.arange(t), b] = 1
        corr = state_correspondence(ga, gb)
        expected = np.outer(corr.row_marginal, corr.col_marginal)
        sigma = np.sqrt(expected * (1 - expected) / t)
        assert np.all(np.abs(corr.joint - expected) < 3 * sigma + 1e-12)

    def test_marginals_match_time_averages(self):
        rng = derive_rng(2)
        t = 50
        g = rng.dirichlet(np.ones(3), size=t)
        z = rng.dirichlet(np.ones(5), size=t)
        corr = state_correspondence(g, z)
        assert np.abs(corr.row_marginal - g.mean(axis=0)).max() < 1e-10
        assert np.abs(corr.col_marginal - z.mean(axis=0)).max() < 1e-10
        assert corr.joint.sum() == pytest.approx(1.0, abs=1e-10)

    def test_misaligned_grids_rejected(self):
        with pytest.raises(GridMisalignment):
            state_correspondence(np.ones((3, 2)) / 2, np.ones((4, 2)) / 2)


def block_joint(sizes_rows, sizes_cols):
    """Uniform-mass block-diagonal joint with len(sizes) matching blocks."""
    total_r, total_c = sum(sizes_rows), sum(sizes_cols)
    joint = np.zeros((total_r, total_c))
    r0 = c0 = 0
    for br, bc in zip(sizes_rows, sizes_cols):
        joint[r0 : r0 + br, c0 : c0 + bc] = 1.0 / (len(sizes_rows) * br * bc)
        r0 += br
        c0 += bc
    return joint


def brute_force_loss(joint, k_rows, k_cols):
    """Global minimum information loss over all onto assignments."""
    ns, nz = joint.shape
    best = np.inf
    for rows in itertools.product(range(k_rows), repeat=ns):
        if len(set(rows)) != k_rows:
            continue
        for cols in itertools.product(range(k_cols), repeat=nz):
            if len(set(cols)) != k_cols:
                continue
            loss = information_loss(joint, np.array(rows), np.array(cols), k_rows, k_cols)
            best = min(best, loss)
    return best


class TestCocluster:
    def test_block_diagonal_recovered_exactly(self):
        for sizes in [(2, 2), (1, 3), (3, 2)]:
            joint = block_joint(sizes, sizes)
            result = cocluster(joint, 2, 2, seed=3)
            assert result.mutual_information_loss < 1e-10
            r0 = result.row_assignment[: sizes[0]]
            r1 = result.row_assignment[sizes[0] :]
            assert len(set(r0.tolist())) == 1 and len(set(r1.tolist())) == 1
            assert r0[0] != r1[0]

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_restarts_below_one_rejected_before_any_restart(self, monkeypatch, restarts):
        monkeypatch.setattr(analysis, "derive_rng", lambda *a: pytest.fail("started a restart"))
        message = f"^restarts must be at least 1, got {restarts}$"
        with pytest.raises(SmjpError, match=message):
            cocluster(block_joint((2, 2), (2, 2)), 2, 2, seed=0, restarts=restarts)
        with pytest.raises(SmjpError, match=message):
            select_cocluster_sizes(block_joint((2, 2), (2, 2)), [1, 2], [2], seed=0, restarts=restarts)

    @pytest.mark.parametrize("max_sweeps", [0, -1])
    def test_max_sweeps_below_one_rejected_before_any_restart(self, monkeypatch, max_sweeps):
        monkeypatch.setattr(analysis, "derive_rng", lambda *a: pytest.fail("started a restart"))
        with pytest.raises(SmjpError, match=f"^max_sweeps must be at least 1, got {max_sweeps}$"):
            cocluster(block_joint((2, 2), (2, 2)), 2, 2, seed=0, max_sweeps=max_sweeps)

    def test_one_sweep_traces_one_loss(self):
        result = cocluster(block_joint((2, 2), (2, 2)), 2, 2, seed=0, restarts=3, max_sweeps=1)
        assert len(result.loss_trace) == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf, -1.0])
    def test_joint_not_finite_and_non_negative_rejected(self, cell):
        joint = block_joint((2, 2), (2, 2))
        joint[0, 1] = cell
        calls = [
            lambda: cocluster(joint, 2, 2, seed=0),
            lambda: select_cocluster_sizes(joint, [1, 2], [2], seed=0),
            lambda: mutual_information(joint),
            lambda: information_loss(joint, np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64), 1, 1),
        ]
        for call in calls:
            with pytest.raises(SmjpError, match="^joint must be a finite non-negative matrix$"):
                call()

        rng = derive_rng(4)
        joint = rng.dirichlet(np.ones(12)).reshape(3, 4)
        result = cocluster(joint, 3, 4, seed=0)
        assert result.mutual_information_loss < 1e-12

    def test_matches_brute_force_on_random_joints(self):
        rng = derive_rng(5)
        for _ in range(8):
            joint = rng.dirichlet(np.ones(16)).reshape(4, 4)
            result = cocluster(joint, 2, 2, seed=7, restarts=24)
            best = brute_force_loss(joint, 2, 2)
            assert result.mutual_information_loss == pytest.approx(best, abs=1e-10)

    def test_loss_equals_mi_difference_and_nonnegative(self):
        rng = derive_rng(6)
        joint = rng.dirichlet(np.ones(30)).reshape(5, 6)
        result = cocluster(joint, 3, 2, seed=1)
        direct = information_loss(joint, result.row_assignment, result.col_assignment, 3, 2)
        assert result.mutual_information_loss == pytest.approx(direct, abs=1e-10)
        assert result.mutual_information_loss >= 0

    def test_loss_trace_non_increasing(self):
        rng = derive_rng(7)
        joint = rng.dirichlet(np.ones(48)).reshape(6, 8)
        result = cocluster(joint, 3, 3, seed=2, restarts=4)
        assert np.diff(np.asarray(result.loss_trace)).max(initial=-np.inf) <= 1e-12

    def test_zero_mass_rows_pinned_deterministically(self):
        joint = block_joint((2, 2), (2, 2))
        joint = np.vstack([joint, np.zeros((1, 4))])
        r1 = cocluster(joint, 2, 2, seed=9)
        r2 = cocluster(joint, 2, 2, seed=9)
        assert np.array_equal(r1.row_assignment, r2.row_assignment)
        assert r1.row_assignment[-1] == 1  # pinned to the last cluster
        assert set(r1.row_assignment.tolist()) == {0, 1}
        assert r1.mutual_information_loss < 1e-10

    def test_degenerate_joint_rejected(self):
        with pytest.raises(DegenerateJoint):
            cocluster(np.zeros((3, 3)), 2, 2, seed=0)

    def test_accepts_correspondence_matrix_directly(self):
        rng = derive_rng(20)
        t = 30
        g = rng.dirichlet(np.ones(4), size=t)
        z = rng.dirichlet(np.ones(4), size=t)
        corr = state_correspondence(g, z)
        via_obj = cocluster(corr, 2, 2, seed=5)
        via_arr = cocluster(corr.joint, 2, 2, seed=5)
        assert via_obj.mutual_information_loss == pytest.approx(
            via_arr.mutual_information_loss, abs=1e-15
        )


class TestSelectCoclusterSizes:
    def test_identity_joint_elbow_at_full_size(self):
        joint = np.eye(5) / 5
        sel = select_cocluster_sizes(joint, range(2, 6), range(2, 6), seed=0)
        assert sel.chosen == (5, 5)

    def test_block_joint_elbow_at_block_count(self):
        joint = block_joint((2, 2, 2), (2, 2, 2))
        sel = select_cocluster_sizes(joint, range(2, 6), range(2, 6), seed=1)
        assert sel.chosen == (3, 3)

    def test_keeps_the_chosen_pairs_clustering(self):
        rng = derive_rng(8)
        joint = rng.dirichlet(np.ones(30)).reshape(5, 6)
        sel = select_cocluster_sizes(joint, range(2, 4), range(2, 5), seed=3, restarts=4)
        direct = cocluster(joint, *sel.chosen, seed=3, restarts=4)
        for f in fields(direct):
            np.testing.assert_equal(getattr(sel.chosen_clustering, f.name), getattr(direct, f.name))

    def test_surface_monotone_non_increasing(self):
        rng = derive_rng(8)
        joint = rng.dirichlet(np.ones(30)).reshape(5, 6)
        sel = select_cocluster_sizes(joint, range(1, 6), range(1, 7), seed=2, restarts=30)
        assert np.all(np.diff(sel.loss_surface, axis=0) <= 1e-9)
        assert np.all(np.diff(sel.loss_surface, axis=1) <= 1e-9)


class TestJointOperator:
    def test_identity_chains_compose_to_identity(self):
        chains = np.stack([np.eye(3), np.eye(3)])
        model = model_from_chains(chains, np.full((3, 2), 0.5))
        op = joint_operator(model, 0, 1)
        assert np.array_equal(op.matrix.probs, np.eye(3))

    def test_permutations_compose(self):
        p1 = np.eye(4)[[1, 2, 3, 0]]
        p2 = np.eye(4)[[3, 2, 0, 1]]
        model = model_from_chains(np.stack([p1, p2]), np.full((4, 2), 0.5))
        op = joint_operator(model, 0, 1)
        assert np.array_equal(op.matrix.probs, p1 @ p2)

    def test_random_products_row_stochastic(self):
        rng = derive_rng(9)
        for _ in range(10):
            model = random_model(rng, 5, 3, 2)
            i, j = rng.integers(0, 3, size=2)
            op = joint_operator(model, int(i), int(j))
            assert np.abs(op.matrix.probs.sum(axis=1) - 1).max() < 1e-12

    def test_invalid_action(self):
        rng = derive_rng(10)
        model = random_model(rng, 2, 2, 2)
        with pytest.raises(InvalidAction):
            joint_operator(model, 0, 5)


def planted_operator(rng, n=10, internal=0.4, cross=0.02, concentration=2.0):
    """Row-stochastic matrix with two planted communities: each row keeps
    1 - internal - cross on the diagonal, spreads ``internal`` inside its
    community and ``cross`` outside. The Dirichlet concentration keeps the
    internal spread uneven but not so extreme that thresholding can
    disconnect a block (which would make the planted split non-optimal)."""
    half = n // 2
    w = np.zeros((n, n))
    for i in range(n):
        same = [j for j in range(n) if (j < half) == (i < half) and j != i]
        other = [j for j in range(n) if (j < half) != (i < half)]
        w[i, same] = internal * rng.dirichlet(np.full(len(same), concentration))
        w[i, other] = cross * rng.dirichlet(np.full(len(other), concentration))
        w[i, i] = 1.0 - internal - cross
    return w


class TestExtractSubgraphs:
    def test_two_block_operator_recovered(self):
        w = np.zeros((6, 6))
        w[:3, :3] = 1.0 / 3.0
        w[3:, 3:] = 1.0 / 3.0
        res = extract_subgraphs(w, threshold=0.05)
        assert len(res.communities) == 2
        assert set(res.communities[0]) == {0, 1, 2}
        assert set(res.communities[1]) == {3, 4, 5}
        assert len(res.persistent_subspaces) == 2

    def test_identity_operator_all_singleton_and_persistent(self):
        res = extract_subgraphs(np.eye(5), threshold=0.05)
        assert len(res.communities) == 5
        assert all(len(c) == 1 for c in res.communities)
        assert len(res.persistent_subspaces) == 5

    def test_planted_two_communities(self):
        rng = derive_rng(11)
        hits = 0
        for _ in range(20):
            w = planted_operator(rng)
            res = extract_subgraphs(w, threshold=0.05)
            labels = res.partition
            ok = len(res.communities) == 2 and len(set(labels[:5].tolist())) == 1 and len(set(labels[5:].tolist())) == 1
            hits += ok
        assert hits == 20

    def test_modularity_at_least_trivial(self):
        rng = derive_rng(12)
        for _ in range(10):
            model = random_model(rng, 6, 2, 2)
            op = joint_operator(model, 0, 1)
            res = extract_subgraphs(op, threshold=0.0)
            sym = (op.matrix.probs + op.matrix.probs.T) / 2
            np.fill_diagonal(sym, 0.0)
            trivial = modularity(sym, np.zeros(6, dtype=int))
            assert res.modularity >= trivial - 1e-12

    def test_empty_graph(self):
        with pytest.raises(EmptyGraph):
            extract_subgraphs(np.full((8, 8), 1.0 / 8.0), threshold=0.2)

    def test_threshold_validation(self):
        with pytest.raises(Exception):
            extract_subgraphs(np.eye(3), threshold=1.5)

    @pytest.mark.parametrize("frac", [float("nan"), float("inf"), -1.0, 1.5])
    def test_persistence_frac_outside_unit_interval_rejected(self, frac):
        with pytest.raises(SmjpError, match=re.escape(f"persistence_frac must be in [0, 1], got {frac!r}")):
            extract_subgraphs(np.eye(3), persistence_frac=frac)

    @pytest.mark.parametrize("frac", [0.0, 1.0])
    def test_persistence_frac_bounds_accepted(self, frac):
        assert len(extract_subgraphs(np.eye(3), persistence_frac=frac).persistent_subspaces) == 3


def interval_sequence(intervals, label="press"):
    times = np.concatenate([[0.0], np.cumsum(intervals)])
    obs = Alphabet("observation", ("tick",))
    act = Alphabet("action", (label,))
    n = times.shape[0]
    return EventSequence("iv", times, np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64), obs, act)


class TestIntervalStats:
    def test_exponential_calibration(self):
        rng = derive_rng(13)
        seq = interval_sequence(rng.exponential(2.0, size=10_000))
        res = interval_stats(seq)
        assert res.ks_pvalue > 0.05
        assert res.exp_rate == pytest.approx(0.5, rel=0.05)
        assert res.hist_counts.sum() == res.n_intervals

    def test_constant_intervals_rejected_decisively(self):
        seq = interval_sequence(np.full(200, 3.0))
        res = interval_stats(seq)
        assert res.ks_pvalue < 1e-10

    @pytest.mark.parametrize("width", [float("nan"), float("inf"), -1.0, 0.0])
    def test_bin_width_not_finite_and_positive_rejected(self, width):
        seq = interval_sequence(np.ones(20))
        with pytest.raises(SmjpError, match=f"^bin_width must be finite and positive, got {width!r}$"):
            interval_stats(seq, bin_width=width)

    def test_explicit_width_over_the_bin_bound_refused(self):
        seq = interval_sequence(np.r_[np.ones(14), 1e9])
        with pytest.raises(SmjpError, match=r"^bin_width 1\.0 needs 1e\+09 histogram bins, more than 1000000$"):
            interval_stats(seq, bin_width=1.0)
        assert interval_stats(seq, bin_width=1e3).hist_counts.size == 1_000_000

    def test_default_width_is_never_held_to_the_bin_bound(self):
        # 300 000 intervals and one far gap: the default width, a quarter of
        # the mean, gives about 4n bins, more than an explicit width may ask.
        n = 300_000
        seq = interval_sequence(np.r_[np.ones(n - 1), 1e12])
        res = interval_stats(seq)
        assert analysis.MAX_HISTOGRAM_BINS < res.hist_counts.size <= 4 * n + 1
        assert res.hist_counts.sum() == n

    def test_too_few_events(self):
        seq = interval_sequence(np.ones(5))
        with pytest.raises(TooFewEvents):
            interval_stats(seq)

    def test_symbol_filters(self):
        obs = Alphabet("observation", ("a", "b"))
        act = Alphabet("action", ("x", "y"))
        times = np.arange(80, dtype=np.float64)
        o = np.tile([0, 1], 40)
        a = np.tile([0, 0, 1, 1], 20)
        seq = EventSequence("f", times, o, a, obs, act)
        res = interval_stats(seq, observation="a")
        assert res.n_intervals == 39
        assert res.mean_interval == pytest.approx(2.0)
        res2 = interval_stats(seq, observation="a", action="x")
        assert res2.n_intervals == 19
        assert res2.mean_interval == pytest.approx(4.0)


class TestEventStatePosterior:
    def test_rows_are_distributions(self):
        toy = generate_toy(ToyConfig(expected_length=120), seed=3)
        cfg = FitConfig(seed=5, eval_grids=3)
        gamma = event_state_posterior(toy.model, toy.sequence, cfg)
        assert gamma.shape == (len(toy.sequence), toy.model.n_states)
        assert np.abs(gamma.sum(axis=1) - 1.0).max() < 1e-9


def oracle_joints():
    """Seeded random joints from 2x2 to 6x80 with zero cells, zero rows and
    zero columns, plus the block-diagonal cases and a 6x40 joint with 28
    zero columns."""
    rng = derive_rng(40)
    joints = [block_joint(s, s) for s in [(2, 2), (1, 3), (3, 2), (2, 2, 2)]]
    for shape in [(2, 2), (3, 5), (4, 4), (5, 12), (6, 20), (6, 80)]:
        joint = rng.random(shape) * (rng.random(shape) < 0.6)
        joint[0, 0] += 0.5
        joints.append(joint)
        if 2 < min(shape) and max(shape) <= 20:
            dead = joint.copy()
            dead[-1] = 0.0
            dead[:, 1] = 0.0
            joints.append(dead)
    # Shaped like the foraging correspondence joint: 12 live columns of 40.
    sparse = rng.random((6, 40))
    sparse[:, rng.permutation(40)[:28]] = 0.0
    joints.append(sparse)
    return joints


def oracle_operators():
    """Planted two-community and random stochastic operators, and one
    whose off-diagonal mass all falls below the thresholds."""
    rng = derive_rng(41)
    ops = [planted_operator(rng, n=n) for n in (4, 10)]
    ops += [rng.dirichlet(np.full(n, c), size=n) for n in (2, 3, 5, 7, 12, 20) for c in (0.3, 1.0, 3.0)]
    ops += [np.eye(4), 0.9 * np.eye(6) + 0.1 / 6]
    return ops


@pytest.fixture
def same_as_reference(monkeypatch):
    """Check that a public call gives the same result, field by field with
    the same types and dtypes, or the same error, as its reference in
    helpers: the co-clustering one restart and one size pair at a time, and
    the modularity merge with one member list per community."""
    references = {cocluster: cocluster_by_restart, select_cocluster_sizes: select_cocluster_sizes_by_pair}

    def reference(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(analysis, "_greedy_modularity", greedy_modularity_lists)
            try:
                return references.get(fn, fn)(*args)
            except SmjpError as exc:
                return exc

    def check(fn, *args):
        want = reference(fn, *args)
        if isinstance(want, SmjpError):
            with pytest.raises(type(want), match=re.escape(str(want))):
                fn(*args)
        else:
            assert_same(fn(*args), want)

    return check


def assert_same(got, want):
    if is_dataclass(want):
        for f in fields(want):
            assert_same(getattr(got, f.name), getattr(want, f.name))
        return
    np.testing.assert_equal(got, want)
    assert type(got) is type(want) and getattr(got, "dtype", None) == getattr(want, "dtype", None)


class TestArrayFormMatchesReference:
    def test_cocluster_bit_for_bit(self, same_as_reference):
        for seed, joint in enumerate(oracle_joints()):
            for kr in range(1, min(4, joint.shape[0]) + 1):
                for kc in range(1, min(6, joint.shape[1]) + 1):
                    # One restart on the 6x80 joint keeps the test short.
                    for restarts in (1, 5) if joint.shape[1] <= 20 else (1,):
                        same_as_reference(cocluster, joint, kr, kc, seed, restarts)
                    # Ten restarts where both axes can move and 12 or fewer columns live.
                    if kr > 1 and kc > 1 and (joint.sum(axis=0) > 0).sum() <= 12:
                        same_as_reference(cocluster, joint, kr, kc, seed, 10)

    def test_select_cocluster_sizes_bit_for_bit(self, same_as_reference):
        for seed, joint in enumerate(oracle_joints()):
            rows = range(1, min((joint.sum(axis=1) > 0).sum(), 4) + 1)
            cols = range(1, min((joint.sum(axis=0) > 0).sum(), 6) + 1)
            same_as_reference(select_cocluster_sizes, joint, rows, cols, seed, 1)

    def test_extract_subgraphs_bit_for_bit(self, same_as_reference):
        for w in oracle_operators():
            for threshold in (0.0, 0.05, 0.2):
                same_as_reference(extract_subgraphs, w, threshold)


def tie_joints():
    """Joints whose candidate moves tie: blocks, a uniform joint, and
    random joints with duplicated rows or duplicated columns."""
    rng = derive_rng(42)
    joints = [block_joint((2, 2), (2, 2)), block_joint((2, 2, 2), (3, 1, 2)), np.ones((4, 5)), np.eye(4)]
    base = rng.random((3, 5))
    joints += [np.vstack([base, base]), np.hstack([base, base, base[:, :2]])]
    return joints


class TestLanes:
    def test_ties_go_to_the_exact_scan(self, monkeypatch):
        calls = []
        exact = analysis._exact_choice
        monkeypatch.setattr(analysis, "_exact_choice", lambda *a: calls.append(a) or exact(*a))
        for seed, joint in enumerate(tie_joints()):
            before = len(calls)
            for kr in range(1, min(3, joint.shape[0]) + 1):
                for kc in range(1, min(4, joint.shape[1]) + 1):
                    got = cocluster(joint, kr, kc, seed, restarts=5)
                    assert_same(got, cocluster_by_restart(joint, kr, kc, seed, 5))
            assert len(calls) > before

    def test_start_matches_one_draw_at_a_time(self):
        rng = derive_rng(43)
        for case in range(300):
            n = int(rng.integers(1, 30))
            live = rng.random(n) < rng.choice([0.3, 0.8, 1.0])
            k = int(rng.integers(1, n + 1))
            got, want = derive_rng(case, 4, 0), derive_rng(case, 4, 0)
            try:
                expected = init_assignment_by_element(n, k, live, want)
            except DegenerateJoint as exc:
                with pytest.raises(DegenerateJoint, match=re.escape(str(exc))):
                    analysis._init_assignment(n, k, live, got)
                continue
            assert_same(analysis._init_assignment(n, k, live, got), expected)
            # The next draw agrees too: the two used the generator alike.
            assert got.random() == want.random()

    def test_every_pair_equals_its_own_call(self):
        joints = oracle_joints()[:-3] + tie_joints()
        for seed, joint in enumerate(joints):
            rows = range(1, min((joint.sum(axis=1) > 0).sum(), 4) + 1)
            cols = range(1, min((joint.sum(axis=0) > 0).sum(), 6) + 1)
            sel = select_cocluster_sizes(joint, rows, cols, seed, 3)
            for a, kr in enumerate(rows):
                for b, kc in enumerate(cols):
                    alone = cocluster(joint, kr, kc, seed, 3)
                    assert sel.loss_surface[a, b] == alone.mutual_information_loss
                    if (kr, kc) == sel.chosen:
                        assert_same(sel.chosen_clustering, alone)
