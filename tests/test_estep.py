"""The run-collapsed E-step against the per-point oracle
``helpers.accumulate_stats``: expected counts, step counts and the pass
log-likelihood on random grids (mixed-action and trailing virtual runs),
on ``build_time_grid`` grids, on one very long run, on a single point and
on an impossible observation."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import accumulate_stats, grid_forward_backward, model_from_chains, random_grid, random_model
from smjp.core import derive_rng
from smjp.ctmc import NO_OBSERVATION, TAG_EVENT, TAG_VIRTUAL, TimeGrid, build_time_grid
from smjp.events import EventSequence
from smjp.switching import SufficientStats, ZeroProbabilityObservation, _Runs

PROPERTY = settings(max_examples=60, derandomize=True, deadline=None)


def oracle(model, grids):
    stats = SufficientStats.zeros(model.n_states, model.n_actions, model.n_observations, model.per_action_emission)
    ll = sum(accumulate_stats(model.chain_stack, np.asarray(model.emission), g, stats) for g in grids)
    return stats, ll


def assert_matches_oracle(model, grids):
    got, ll = _Runs(grids, model.n_actions).estep(model.chain_stack, np.asarray(model.emission))
    want, ll_want = oracle(model, grids)
    np.testing.assert_allclose(got.trans, want.trans, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.emit, want.emit, rtol=1e-12, atol=0)
    assert np.array_equal(got.action_steps, want.action_steps)
    assert got.n_grids == want.n_grids
    assert ll == pytest.approx(ll_want, rel=1e-12)


@st.composite
def model_case(draw):
    rng = derive_rng(draw(st.integers(0, 2**32 - 1)))
    n, k, o = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    model = random_model(rng, n, k, o, concentration=draw(st.sampled_from([0.3, 1.0, 5.0])))
    if draw(st.booleans()):
        model = replace(model, emission=np.stack([rng.dirichlet(np.ones(o), size=n) for _ in range(k)]))
    return rng, model


@PROPERTY
@given(model_case(), st.lists(st.tuples(st.integers(1, 80), st.sampled_from([0.0, 0.3, 0.8]), st.integers(0, 5)),
                              min_size=1, max_size=3))
def test_random_grids_match_oracle(case, shapes):
    rng, model = case
    grids = []
    for length, frac, trailing in shapes:
        grid = random_grid(rng, length + trailing, model.n_actions, model.n_observations, virtual_frac=frac)
        # The last ``trailing`` points are virtual, under mixed actions.
        tags, obs = grid.tags.copy(), grid.observations.copy()
        tags[length:] = TAG_VIRTUAL
        obs[length:] = NO_OBSERVATION
        grids.append(TimeGrid(grid.times, tags, obs, grid.actions))
    assert_matches_oracle(model, grids)


@PROPERTY
@given(model_case(), st.integers(1, 60), st.sampled_from([0.3, 1.0, 4.0]), st.integers(1, 2))
def test_time_grids_match_oracle(case, length, rate, n_grids):
    rng, model = case
    seq = EventSequence(
        "r", np.cumsum(rng.exponential(1.0, size=length)), rng.integers(0, model.n_observations, size=length),
        rng.integers(0, model.n_actions, size=length), model.observations, model.actions,
    )
    assert_matches_oracle(model, [build_time_grid(seq, rate, rng) for _ in range(n_grids)])


def test_one_run_of_2_17_virtual_points():
    rng = derive_rng(70)
    model = random_model(rng, 3, 2, 3)
    m = 1 << 17
    tags = np.full(m + 2, TAG_VIRTUAL, dtype=np.int8)
    tags[[0, -1]] = TAG_EVENT
    obs = np.full(m + 2, NO_OBSERVATION)
    obs[[0, -1]] = 2, 0
    grid = TimeGrid(np.arange(m + 2.0), tags, obs, np.ones(m + 2, dtype=np.int64))
    runs = _Runs([grid], model.n_actions)
    assert runs.law_r.tolist() == [m + 1] and runs.law_k.tolist() == [1]
    got, ll = runs.estep(model.chain_stack, np.asarray(model.emission))
    want, ll_want = oracle(model, [grid])
    # Reference in extended precision: the two end marginals, and the
    # run's counts B * S with S the top-right block of [[B^T, G], [0,
    # B^T]]^(m+1). The oracle's 2^17 normalized steps drift from it by
    # about 3e-12 relative, the run's block power by 1e-15.
    b, e = model.chain_stack[1].astype(np.longdouble), model.emission.astype(np.longdouble)
    a0 = e[:, 2] / e[:, 2].sum()
    law = np.linalg.matrix_power(b, m + 1)
    c = a0 @ law @ e[:, 0]
    block = np.zeros((6, 6), dtype=np.longdouble)
    block[:3, :3] = block[3:, 3:] = b.T
    block[:3, 3:] = np.outer(a0, e[:, 0] / c)
    trans = b * np.linalg.matrix_power(block, m + 1)[:3, 3:]
    emit = np.stack([(a0 @ law) * e[:, 0] / c, np.zeros(3), a0 * (law @ e[:, 0]) / c], axis=1)
    np.testing.assert_allclose(got.trans[1], trans.astype(np.float64), rtol=1e-13, atol=0)
    np.testing.assert_allclose(got.emit, emit.astype(np.float64), rtol=1e-13, atol=0)
    np.testing.assert_allclose(got.trans, want.trans, rtol=1e-11, atol=0)
    np.testing.assert_allclose(got.emit, want.emit, rtol=1e-11, atol=0)
    assert np.array_equal(got.action_steps, [0, m + 1])
    assert ll == pytest.approx(ll_want, rel=1e-12)


def test_single_point_grid():
    rng = derive_rng(71)
    model = random_model(rng, 3, 2, 3)
    grid = random_grid(rng, 1, 2, 3)
    assert_matches_oracle(model, [grid])
    stats, _ = _Runs([grid], 2).estep(model.chain_stack, np.asarray(model.emission))
    assert not stats.trans.any() and not stats.action_steps.any()


def test_impossible_observation_names_the_grid_step_as_forward():
    rng = derive_rng(72)
    emission = rng.dirichlet(np.ones(3), size=3)
    emission[:, 1] = 0.0
    emission /= emission.sum(axis=1, keepdims=True)
    model = model_from_chains(np.stack([rng.dirichlet(np.ones(3), size=3) for _ in range(2)]), emission, omega=2.0)
    obs = rng.choice([0, 2], size=80)
    obs[57] = 1
    seq = EventSequence("r", np.cumsum(rng.exponential(1.0, size=80)), obs, rng.integers(0, 2, size=80),
                        model.observations, model.actions)
    grid = build_time_grid(seq, model.omega, rng)
    runs = _Runs([grid], 2)
    assert len(runs.ends[0]) < len(grid)
    with pytest.raises(ZeroProbabilityObservation) as want:
        grid_forward_backward(model, grid)
    with pytest.raises(ZeroProbabilityObservation) as got:
        runs.estep(model.chain_stack, np.asarray(model.emission))
    assert got.value.step == want.value.step == int(grid.event_indices[57])
    assert str(got.value) == str(want.value)
