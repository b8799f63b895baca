"""The run-collapsed E-step against the per-point oracle
``helpers.accumulate_stats`` on each count grid's ``helpers.points``:
expected counts, step counts and the pass log-likelihood on grids of
random counts, on ``build_time_grid`` grids, on one very long run and on a
single event; and an impossible observation named as ``forward_backward``
names it."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import accumulate_stats, model_from_chains, points, random_model, random_sequence
from smjp.core import derive_rng
from smjp.ctmc import TimeGrid, build_time_grid
from smjp.events import EventSequence
from smjp.switching import SufficientStats, ZeroProbabilityObservation, _Runs, forward_backward

PROPERTY = settings(max_examples=60, derandomize=True, deadline=None)


def oracle(model, grids):
    stats = SufficientStats.zeros(model.n_states, model.n_actions, model.n_observations, model.per_action_emission)
    ll = sum(accumulate_stats(model.chain_stack, np.asarray(model.emission), points(g), stats) for g in grids)
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
@given(model_case(), st.lists(st.tuples(st.integers(1, 80), st.sampled_from([0.0, 0.3, 3.0, 20.0])),
                              min_size=1, max_size=3))
def test_random_counts_match_oracle(case, shapes):
    rng, model = case
    grids = []
    for length, mean in shapes:
        seq = random_sequence(rng, model, length)
        grids.append(TimeGrid(seq, rng.poisson(mean, size=length - 1)))
    assert_matches_oracle(model, grids)


@PROPERTY
@given(model_case(), st.integers(1, 60), st.sampled_from([0.3, 1.0, 4.0]), st.integers(1, 2))
def test_time_grids_match_oracle(case, length, rate, n_grids):
    rng, model = case
    seq = random_sequence(rng, model, length)
    assert_matches_oracle(model, [build_time_grid(seq, rate, rng) for _ in range(n_grids)])


def test_one_run_of_2_17_virtual_points():
    rng = derive_rng(70)
    model = random_model(rng, 3, 2, 3)
    m = 1 << 17
    seq = EventSequence("r", [0.0, 1.0], [2, 0], [1, 1], model.observations, model.actions)
    grid = TimeGrid(seq, [m])
    runs = _Runs([grid], model.n_actions)
    assert runs.law_r.tolist() == [m + 1] and runs.law_k.tolist() == [1]
    got, ll = runs.estep(model.chain_stack, np.asarray(model.emission))
    want, ll_want = oracle(model, [grid])
    # Reference in extended precision: the log-likelihood, the two event
    # marginals, and the run's counts B * S with S the top-right block of
    # [[B^T, G], [0, B^T]]^(m+1).
    b, e = model.chain_stack[1].astype(np.longdouble), model.emission.astype(np.longdouble)
    a0 = e[:, 2] / e[:, 2].sum()
    law = np.linalg.matrix_power(b, m + 1)
    c = a0 @ law @ e[:, 0]
    ll_ref = np.log(e[:, 2].sum() / 3) + np.log(c)
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
    # Each log-likelihood against the reference on its own, at about three
    # times its drift: the run's binary-powered law drifts 1.8e-12
    # relative, the oracle's 2^17 normalized steps 2.7e-12. The two need
    # not agree to either bound, since their drifts need not cancel.
    assert abs(ll - ll_ref) <= 5e-12 * abs(ll_ref)
    assert abs(ll_want - ll_ref) <= 8e-12 * abs(ll_ref)


def test_single_event_grid():
    rng = derive_rng(71)
    model = random_model(rng, 3, 2, 3)
    grid = TimeGrid(random_sequence(rng, model, 1), [])
    assert_matches_oracle(model, [grid])
    stats, _ = _Runs([grid], 2).estep(model.chain_stack, np.asarray(model.emission))
    assert not stats.trans.any() and not stats.action_steps.any()


def test_impossible_observation_named_as_forward_backward_names_it():
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
    assert len(grid) > grid.n_events
    with pytest.raises(ZeroProbabilityObservation) as want:
        forward_backward(model, seq)
    with pytest.raises(ZeroProbabilityObservation) as got:
        _Runs([grid], 2).estep(model.chain_stack, np.asarray(model.emission))
    assert got.value.step == want.value.step == 57
    assert str(got.value) == str(want.value) == "observation at event 57 of sequence 'r' has zero likelihood"
