"""Property tests for the scaled filter-smoother over grid points: its
state and pair posteriors against the exhaustive-sum oracle on short
grids, and its filter against the log-domain one on long grids."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import enumerate_paths, forward_logspace, grid_forward_backward, random_grid, random_model, scaled_xi
from smjp.core import derive_rng

PROPERTY = settings(max_examples=40, derandomize=True, deadline=None)


@st.composite
def model_and_grid(draw, max_states, max_length):
    rng = derive_rng(draw(st.integers(0, 2**32 - 1)))
    n, k, o = draw(st.integers(1, max_states)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    concentration = draw(st.sampled_from([0.3, 1.0, 5.0]))
    model = random_model(rng, n, k, o, concentration=concentration)
    grid = random_grid(rng, draw(st.integers(1, max_length)), k, o, virtual_frac=draw(st.sampled_from([0.0, 0.3, 0.8])))
    return model, grid


@PROPERTY
@given(model_and_grid(max_states=3, max_length=7))
def test_posteriors_match_enumeration(case):
    model, grid = case
    ll_o, gamma_o, xi_o = enumerate_paths(model, grid)
    res = grid_forward_backward(model, grid)
    assert res.log_likelihood == pytest.approx(ll_o, abs=1e-10)
    assert np.abs(res.gamma - gamma_o).max() < 1e-10
    assert np.abs(scaled_xi(model, grid) - xi_o).max(initial=0.0) < 1e-10


@PROPERTY
@given(model_and_grid(max_states=8, max_length=500))
def test_forward_matches_log_domain(case):
    model, grid = case
    res = grid_forward_backward(model, grid)
    log_alpha_fast, ll_fast = res.log_alpha, res.log_likelihood
    log_alpha_ref, ll_ref = forward_logspace(model, grid)
    assert ll_fast == pytest.approx(ll_ref, abs=1e-8)
    finite = np.isfinite(log_alpha_ref)
    assert np.abs(log_alpha_fast[finite] - log_alpha_ref[finite]).max() < 1e-6
