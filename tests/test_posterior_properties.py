"""Property tests for the posterior path: the scaled filter/smoother and
``posterior_xi`` against the exhaustive-sum oracle on short grids, and
``forward`` against the log-domain filter on long ones."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import enumerate_paths, forward_logspace, random_grid, random_model
from smjp.core import derive_rng
from smjp.switching import backward, forward, forward_backward, posterior_xi

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
    res = forward_backward(model, grid)
    assert res.log_likelihood == pytest.approx(ll_o, abs=1e-10)
    assert np.abs(res.gamma - gamma_o).max() < 1e-10
    log_alpha, _ = forward(model, grid)
    xi, gamma = posterior_xi(model, log_alpha, backward(model, grid), grid)
    assert np.abs(xi - xi_o).max(initial=0.0) < 1e-10
    assert np.abs(gamma - gamma_o).max() < 1e-10


@PROPERTY
@given(model_and_grid(max_states=8, max_length=500))
def test_forward_matches_log_domain(case):
    model, grid = case
    log_alpha_fast, ll_fast = forward(model, grid)
    log_alpha_ref, ll_ref = forward_logspace(model, grid)
    assert ll_fast == pytest.approx(ll_ref, abs=1e-8)
    finite = np.isfinite(log_alpha_ref)
    assert np.abs(log_alpha_fast[finite] - log_alpha_ref[finite]).max() < 1e-6
