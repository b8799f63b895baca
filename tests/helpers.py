"""Shared fixtures and oracles: small random models, random sequences,
the per-point grid the oracles run on (random, or expanded from a count
grid), exhaustive path enumeration, the filter-smoother's posterior over
every grid point, a forward filter computed entirely in the log domain,
the pair posteriors of the scaled recursions, the per-point E-step, the
grid-free likelihood of an event sequence and the law of each of its
intervals, the toy chain's path drawn by numpy searches, Newman modularity, the
log-domain helpers these oracles are built from, the belief planner
built one state at a time, its dense Bellman backup and value iteration,
the agent run one checked belief update at a time, the co-clustering
(one restart and one size pair after another, its sweep scoring one
candidate at a time) and the modularity merge scored one candidate at a
time. The last section holds what only tests use: a
Taylor matrix exponential, Gillespie paths, a uniformization rate rule,
Poisson times in one interval and the information lost by a given
co-clustering."""

import io
import itertools
from dataclasses import dataclass

import numpy as np

from smjp.analysis import (
    CoClustering,
    CorrespondenceMatrix,
    EmptyGraph,
    SizeSelection,
    _clustered,
    _elbow,
    mutual_information,
)
from smjp.core import (
    Alphabet,
    GeneratorMatrix,
    NumericError,
    SmjpError,
    StochasticMatrix,
    as_rng,
    derive_rng,
    index_alphabet,
    validate_generator,
)
from smjp.ctmc import MAX_EXPECTED_VIRTUAL, TimeGrid
from smjp.events import EventSequence, parse_event_file
from smjp.foraging import (
    A_MOVE,
    A_PRESS_1,
    A_PRESS_2,
    A_STAY,
    ACTION_LABELS,
    LOCAL_PRESS,
    OBSERVATION_LABELS,
    AgentTrace,
    BeliefMDP,
    ValueIterationResult,
    WorldConfig,
    _belief_bin,
    belief_update,
    check_horizon,
)
from smjp.switching import (
    ForwardBackwardResult,
    SwitchingSMJP,
    SufficientStats,
    ZeroProbabilityObservation,
    _SERIES_CAP,
    _filter_smooth,
    _on_events,
    _poisson_weights,
    _power_table,
    update_generator,
)


def parse_event_text(text: str) -> EventSequence:
    return parse_event_file(io.StringIO(text))


def random_model(rng, n_states, n_actions, n_observations, omega=None, concentration=1.0):
    chains = np.stack(
        [rng.dirichlet(np.full(n_states, concentration), size=n_states) for _ in range(n_actions)]
    )
    emission = rng.dirichlet(np.full(n_observations, concentration), size=n_states)
    if omega is None:
        omega = float(rng.uniform(0.5, 3.0))
    gens = tuple(update_generator(chains[a], omega) for a in range(n_actions))
    return SwitchingSMJP(
        states=index_alphabet("state", n_states, "s"),
        actions=index_alphabet("action", n_actions, "a"),
        observations=index_alphabet("observation", n_observations, "o"),
        generators=gens,
        emission=emission,
        omega=omega,
    )


def model_from_chains(chains, emission, omega=1.0, masks=None):
    chains = np.asarray(chains, dtype=np.float64)
    emission = np.asarray(emission, dtype=np.float64)
    k, n, _ = chains.shape
    gens = tuple(update_generator(chains[a], omega, None if masks is None else masks[a]) for a in range(k))
    return SwitchingSMJP(
        states=index_alphabet("state", n, "s"),
        actions=index_alphabet("action", k, "a"),
        observations=index_alphabet("observation", emission.shape[-1], "o"),
        generators=gens,
        emission=emission,
        omega=omega,
        structural_masks=None if masks is None else tuple(np.asarray(m, dtype=bool) for m in masks),
    )


def random_sequence(rng, model, length):
    """``length`` events at unit-rate exponential gaps, with uniform
    symbols and actions in the model's alphabets."""
    return EventSequence(
        "r", np.cumsum(rng.exponential(1.0, size=length)), rng.integers(0, model.n_observations, size=length),
        rng.integers(0, model.n_actions, size=length), model.observations, model.actions,
    )


# Observation index of a virtual point of a PointGrid (no emission there).
NO_OBSERVATION = -1


@dataclass(frozen=True)
class PointGrid:
    """A grid point by point, the type the oracles step through:
    ``observations[t]`` is ``NO_OBSERVATION`` at a virtual point and
    ``actions[t]`` is the action of the step from point t to t+1. Unlike a
    count grid, its virtual points may switch action."""

    observations: np.ndarray
    actions: np.ndarray

    def __len__(self) -> int:
        return len(self.observations)

    @property
    def n_events(self) -> int:
        return int(np.count_nonzero(self.observations != NO_OBSERVATION))


def points(grid: TimeGrid) -> PointGrid:
    """A count grid point by point: each event, then the ``counts[i]``
    virtual points of its interval under its action."""
    seq = grid.sequence
    steps = np.ones(len(seq), dtype=np.int64)
    steps[:-1] += grid.counts
    obs = np.full(len(grid), NO_OBSERVATION)
    obs[np.cumsum(steps) - steps] = seq.observations
    return PointGrid(obs, np.repeat(seq.actions, steps))


def random_grid(rng, length, n_actions, n_observations, virtual_frac=0.3):
    """A random point grid: its first point an event, each later one
    virtual with probability ``virtual_frac``, every step's action drawn."""
    obs = rng.integers(0, n_observations, size=length)
    virtual = rng.random(length) < virtual_frac
    virtual[:1] = False
    obs[virtual] = NO_OBSERVATION
    return PointGrid(obs, rng.integers(0, n_actions, size=length))


def event_grid(obs_indices, action_indices):
    return PointGrid(np.asarray(obs_indices, dtype=np.int64), np.asarray(action_indices, dtype=np.int64))


def point_emission(emission, grid):
    """(T, N) likelihood of each point's observation per state from an (N,
    O) or per-action (K, N, O) emission array, ones at virtual points: one
    gather from the emission's columns behind a column of ones, the column
    ``NO_OBSERVATION`` reads."""
    cols = np.swapaxes(emission, -1, -2)
    rows = np.concatenate([np.ones_like(cols[..., :1, :]), cols], axis=-2)
    at = grid.observations - NO_OBSERVATION
    return rows[grid.actions, at] if emission.ndim == 3 else rows[at]


def emission_table(model, grid):
    t, n = len(grid), model.n_states
    e = np.ones((t, n))
    for i, o in enumerate(grid.observations):
        if o != NO_OBSERVATION:
            e[i] = model.emission[:, o]
    return e


def enumerate_paths(model, grid):
    """Exhaustive-sum oracle: likelihood, state marginals and pair
    marginals by brute force over all N**T latent paths."""
    e = emission_table(model, grid)
    chains = model.chain_stack
    t, n = e.shape
    total = 0.0
    gamma = np.zeros((t, n))
    xi = np.zeros((max(t - 1, 0), n, n))
    for path in itertools.product(range(n), repeat=t):
        w = e[0, path[0]] / n
        for i in range(t - 1):
            w *= chains[grid.actions[i], path[i], path[i + 1]] * e[i + 1, path[i + 1]]
        total += w
        for i, s in enumerate(path):
            gamma[i, s] += w
        for i in range(t - 1):
            xi[i, path[i], path[i + 1]] += w
    return np.log(total), gamma / total, xi / total


def _check_grid(model, grid):
    if len(grid) == 0:
        raise SmjpError("grid is empty")
    if grid.actions.min() < 0 or grid.actions.max() >= model.n_actions:
        raise SmjpError("grid action index outside the model's action alphabet")
    obs = grid.observations
    real = obs[obs != NO_OBSERVATION]
    if real.size and (real.min() < 0 or real.max() >= model.n_observations):
        raise SmjpError("grid observation index outside the model's alphabet")


def grid_forward_backward(model, grid):
    """``forward_backward``'s result over every point of a grid: the
    scaled filter-smoother the E-step runs on run ends, here stepping each
    point by the chain of its action. An impossible observation raises
    ``ZeroProbabilityObservation`` naming its grid step."""
    _check_grid(model, grid)
    e = point_emission(model.emission, grid)
    return ForwardBackwardResult(*_filter_smooth(model.chain_stack, e, grid.actions))


def forward_logspace(model, grid):
    """Reference forward filter computed entirely in the log domain.

    Slower than the scaled filter; an independent implementation for
    cross-checking it on long sequences.
    """
    _check_grid(model, grid)
    e = point_emission(model.emission, grid)
    chains = model.chain_stack
    t, n = e.shape
    log_alpha = np.empty((t, n))
    with np.errstate(divide="ignore"):
        log_e = np.log(e)
        log_alpha[0] = log_e[0] - np.log(n)
    for i in range(t - 1):
        log_alpha[i + 1] = log_domain_dot(log_alpha[i], chains[grid.actions[i]]) + log_e[i + 1]
    ll = logsumexp(log_alpha[-1])
    if not np.isfinite(ll):
        raise ZeroProbabilityObservation("sequence has zero probability under the model")
    return log_alpha, float(ll)


def event_laws(model, seq) -> tuple[np.ndarray, np.ndarray]:
    """The (laws, index) of a sequence's intervals that
    ``forward_backward`` steps by: those ``_on_events`` hands its core."""
    ((laws, index),) = _on_events(model, [seq], lambda laws, e, index: (laws, index))
    return laws, index


def scaled_xi(model, data):
    """(T-1, N, N) transition-pair posteriors straight from the scaled
    filter/smoother: ``alpha_hat[t, i] * P_t[i, j] * e[t+1, j] *
    beta_hat[t+1, j] / c[t+1]``. On a grid ``P_t`` is the chain of step
    t's action; on an event sequence it is the interval law of
    :func:`event_laws`."""
    if isinstance(data, PointGrid):
        _check_grid(model, data)
        laws, kidx = model.chain_stack, data.actions
    else:
        laws, kidx = event_laws(model, data)
    e = point_emission(model.emission, data)
    alpha, c, beta = _filter_smooth(laws, e, kidx)
    w = (e[1:] * beta[1:]) / c[1:, None]
    return alpha[:-1, :, None] * laws[kidx[: len(e) - 1]] * w[:, None, :]


def accumulate_stats(chains, emission, grid: PointGrid, stats: SufficientStats) -> float:
    """Per-point E-step on one grid, the reference for the run-collapsed
    one (which reads a count grid as its :func:`points`): adds expected
    counts into ``stats`` and returns the grid log-likelihood.

    The transition counts of action a are ``B_a * (alpha_hat^T @ w)`` over
    the steps taken under a, with ``w = e[1:] * beta_hat[1:] / c[1:]``:
    the sum of the pair posteriors without forming them step by step.
    """
    kidx, obs = grid.actions, grid.observations
    e = point_emission(emission, grid)
    alpha, c, beta = _filter_smooth(chains, e, kidx)
    steps = kidx[:-1]
    w = (e[1:] * beta[1:]) / c[1:, None]
    for a in np.unique(steps):
        sel = steps == a
        stats.trans[a] += chains[a] * (alpha[:-1][sel].T @ w[sel])
    stats.action_steps += np.bincount(steps, minlength=chains.shape[0])
    seen = obs != NO_OBSERVATION
    gamma = (alpha * beta)[seen]
    if emission.ndim == 3:
        np.add.at(stats.emit, (kidx[seen], slice(None), obs[seen]), gamma)
    else:
        np.add.at(stats.emit.T, obs[seen], gamma)
    return float(np.log(c).sum())


def exact_loglik(model, seq) -> float:
    """Grid-free log-likelihood of an event sequence: the event-level
    filter over ``P_i = B_{k_i} expm(A_{k_i} dt_i)``, with k_i the action
    at event i. Between events i and i+1 a grid takes 1 + Poisson(omega
    dt_i) steps of ``B_{k_i}``, whose mean is P_i, so this is the log of
    the mean grid likelihood under :func:`build_time_grid`'s law."""
    emission = model.emission

    def emit(i):
        o = seq.observations[i]
        return emission[seq.actions[i], :, o] if emission.ndim == 3 else emission[:, o]

    v = emit(0) / model.n_states
    ll = 0.0
    for i in range(len(seq.times) - 1):
        mass = v.sum()
        ll += np.log(mass)
        a = seq.actions[i]
        step = model.chain_stack[a] @ matrix_exponential(model.generators[a], seq.times[i + 1] - seq.times[i]).probs
        v = (v / mass) @ step * emit(i + 1)
    return float(ll + np.log(v.sum()))


def interval_law_stack(model, seq) -> np.ndarray:
    """(E-1, N, N) stack of every interval's own law ``P_i = B_k expm(A_k
    dt_i)``, one per interval however often it repeats: the oracle for
    the distinct laws and the index of :func:`event_laws`. Each interval
    sums Jensen's series ``sum_m Pois(m; omega dt) B_k^m`` over one full
    table of chain powers, an interval whose mean passes ``_SERIES_CAP``
    at ``dt / 2^s`` and squared back s times, then applies B_k."""
    lam = model.omega * np.diff(seq.times)
    shrink = np.ceil(np.log2(np.maximum(lam / _SERIES_CAP, 1.0))).astype(np.int64)
    half = np.ldexp(lam, -shrink)
    terms = int(_SERIES_CAP + 10.0 * np.sqrt(_SERIES_CAP)) + 41
    chains, n = model.chain_stack, model.n_states
    table = _power_table(chains, terms)
    acts = seq.actions[:-1]
    factors = np.empty((lam.size, n * n))
    for k in range(model.n_actions):
        sel = np.flatnonzero(acts == k)
        factors[sel] = _poisson_weights(half[sel], terms) @ table[k, :terms]
    factors = factors.reshape(-1, n, n)
    for i in np.flatnonzero(shrink):
        for _ in range(shrink[i]):
            factors[i] = factors[i] @ factors[i]
    return chains[acts] @ factors


def toy_path_searchsorted(cum_chain, cum_emit, s, a, draws):
    """Reference for ``foraging._toy_path``: one ``np.searchsorted`` call
    per draw on the cumulative numpy rows."""
    k = cum_chain.shape[0]
    states = np.empty(len(draws), dtype=np.int64)
    obs = np.empty(len(draws), dtype=np.int64)
    acts = np.empty(len(draws), dtype=np.int64)
    for i in range(len(draws)):
        s = int(np.searchsorted(cum_chain[a, s], draws[i, 0], side="right"))
        oi = int(np.searchsorted(cum_emit[s], draws[i, 1], side="right"))
        a = oi % k
        states[i] = s
        obs[i] = oi
        acts[i] = a
    return states, obs, acts


def modularity(sym: np.ndarray, labels: np.ndarray) -> float:
    """Newman modularity of a partition on a weighted symmetric adjacency
    matrix (self-loops included via the degree convention)."""
    s = np.asarray(sym, dtype=np.float64)
    total = s.sum()
    if total <= 0:
        raise EmptyGraph("graph has no edge mass")
    deg = s.sum(axis=1)
    q = 0.0
    for c in np.unique(labels):
        idx = labels == c
        q += s[np.ix_(idx, idx)].sum() / total - (deg[idx].sum() / total) ** 2
    return float(q)


def logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """log(sum(exp(a))) that tolerates -inf entries."""
    a = np.asarray(a, dtype=np.float64)
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)) + m
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


def log_domain_dot(log_vec: np.ndarray, matrix: StochasticMatrix | np.ndarray) -> np.ndarray:
    """log of ``exp(log_vec) @ matrix`` without leaving the log domain.

    Entries of ``log_vec`` may be -inf (exact zeros); the matrix is taken
    in the linear domain.
    """
    probs = matrix.probs if isinstance(matrix, StochasticMatrix) else np.asarray(matrix, dtype=np.float64)
    v = np.asarray(log_vec, dtype=np.float64)
    if v.ndim != 1 or probs.ndim != 2 or v.shape[0] != probs.shape[0]:
        raise SmjpError(f"cannot combine vector {v.shape} with matrix {probs.shape}")
    if np.any(np.isnan(v)) or np.any(v == np.inf):
        raise SmjpError("log vector must be finite or -inf")
    with np.errstate(divide="ignore"):
        logm = np.log(probs)
    return logsumexp(v[:, None] + logm, axis=0)


def bin_kernel(target_bin: int, m: int, eps: float) -> np.ndarray:
    """Distribution over bins: target keeps 1-eps, eps/2 leaks to each
    neighbor, folding back at the edges."""
    vec = np.zeros(m)
    vec[target_bin] += 1.0 - eps
    vec[max(target_bin - 1, 0)] += eps / 2.0
    vec[min(target_bin + 1, m - 1)] += eps / 2.0
    return vec


def belief_mdp_per_state(world: WorldConfig, m_bins: int = 10, diffusion_eps: float = 0.05) -> BeliefMDP:
    """Per-state reference for ``build_belief_mdp``: fills each planner
    state's rows through ``add_outcome``, one state at a time.

    Belief updates are mapped to the nearest bin and ``diffusion_eps``
    probability leaks to adjacent bins; pressing branches on whether the
    box pays out, with the payout probability read off the bin center.
    """
    if not (m_bins >= 2 and float(m_bins).is_integer()):
        raise SmjpError(f"m_bins must be an integer of at least 2, got {m_bins!r}")
    if not 0.0 <= diffusion_eps <= 0.2:
        raise SmjpError(f"diffusion_eps must be in [0, 0.2], got {diffusion_eps!r}")
    bins = np.linspace(0.0, 1.0, m_bins)
    n_states = 2 * m_bins * m_bins
    trans = np.zeros((len(ACTION_LABELS), n_states, n_states))
    reward = np.zeros((n_states, len(ACTION_LABELS)))
    tick, travel = world.decision_tick, world.travel_time
    means = world.box_means

    def nearest(b: float) -> int:
        return int(round(b * (m_bins - 1)))

    def add_outcome(row: np.ndarray, prob: float, loc: int, b0: float, b1: float):
        k0 = bin_kernel(nearest(b0), m_bins, diffusion_eps)
        k1 = bin_kernel(nearest(b1), m_bins, diffusion_eps)
        block = prob * np.outer(k0, k1).ravel()
        base = loc * m_bins * m_bins
        row[base : base + m_bins * m_bins] += block

    for loc in range(2):
        for i0 in range(m_bins):
            for i1 in range(m_bins):
                s = (loc * m_bins + i0) * m_bins + i1
                b = (bins[i0], bins[i1])
                # stay: both boxes accrue over one tick
                accrued = (
                    belief_update(b[0], False, False, means[0], tick),
                    belief_update(b[1], False, False, means[1], tick),
                )
                add_outcome(trans[A_STAY, s], 1.0, loc, *accrued)
                # move: accrue over the travel time, location flips
                moved = (
                    belief_update(b[0], False, False, means[0], travel),
                    belief_update(b[1], False, False, means[1], travel),
                )
                add_outcome(trans[A_MOVE, s], 1.0, 1 - loc, *moved)
                reward[s, A_MOVE] = -world.switch_cost
                # presses: only the lever at the current location can pay out
                for a, box in ((A_PRESS_1, 0), (A_PRESS_2, 1)):
                    if box != loc:
                        add_outcome(trans[a, s], 1.0, loc, *accrued)
                        reward[s, a] = -world.press_cost
                        continue
                    p_hit = b[box]
                    hit = list(accrued)
                    hit[box] = belief_update(b[box], True, True, means[box], tick)
                    miss = list(accrued)
                    miss[box] = belief_update(b[box], True, False, means[box], tick)
                    if p_hit > 0:
                        add_outcome(trans[a, s], p_hit, loc, *hit)
                    add_outcome(trans[a, s], 1.0 - p_hit, loc, *miss)
                    reward[s, a] = world.reward_value * p_hit - world.press_cost
    durations = np.array([tick, tick, tick, travel])
    return BeliefMDP(
        world=world,
        m_bins=m_bins,
        diffusion_eps=diffusion_eps,
        belief_bins=bins,
        transition=trans,
        reward=reward,
        step_discounts=world.discount ** (durations / tick),
    )


def bellman_backup(mdp: BeliefMDP, values: np.ndarray) -> np.ndarray:
    """The action values of one dense Bellman backup of ``values``: every
    action's whole n×n kernel times the whole value vector."""
    return mdp.reward.T + mdp.step_discounts[:, None] * (mdp.transition @ values)


def value_iteration_dense(mdp: BeliefMDP, tol: float = 1e-8, sweep_cap: int = 100_000) -> ValueIterationResult:
    """Dense reference for ``value_iteration``: Bellman sweeps from zero
    to a sup-norm residual below ``tol``, ties to the lowest action."""
    values = np.zeros(mdp.n_states)
    residuals: list[float] = []
    for sweep in range(sweep_cap):
        q = bellman_backup(mdp, values)
        new_values = q.max(axis=0)
        resid = float(np.abs(new_values - values).max())
        residuals.append(resid)
        values = new_values
        if resid < tol:
            policy = q.argmax(axis=0)
            return ValueIterationResult(values, policy.astype(np.int64), tuple(residuals), sweep + 1)
    raise NumericError(f"no convergence after {sweep_cap} sweeps")


def simulate_agent_per_step(mdp, horizon, seed):
    """Per-step reference for ``simulate_agent``: every decision bins the
    beliefs and advances them through the checked ``belief_update``, and
    the rows are collected as tuples."""
    check_horizon(horizon, mdp.world)
    rng = as_rng(seed)
    world = mdp.world
    means = world.box_means
    obs_alpha = Alphabet("observation", OBSERVATION_LABELS)
    act_alpha = Alphabet("action", ACTION_LABELS)
    reward_obs, no_reward_obs = obs_alpha.index("reward"), obs_alpha.index("no-reward")
    act_at = mdp.policy.reshape(2, mdp.m_bins, mdp.m_bins).tolist()

    t = 0.0
    loc = 0
    beliefs = [0.0, 0.0]
    next_food = [rng.exponential(means[0]), rng.exponential(means[1])]
    rows: list[tuple] = []
    while t < horizon:
        bins = (_belief_bin(beliefs[0], mdp.m_bins), _belief_bin(beliefs[1], mdp.m_bins))
        a = act_at[loc][bins[0]][bins[1]]
        acted = a == LOCAL_PRESS[loc]
        rewarded = acted and t >= next_food[loc]
        if rewarded:
            next_food[loc] = t + rng.exponential(means[loc])
        if a == A_STAY or a == A_MOVE:
            o = loc
        else:
            o = reward_obs if rewarded else no_reward_obs
        rows.append((t, o, a, loc, rewarded, bins[loc], beliefs[0], beliefs[1]))
        dt = world.travel_time if a == A_MOVE else world.decision_tick
        for box in range(2):
            beliefs[box] = belief_update(beliefs[box], acted and box == loc, rewarded, means[box], dt)
        t += dt
        if a == A_MOVE:
            loc = 1 - loc

    times, obs, acts, locs, rewards, local_bins, *belief_log = map(np.asarray, zip(*rows))
    seq = EventSequence(
        "foraging-agent", times, obs, acts, obs_alpha, act_alpha, {"horizon": repr(float(horizon))}
    )
    trace = AgentTrace(
        times=times,
        z=(locs * 2 + rewards) * mdp.m_bins + local_bins,
        location=locs,
        rewarded=rewards,
        belief_bin=local_bins,
        beliefs=np.stack(belief_log, axis=1),
        m_bins=mdp.m_bins,
    )
    return seq, trace


def mutual_information_masked(joint: np.ndarray) -> float:
    """Reference MI of one joint in nats, summed over its nonzero cells."""
    p = np.asarray(joint, dtype=np.float64)
    total = p.sum()
    if total <= 0:
        raise SmjpError("joint distribution has zero mass")
    p = p / total
    r = p.sum(axis=1)
    c = p.sum(axis=0)
    nz = p > 0
    outer = np.outer(r, c)
    return float(np.sum(p[nz] * np.log(p[nz] / outer[nz])))


def clustered_by_row(joint: np.ndarray, rows: np.ndarray, cols: np.ndarray, kr: int, kc: int) -> np.ndarray:
    """Reference cluster aggregate, built one joint row at a time."""
    agg = np.zeros((kr, kc))
    for i in range(joint.shape[0]):
        np.add.at(agg[rows[i]], cols, joint[i])
    return agg


def sweep_axis_by_candidate(
    joint: np.ndarray,
    assign: np.ndarray,
    other: np.ndarray,
    k: int,
    k_other: int,
    live: np.ndarray,
    by_rows: bool,
) -> bool:
    """Reference co-clustering sweep: scores each (element, candidate
    cluster) move with its own ``mutual_information_masked`` call on a
    copied aggregate. Never moves a zero-mass element and never empties a
    cluster. Returns whether any element moved."""
    p = joint if by_rows else joint.T
    n = p.shape[0]
    # Element contributions aggregated over the other axis's clusters.
    contrib = np.zeros((n, k_other))
    for j in range(p.shape[1]):
        contrib[:, other[j]] += p[:, j]
    agg = np.zeros((k, k_other))
    for i in range(n):
        agg[assign[i]] += contrib[i]
    sizes = np.bincount(assign[live], minlength=k)
    moved = False
    for i in range(n):
        if not live[i]:
            continue
        cur = assign[i]
        if sizes[cur] <= 1:
            continue
        base = agg[cur] - contrib[i]
        best_c, best_mi = cur, None
        for c in range(k):
            trial = agg.copy()
            trial[cur] = base
            trial[c] += contrib[i]
            mi = mutual_information_masked(trial)
            if best_mi is None or mi > best_mi + 1e-15:
                best_mi, best_c = mi, c
            elif abs(mi - best_mi) <= 1e-15 and c == cur:
                best_c = cur
        if best_c != cur:
            agg[cur] = base
            agg[best_c] += contrib[i]
            sizes[cur] -= 1
            sizes[best_c] += 1
            assign[i] = best_c
            moved = True
    return moved


def init_assignment_by_element(n: int, k: int, live: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Reference random start: deals a permutation of the live rows to
    clusters one row and one draw at a time, then fills clusters no live
    row reached with zero-mass rows in order."""
    out = np.full(n, k - 1, dtype=np.int64)
    live_idx = np.nonzero(live)[0]
    dead_idx = np.nonzero(~live)[0]
    if live_idx.size + dead_idx.size < k:
        raise SmjpError(f"cannot form {k} clusters from {n} rows")
    perm = rng.permutation(live_idx)
    for pos, idx in enumerate(perm):
        out[idx] = pos % k if pos < k else int(rng.integers(k))
    used = np.zeros(k, dtype=bool)
    used[out[live_idx]] = True
    missing = [c for c in range(k) if not used[c]]
    for c, idx in zip(missing, dead_idx):
        out[idx] = c
    if len(missing) > dead_idx.size:
        raise SmjpError(f"only {live_idx.size} rows carry mass; cannot cover {k} clusters")
    return out


def cocluster_by_restart(joint, k_rows, k_cols, seed, restarts=20, max_sweeps=200) -> CoClustering:
    """Reference co-clustering: one restart after another, each starting
    from ``init_assignment_by_element``, sweeping rows then columns with
    ``sweep_axis_by_candidate`` for at most ``max_sweeps`` sweeps, and
    scoring where it stops by ``mutual_information_masked`` of
    ``clustered_by_row``."""
    p = joint.joint if isinstance(joint, CorrespondenceMatrix) else np.asarray(joint, dtype=np.float64)
    if p.ndim != 2 or not np.isfinite(p).all() or np.any(p < 0):
        raise SmjpError("joint must be a finite non-negative matrix")
    ns, nz = p.shape
    if not 1 <= k_rows <= ns or not 1 <= k_cols <= nz:
        raise SmjpError(f"cluster counts ({k_rows}, {k_cols}) out of range for shape {p.shape}")
    if restarts < 1:
        raise SmjpError(f"restarts must be at least 1, got {restarts}")
    total = p.sum()
    if total <= 0:
        raise SmjpError("joint distribution has zero mass")
    p = p / total
    live_rows = p.sum(axis=1) > 0
    live_cols = p.sum(axis=0) > 0

    best = None
    for r in range(restarts):
        rng = derive_rng(seed, 4, r)
        rows = init_assignment_by_element(ns, k_rows, live_rows, rng)
        cols = init_assignment_by_element(nz, k_cols, live_cols, rng)
        for _ in range(max_sweeps):
            moved_r = sweep_axis_by_candidate(p, rows, cols, k_rows, k_cols, live_rows, by_rows=True)
            moved_c = sweep_axis_by_candidate(p, cols, rows, k_cols, k_rows, live_cols, by_rows=False)
            if not (moved_r or moved_c):
                break
        clustered = clustered_by_row(p, rows, cols, k_rows, k_cols)
        loss = mutual_information_masked(p) - mutual_information_masked(clustered)
        if best is None or loss < best.mutual_information_loss - 1e-15:
            best = CoClustering(rows.copy(), cols.copy(), k_rows, k_cols, max(loss, 0.0))
    return best


def select_cocluster_sizes_by_pair(joint, row_range, col_range, seed, restarts=20) -> SizeSelection:
    """Reference size scan: one ``cocluster_by_restart`` call per size pair."""
    rows = list(row_range)
    cols = list(col_range)
    if not rows or not cols:
        raise SmjpError("size ranges must be non-empty")
    results = {(kr, kc): cocluster_by_restart(joint, kr, kc, seed, restarts) for kr in rows for kc in cols}
    surface = np.array([[results[kr, kc].mutual_information_loss for kc in cols] for kr in rows])
    chosen = (_elbow(rows, surface.min(axis=1)), _elbow(cols, surface.min(axis=0)))
    return SizeSelection(tuple(rows), tuple(cols), surface, chosen, results[chosen])


def greedy_modularity_lists(sym: np.ndarray) -> tuple[np.ndarray, float]:
    """Reference agglomerative modularity maximization that keeps each
    community's member list and numbers the best partition by smallest
    member."""
    n = sym.shape[0]
    total = sym.sum()
    e = sym / total
    a = e.sum(axis=1)
    members: list[list[int] | None] = [[i] for i in range(n)]
    active = set(range(n))
    q = float(np.trace(e) - np.sum(a**2))

    def snapshot() -> np.ndarray:
        labels = np.empty(n, dtype=np.int64)
        next_id = 0
        for idx in sorted(active, key=lambda c: min(members[c])):
            for node in members[idx]:
                labels[node] = next_id
            next_id += 1
        return labels

    best_q, best_labels = q, snapshot()
    while len(active) > 1:
        pairs = sorted(active)
        gain, pick = None, None
        for xi, x in enumerate(pairs):
            for y in pairs[xi + 1 :]:
                dq = 2.0 * (e[x, y] - a[x] * a[y])
                if gain is None or dq > gain + 1e-15:
                    gain, pick = dq, (x, y)
        x, y = pick
        e[x, :] += e[y, :]
        e[:, x] += e[:, y]
        a[x] += a[y]
        members[x] = members[x] + members[y]
        members[y] = None
        active.remove(y)
        q += gain
        if q > best_q + 1e-12:
            best_q, best_labels = q, snapshot()
    return best_labels, best_q


# ---------------------------------------------------------------------------
# Test-only samplers and oracles: nothing in the package calls these.


class NegativeTime(SmjpError):
    """A time argument must be non-negative."""


class EmptyInterval(SmjpError):
    """Interval endpoints are reversed or coincide."""


class AbsorbingStateLoop(SmjpError):
    """Simulation entered a zero-exit-rate state on an infinite horizon."""


def matrix_exponential(gen: GeneratorMatrix | np.ndarray, t: float) -> StochasticMatrix:
    """Transition-probability matrix exp(A*t) of a generator A.

    Scaling-and-squaring with a truncated Taylor core, accurate to ~1e-10
    for the small well-conditioned generators used here. Tiny negative
    entries from rounding are clamped and rows renormalized.

    Raises
    ------
    NegativeTime
        If ``t < 0``.
    """
    rates = gen.rates if isinstance(gen, GeneratorMatrix) else validate_generator(gen).rates
    if not np.isfinite(t) or t < 0:
        raise NegativeTime(f"time must be finite and >= 0, got {float(t)!r}")
    n = rates.shape[0]
    m = rates * t
    norm = np.abs(m).sum(axis=1).max(initial=0.0)
    if norm == 0.0:
        return StochasticMatrix(np.eye(n))
    n_square = max(0, int(np.ceil(np.log2(norm / 0.5))))
    scaled = m / 2.0**n_square
    term = np.eye(n)
    out = np.eye(n)
    for k in range(1, 31):
        term = term @ scaled / k
        out = out + term
        if np.abs(term).max() < 1e-18:
            break
    for _ in range(n_square):
        out = out @ out
    np.clip(out, 0.0, None, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return StochasticMatrix(out)


@dataclass(frozen=True)
class LatentTrajectory:
    """Piecewise-constant latent path: start state, jump times, one state
    per segment, truncated at ``horizon``. A jump always changes the
    state, as in a Gillespie path.
    """

    initial_state: int
    jump_times: np.ndarray
    states: np.ndarray
    horizon: float

    def __post_init__(self):
        object.__setattr__(self, "jump_times", np.asarray(self.jump_times, dtype=np.float64))
        object.__setattr__(self, "states", np.asarray(self.states, dtype=np.int64))
        jt, st = self.jump_times, self.states
        if st.shape != (jt.shape[0] + 1,):
            raise SmjpError("need one state per segment (jumps + 1)")
        if st[0] != self.initial_state:
            raise SmjpError("states[0] must equal initial_state")
        if jt.size:
            if not np.all(np.diff(jt) > 0):
                raise SmjpError("jump times must be strictly increasing")
            if jt[0] <= 0 or jt[-1] >= self.horizon:
                raise SmjpError("jump times must lie strictly inside (0, horizon)")
            if np.any(np.diff(st) == 0):
                raise SmjpError("repeated state across a jump in a Gillespie path")

    @property
    def n_jumps(self) -> int:
        return int(self.jump_times.shape[0])

    def holding_times(self) -> np.ndarray:
        """Durations of all completed segments (the final, horizon-censored
        segment is excluded)."""
        if self.n_jumps == 0:
            return np.empty(0)
        edges = np.concatenate(([0.0], self.jump_times))
        return np.diff(edges)


def gillespie_sample(
    gen: GeneratorMatrix,
    initial_state: int,
    horizon: float,
    seed: int | np.random.Generator,
) -> LatentTrajectory:
    """Simulate the jump process forward from ``initial_state``.

    Holding time in state s is exponential with the state's exit rate;
    the destination is drawn proportional to the off-diagonal rates of
    row s. The path is truncated at ``horizon``. A zero-exit-rate state
    simply holds to the horizon; on an infinite horizon that would never
    terminate, so it raises ``AbsorbingStateLoop`` instead.
    """
    if horizon <= 0:
        raise SmjpError(f"horizon must be positive, got {horizon!r}")
    n = gen.n_states
    if not 0 <= initial_state < n:
        raise SmjpError(f"initial state {initial_state} out of range")
    rng = as_rng(seed)
    rates = gen.rates
    exit_rates = gen.exit_rates
    # Cumulative destination distributions per state, zero weight on self.
    dest = np.maximum(rates, 0.0)
    np.fill_diagonal(dest, 0.0)
    with np.errstate(invalid="ignore"):
        cum = np.cumsum(dest, axis=1) / np.where(exit_rates > 0, exit_rates, 1.0)[:, None]

    t = 0.0
    s = int(initial_state)
    jump_times: list[float] = []
    states = [s]
    while True:
        r = exit_rates[s]
        if r <= 0.0:
            if np.isinf(horizon):
                raise AbsorbingStateLoop(f"state {s} has zero exit rate")
            break
        t += rng.exponential(1.0 / r)
        if t >= horizon:
            break
        s = int(np.searchsorted(cum[s], rng.random(), side="right"))
        jump_times.append(t)
        states.append(s)
    return LatentTrajectory(
        initial_state=int(initial_state),
        jump_times=np.asarray(jump_times),
        states=np.asarray(states),
        horizon=horizon,
    )


def default_omega(gens: GeneratorMatrix | list[GeneratorMatrix] | tuple[GeneratorMatrix, ...]) -> float:
    """A uniformization rate for given generators: twice the largest exit
    rate found, or 1.0 for all-zero generators. Fitting does not call it:
    a fit holds the omega of its start model.
    """
    if isinstance(gens, GeneratorMatrix):
        gens = [gens]
    peak = max(g.max_exit_rate for g in gens)
    return 2.0 * peak if peak > 0 else 1.0


def sample_virtual_times(
    omega: float,
    interval: tuple[float, float],
    seed: int | np.random.Generator,
) -> np.ndarray:
    """Poisson(omega) arrival times strictly inside an open interval, sorted."""
    t_a, t_b = interval
    if t_b <= t_a:
        raise EmptyInterval(f"interval ({t_a!r}, {t_b!r}) is empty")
    if t_a < 0:
        raise SmjpError("interval must start at a non-negative time")
    if omega <= 0:
        raise SmjpError(f"omega must be positive, got {omega!r}")
    expected = omega * (t_b - t_a)
    if expected > MAX_EXPECTED_VIRTUAL:
        raise SmjpError(
            f"{expected:.3g} expected virtual points in one interval; "
            "omega or the interval length is misconfigured"
        )
    rng = as_rng(seed)
    count = rng.poisson(expected)
    times = rng.uniform(t_a, t_b, size=count)
    times = np.unique(times)
    # Endpoints have probability zero but floats can land on them.
    return times[(times > t_a) & (times < t_b)]


def information_loss(joint: np.ndarray, rows: np.ndarray, cols: np.ndarray, kr: int, kc: int) -> float:
    """Mutual information lost by coarse-graining rows/cols as assigned."""
    return mutual_information(joint) - mutual_information(_clustered(joint, rows[None], cols[None], kr, kc)[0])
