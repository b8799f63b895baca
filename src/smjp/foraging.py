"""Ground-truth data generation: a two-box foraging world, a near-optimal
planner on discretized beliefs, and a small switching-chain toy generator.

The world has two feeding boxes whose rewards arm after independent
exponential waits. The planner tracks one availability belief per box,
plans on a grid of belief bins and acts on a fixed decision tick. Its
belief MDP is solved exactly by policy iteration: one dense linear solve
per round, a handful of rounds. The simulator replays the same belief
arithmetic on Python floats against the true hidden box states and
records an event stream plus the ground-truth agent state at every
decision. ``tests/helpers.py`` keeps dense value iteration and the
per-step simulator loop as oracles.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .core import Alphabet, SmjpError, as_rng, index_alphabet
from .events import EventSequence
from .switching import SwitchingSMJP, update_generator

ACTION_LABELS = ("stay", "press-1", "press-2", "move")
OBSERVATION_LABELS = ("box-1", "box-2", "reward", "no-reward")

A_STAY, A_PRESS_1, A_PRESS_2, A_MOVE = range(4)
# The press that can pay at each location: only the lever at the current
# location acts on its box; the other press is a wasted tick.
LOCAL_PRESS = (A_PRESS_1, A_PRESS_2)

# Largest belief grid the planner builds: its kernel holds 4 * (2 m^2)^2
# float64s, 128 m^4 bytes, under 512 MiB up to m = 45.
MAX_M_BINS = 45


class InvalidConfig(SmjpError):
    """A world/planner configuration value is out of range."""


class InvalidProbability(SmjpError):
    """A belief must lie in [0, 1]."""


class NonConvergence(SmjpError):
    """The planner hit its round cap; the discount must be < 1."""


def _require_finite(**values) -> None:
    for name, value in values.items():
        if not np.all(np.isfinite(value)):
            raise InvalidConfig(f"{name} must be finite, got {value!r}")


def _check_fields(config, names: tuple[str, ...], ok, wants: str) -> None:
    """Raise naming the first of ``names`` whose value fails ``ok``."""
    for name in names:
        value = getattr(config, name)
        if not ok(value):
            raise InvalidConfig(f"{name} must be {wants}, got {value!r}")


def check_horizon(horizon: float) -> None:
    """A simulation horizon must be a finite positive number of seconds."""
    if not 0 < horizon < math.inf:
        raise InvalidConfig(f"horizon must be finite and positive, got {horizon!r}")


@dataclass(frozen=True)
class WorldConfig:
    """Two-box world parameters.

    ``box_means`` are the exponential arming means in seconds. Costs and
    the reward magnitude are in reward units; the defaults make the
    optimal policy genuinely belief-dependent (it neither presses always
    nor camps at one box), which ``policy_is_nontrivial`` verifies.
    """

    box_means: tuple[float, float] = (10.0, 30.0)
    press_cost: float = 0.1
    switch_cost: float = 0.5
    reward_value: float = 1.0
    travel_time: float = 2.0
    decision_tick: float = 0.5
    discount: float = 0.99

    def __post_init__(self):
        _require_finite(box_means=self.box_means, press_cost=self.press_cost, switch_cost=self.switch_cost,
                        reward_value=self.reward_value, travel_time=self.travel_time, decision_tick=self.decision_tick)
        if len(self.box_means) != 2 or min(self.box_means) <= 0:
            raise InvalidConfig(f"box_means must be two positive durations, got {self.box_means!r}")
        _check_fields(self, ("press_cost", "switch_cost"), lambda v: v >= 0, "non-negative")
        _check_fields(self, ("reward_value", "travel_time", "decision_tick"), lambda v: v > 0, "positive")
        _check_fields(self, ("discount",), lambda v: 0 < v < 1, "in (0, 1)")


def belief_update(belief: float, pressed: bool, rewarded: bool, mean_interval: float, dt: float) -> float:
    """Advance one box's availability belief across a step of length dt.

    Without a press the belief accrues along the exponential arming hazard,
    ``b + (1-b)(1 - exp(-dt/mean))``. A rewarded press resets the box, so
    the belief is exactly zero afterwards; an unrewarded press reveals the
    box was empty, so the belief restarts from zero and accrues over dt.
    """
    if not 0.0 <= belief <= 1.0 or not np.isfinite(belief):
        raise InvalidProbability(f"belief {belief!r} outside [0, 1]")
    if dt < 0:
        raise InvalidConfig(f"dt must be non-negative, got {dt!r}")
    if mean_interval <= 0:
        raise InvalidConfig(f"mean interval must be positive, got {mean_interval!r}")
    accrual = 1.0 - math.exp(-dt / mean_interval)
    if not pressed:
        return belief + (1.0 - belief) * accrual
    if rewarded:
        return 0.0
    return accrual


@dataclass(frozen=True)
class BeliefMDP:
    """Discretized belief planner: states are (location, bin, bin) triples.

    ``transition[a]`` is the row-stochastic kernel for action a, ``reward``
    the expected immediate reward per (state, action). Steps have unequal
    durations (a move takes ``travel_time``), so each action carries its
    own discount ``discount ** (duration / decision_tick)``; otherwise
    bouncing between boxes would fast-forward belief accrual for free.
    ``values`` and ``policy`` are filled once it has been solved.
    """

    world: WorldConfig
    m_bins: int
    diffusion_eps: float
    belief_bins: np.ndarray
    transition: np.ndarray
    reward: np.ndarray
    step_discounts: np.ndarray
    values: np.ndarray | None = None
    policy: np.ndarray | None = None

    @property
    def n_states(self) -> int:
        return 2 * self.m_bins * self.m_bins

    @property
    def n_actions(self) -> int:
        return len(ACTION_LABELS)

    def state_index(self, location: int, bin0: int, bin1: int) -> int:
        return (location * self.m_bins + bin0) * self.m_bins + bin1

    def state_parts(self, index: int) -> tuple[int, int, int]:
        bin1 = index % self.m_bins
        rest = index // self.m_bins
        return rest // self.m_bins, rest % self.m_bins, bin1


def _belief_bin(belief: float, m_bins: int) -> int:
    """The bin whose centre is nearest to ``belief``."""
    return int(round(belief * (m_bins - 1)))


def _bin_kernel(targets: list[int], m: int, eps: float) -> np.ndarray:
    """One distribution over bins per target: the target keeps 1-eps and
    eps/2 leaks to each neighbor, folding back at the edges."""
    rows = np.arange(len(targets))
    t = np.asarray(targets)
    kernel = np.zeros((len(targets), m))
    kernel[rows, t] += 1.0 - eps
    kernel[rows, np.maximum(t - 1, 0)] += eps / 2.0
    kernel[rows, np.minimum(t + 1, m - 1)] += eps / 2.0
    return kernel


def build_belief_mdp(world: WorldConfig, m_bins: int = 10, diffusion_eps: float = 0.05) -> BeliefMDP:
    """Assemble kernels and rewards on the belief grid.

    Belief updates are mapped to the nearest bin and ``diffusion_eps``
    probability leaks to adjacent bins; pressing branches on whether the
    box pays out, with the payout probability read off the bin center.
    Once the action is fixed each box's belief moves on its own, so every
    action's kernel over (bin0, bin1) is the Kronecker product of one
    m x m kernel per box.
    """
    if not (m_bins >= 2 and float(m_bins).is_integer()):
        raise InvalidConfig(f"m_bins must be an integer of at least 2, got {m_bins!r}")
    if m_bins > MAX_M_BINS:
        raise InvalidConfig(f"m_bins must be at most {MAX_M_BINS}, got {m_bins!r} (the kernel takes 128 m^4 bytes)")
    m_bins = int(m_bins)
    if not 0.0 <= diffusion_eps <= 0.2:
        raise InvalidConfig(f"diffusion_eps must be in [0, 0.2], got {diffusion_eps!r}")
    bins = np.linspace(0.0, 1.0, m_bins)
    tick, travel = world.decision_tick, world.travel_time
    means = world.box_means

    def box_kernel(box: int, pressed: bool, rewarded: bool, dt: float) -> np.ndarray:
        """Row i: the bin distribution after box's belief leaves bin i."""
        after = [belief_update(b, pressed, rewarded, means[box], dt) for b in bins]
        return _bin_kernel([_belief_bin(b, m_bins) for b in after], m_bins, diffusion_eps)

    accrued = [box_kernel(box, False, False, tick) for box in range(2)]
    stay = np.kron(*accrued)
    # One (state, next state) block per (location, next location) pair.
    trans = np.zeros((len(ACTION_LABELS), 2, m_bins * m_bins, 2, m_bins * m_bins))
    reward = np.zeros((2, m_bins * m_bins, len(ACTION_LABELS)))
    # Payout probability of each box at every (bin0, bin1): its bin center.
    centers = (np.repeat(bins, m_bins), np.tile(bins, m_bins))
    moved = np.kron(*(box_kernel(box, False, False, travel) for box in range(2)))
    for loc in range(2):
        trans[A_STAY, loc, :, loc] = stay
        trans[A_MOVE, loc, :, 1 - loc] = moved
        reward[loc, :, A_MOVE] = -world.switch_cost
        for box, a in enumerate(LOCAL_PRESS):
            if box != loc:
                trans[a, loc, :, loc] = stay
                reward[loc, :, a] = -world.press_cost
                continue
            hit, miss = list(accrued), list(accrued)
            hit[box] = box_kernel(box, True, True, tick)
            miss[box] = box_kernel(box, True, False, tick)
            p_hit = centers[box][:, None]
            trans[a, loc, :, loc] = p_hit * np.kron(*hit) + (1.0 - p_hit) * np.kron(*miss)
            reward[loc, :, a] = world.reward_value * centers[box] - world.press_cost
    n_states = 2 * m_bins * m_bins
    durations = np.array([tick, tick, tick, travel])
    return BeliefMDP(
        world=world,
        m_bins=m_bins,
        diffusion_eps=diffusion_eps,
        belief_bins=bins,
        transition=trans.reshape(len(ACTION_LABELS), n_states, n_states),
        reward=reward.reshape(n_states, len(ACTION_LABELS)),
        step_discounts=world.discount ** (durations / tick),
    )


@dataclass(frozen=True)
class ValueIterationResult:
    values: np.ndarray
    policy: np.ndarray
    residuals: tuple[float, ...]
    sweeps: int


def value_iteration(mdp: BeliefMDP, tol: float = 1e-8, sweep_cap: int = 100_000) -> ValueIterationResult:
    """Solve the planner by Howard's policy iteration to a sup-norm Bellman
    residual below ``tol``; greedy policy ties break toward the lowest
    action index (stay before presses before move).

    From all-stay, each round solves the policy's linear system and backs
    its values up once through every action. It stops when that backup
    moves no value by ``tol`` or more, returning the backed-up values and
    their greedy policy; otherwise a state switches to its best action
    only where that beats its current one by more than ``tol``, so ties
    cannot cycle. ``residuals`` has one entry per round and ``sweeps``
    counts the rounds; ``sweep_cap`` rounds without convergence raise
    ``NonConvergence``.
    """
    states = np.arange(mdp.n_states)
    reward, discounts = mdp.reward.T, mdp.step_discounts
    policy = np.full_like(states, A_STAY)
    residuals: list[float] = []
    for rounds in range(1, sweep_cap + 1):
        # I - diag(discount) P_policy, built in the gathered rows.
        system = mdp.transition[policy, states]
        system *= -discounts[policy, None]
        system[states, states] += 1.0
        policy_values = np.linalg.solve(system, reward[policy, states])
        q = reward + discounts[:, None] * (mdp.transition @ policy_values)
        values = q.max(axis=0)
        gain = values - policy_values
        residuals.append(float(np.abs(gain).max()))
        if residuals[-1] < tol:
            return ValueIterationResult(values, q.argmax(axis=0), tuple(residuals), rounds)
        policy = np.where(gain > tol, q.argmax(axis=0), policy)
    raise NonConvergence(f"no convergence after {sweep_cap} rounds")


def solve_belief_mdp(world: WorldConfig, m_bins: int = 10, diffusion_eps: float = 0.05, tol: float = 1e-8) -> BeliefMDP:
    """Build and solve in one step; returns the planner with values and
    greedy policy attached."""
    mdp = build_belief_mdp(world, m_bins, diffusion_eps)
    result = value_iteration(mdp, tol)
    return replace(mdp, values=result.values, policy=result.policy)


def policy_is_nontrivial(mdp: BeliefMDP) -> bool:
    """Sanity check on a solved planner: it must press somewhere, decline
    to press at the same location somewhere else (belief dependence), and
    move somewhere."""
    if mdp.policy is None:
        raise SmjpError("planner has no policy; solve it first")
    by_location = mdp.policy.reshape(2, -1)
    local = by_location == np.array(LOCAL_PRESS)[:, None]
    presses, declines = local.any(axis=1), ~local.all(axis=1)
    return bool(presses.any() and (presses & declines).any() and (by_location == A_MOVE).any())


@dataclass(frozen=True)
class AgentTrace:
    """Ground-truth agent state at every decision: location, whether the
    decision paid out, and the belief bin of the occupied box, flattened
    into a single index z = (location*2 + rewarded)*m_bins + bin."""

    times: np.ndarray
    z: np.ndarray
    location: np.ndarray
    rewarded: np.ndarray
    belief_bin: np.ndarray
    beliefs: np.ndarray
    m_bins: int

    @property
    def n_z(self) -> int:
        return 2 * 2 * self.m_bins

    def one_hot(self) -> np.ndarray:
        out = np.zeros((self.z.shape[0], self.n_z))
        out[np.arange(self.z.shape[0]), self.z] = 1.0
        return out


def simulate_agent(
    mdp: BeliefMDP,
    horizon: float,
    seed: int | np.random.Generator,
    policy: np.ndarray | None = None,
    start_location: int = 0,
) -> tuple[EventSequence, AgentTrace]:
    """Run the world and a policy for ``horizon`` seconds.

    Box rewards arm after exponential waits and stay armed until collected.
    At each decision the policy is looked up at the binned belief state;
    presses reveal the true box state, everything else emits the current
    location symbol. Returns the observable event stream and the parallel
    ground-truth trace.
    """
    check_horizon(horizon)
    if start_location not in (0, 1):
        raise InvalidConfig(f"start_location must be 0 or 1, got {start_location!r}")
    if policy is None:
        if mdp.policy is None:
            raise SmjpError("planner has no policy; solve it or pass one explicitly")
        policy = mdp.policy
    policy = np.asarray(policy, dtype=np.int64)
    if policy.shape != (mdp.n_states,) or policy.min() < 0 or policy.max() >= mdp.n_actions:
        raise InvalidConfig("policy must map every planner state to a valid action")
    rng = as_rng(seed)
    world = mdp.world
    means = world.box_means
    obs_alpha = Alphabet("observation", OBSERVATION_LABELS)
    act_alpha = Alphabet("action", ACTION_LABELS)
    reward_obs, no_reward_obs = obs_alpha.index("reward"), obs_alpha.index("no-reward")
    act_at = policy.reshape(2, mdp.m_bins, mdp.m_bins).tolist()
    scale = mdp.m_bins - 1
    # belief_update's accrual of each box over a tick and over a move.
    tick, travel = world.decision_tick, world.travel_time
    tick_0, tick_1 = (1.0 - math.exp(-tick / mean) for mean in means)
    travel_0, travel_1 = (1.0 - math.exp(-travel / mean) for mean in means)

    t = 0.0
    loc = int(start_location)
    p0 = p1 = 0.0  # the two boxes' beliefs
    next_food = [rng.exponential(means[0]), rng.exponential(means[1])]
    # One list per column: time, observation, action, location, rewarded,
    # belief bin of the occupied box, and both beliefs before the step.
    # The beliefs stay in [0, 1] by construction, so belief_update's and
    # _belief_bin's checks are left out of this loop.
    times, obs, acts, locs, rewards, local_bins, belief_0, belief_1 = ([] for _ in range(8))

    while t < horizon:
        b0, b1 = round(p0 * scale), round(p1 * scale)
        a = act_at[loc][b0][b1]
        acted = a == LOCAL_PRESS[loc]
        rewarded = acted and t >= next_food[loc]
        if rewarded:
            next_food[loc] = t + rng.exponential(means[loc])
        if a == A_STAY or a == A_MOVE:
            o = loc  # location symbol
        else:
            o = reward_obs if rewarded else no_reward_obs
        times.append(t)
        obs.append(o)
        acts.append(a)
        locs.append(loc)
        rewards.append(rewarded)
        local_bins.append(b1 if loc else b0)
        belief_0.append(p0)
        belief_1.append(p1)
        if a == A_MOVE:
            p0 += (1.0 - p0) * travel_0
            p1 += (1.0 - p1) * travel_1
            t += travel
            loc = 1 - loc
            continue
        # A press resets its box: zero after a reward, else accrual from zero.
        p0 = (0.0 if rewarded else tick_0) if acted and loc == 0 else p0 + (1.0 - p0) * tick_0
        p1 = (0.0 if rewarded else tick_1) if acted and loc == 1 else p1 + (1.0 - p1) * tick_1
        t += tick

    times, obs, acts, locs, rewards, local_bins = map(np.asarray, (times, obs, acts, locs, rewards, local_bins))
    seq = EventSequence(
        "foraging-agent", times, obs, acts, obs_alpha, act_alpha, {"horizon": repr(float(horizon))}
    )
    trace = AgentTrace(
        times=times,
        z=(locs * 2 + rewards) * mdp.m_bins + local_bins,
        location=locs,
        rewarded=rewards,
        belief_bin=local_bins,
        beliefs=np.column_stack((belief_0, belief_1)),
        m_bins=mdp.m_bins,
    )
    return seq, trace


@dataclass(frozen=True)
class ToyConfig:
    """Configuration for the small switching-chain generator.

    Every tick of a rate-``event_rate`` Poisson clock transitions the
    latent chain selected by the action in force, emits a symbol, and the
    next action index is the emitted observation index (mod n_actions).
    When no explicit matrices are given they are drawn once per seed from
    Dirichlet(concentration) rows.
    """

    n_states: int = 5
    n_observations: int = 2
    n_actions: int = 2
    expected_length: int = 5000
    event_rate: float = 1.0
    concentration: float = 0.5
    chains: tuple[np.ndarray, ...] | None = None
    emission: np.ndarray | None = None

    def __post_init__(self):
        _check_fields(self, ("n_states", "n_observations", "n_actions", "expected_length"), lambda v: v >= 1,
                      "at least 1")
        if self.n_actions > self.n_observations:
            # Observation-driven actions: the next action is the emitted symbol.
            raise InvalidConfig(
                f"n_actions must be at most n_observations ({self.n_observations}), got {self.n_actions}"
            )
        _require_finite(event_rate=self.event_rate, concentration=self.concentration)
        _check_fields(self, ("event_rate", "concentration"), lambda v: v > 0, "positive")


@dataclass(frozen=True)
class ToyData:
    sequence: EventSequence
    states: np.ndarray
    model: SwitchingSMJP
    config: ToyConfig


def _toy_path(
    cum_chain: np.ndarray, cum_emit: np.ndarray, s: int, a: int, draws: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(states, observations, actions) at each event of the toy chain from
    state ``s`` under action ``a``: the event's two uniform ``draws`` pick
    the next state from the cumulative row ``cum_chain[a, s]`` and then a
    symbol from ``cum_emit``, each by ``bisect_right`` on Python lists
    (one C call per draw). The draws are read one float at a time from a
    memoryview, so no list of them is built."""
    k = cum_chain.shape[0]
    rows, emit = cum_chain.tolist(), cum_emit.tolist()
    states, obs, acts = [], [], []
    pairs = iter(memoryview(np.ascontiguousarray(draws).ravel()))
    for u, v in zip(pairs, pairs):
        s = bisect_right(rows[a][s], u)
        o = bisect_right(emit[s], v)
        a = o % k
        states.append(s)
        obs.append(o)
        acts.append(a)
    return tuple(np.array(x, dtype=np.int64) for x in (states, obs, acts))


def generate_toy(config: ToyConfig, seed: int | np.random.Generator) -> ToyData:
    """Sample an event sequence from a known switching chain.

    The first action is uniform; afterwards the action recorded at each
    event is the one the emitted observation selects, which is exactly the
    action governing the step to the next event. The true model (chains
    scaled into generators at the tick rate) is returned alongside the
    latent state path.
    """
    rng = as_rng(seed)
    n, k, o = config.n_states, config.n_actions, config.n_observations
    if config.chains is not None:
        chains = np.stack([np.asarray(c, dtype=np.float64) for c in config.chains])
        if chains.shape != (k, n, n):
            raise InvalidConfig(f"need {k} chains of shape ({n}, {n})")
    else:
        chains = np.stack([rng.dirichlet(np.full(n, config.concentration), size=n) for _ in range(k)])
    if config.emission is not None:
        emission = np.asarray(config.emission, dtype=np.float64)
        if emission.shape != (n, o):
            raise InvalidConfig(f"emission must have shape ({n}, {o})")
    else:
        emission = rng.dirichlet(np.full(o, config.concentration), size=n)

    horizon = config.expected_length / config.event_rate
    gaps = rng.exponential(1.0 / config.event_rate, size=int(config.expected_length * 1.3) + 64)
    times = np.cumsum(gaps)
    while times.size and times[-1] < horizon:
        extra = rng.exponential(1.0 / config.event_rate, size=256)
        times = np.concatenate([times, times[-1] + np.cumsum(extra)])
    times = times[times < horizon]

    s = int(rng.integers(n))
    a = int(rng.integers(k))
    draws = rng.random((times.size, 2))
    states, obs, acts = _toy_path(np.cumsum(chains, axis=2), np.cumsum(emission, axis=1), s, a, draws)

    obs_alpha = index_alphabet("observation", o, "o")
    act_alpha = index_alphabet("action", k, "a")
    seq = EventSequence("toy", times, obs, acts, obs_alpha, act_alpha, {})
    gens = tuple(update_generator(chains[i], config.event_rate) for i in range(k))
    model = SwitchingSMJP(
        states=index_alphabet("state", n, "s"),
        actions=act_alpha,
        observations=obs_alpha,
        generators=gens,
        emission=emission,
        omega=config.event_rate,
    )
    return ToyData(sequence=seq, states=states, model=model, config=config)
