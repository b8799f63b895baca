"""Sampling for continuous-time Markov jump processes.

Covers the uniformized discrete chain B = I + A/omega, the checked
expected virtual-point count of each inter-event interval, and the mixed
event/virtual time grid that the inference engine runs on, built from one
vector of Poisson counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GeneratorMatrix, SmjpError, StochasticMatrix, as_rng

# A single interval asking for more virtual points than this signals a
# misconfigured rate; refuse rather than allocate.
MAX_EXPECTED_VIRTUAL = 1e7

# Observation index attached to virtual grid points (no emission there).
NO_OBSERVATION = -1

TAG_EVENT = 0
TAG_VIRTUAL = 1


class OmegaTooSmall(SmjpError):
    """Uniformization rate below the maximum exit rate (or non-positive)."""


class NonMonotoneTimestamps(SmjpError):
    """Event timestamps are not strictly increasing."""


class VirtualTimeOverflow(SmjpError):
    """Expected virtual-point count in one interval is absurdly large."""


@dataclass(frozen=True)
class TimeGrid:
    """Ordered union of event times and sampled virtual times.

    ``observations[t]`` is ``NO_OBSERVATION`` at virtual points.
    ``actions[t]`` is the action in force over the step from grid point t
    to t+1; virtual points inherit the action of the event opening their
    enclosing interval.
    """

    times: np.ndarray
    tags: np.ndarray
    observations: np.ndarray
    actions: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=np.float64))
        object.__setattr__(self, "tags", np.asarray(self.tags, dtype=np.int8))
        object.__setattr__(self, "observations", np.asarray(self.observations, dtype=np.int64))
        object.__setattr__(self, "actions", np.asarray(self.actions, dtype=np.int64))
        n = self.times.shape[0]
        if not (self.tags.shape[0] == self.observations.shape[0] == self.actions.shape[0] == n):
            raise SmjpError("grid arrays must have equal length")
        if n and not np.all(np.diff(self.times) > 0):
            raise NonMonotoneTimestamps("grid times must be strictly increasing")
        if np.any(self.observations[self.tags == TAG_VIRTUAL] != NO_OBSERVATION):
            raise SmjpError("virtual grid points cannot carry observations")

    def __len__(self) -> int:
        return int(self.times.shape[0])

    @property
    def n_events(self) -> int:
        return int(np.sum(self.tags == TAG_EVENT))

    @property
    def event_indices(self) -> np.ndarray:
        return np.nonzero(self.tags == TAG_EVENT)[0]


def uniformize(gen: GeneratorMatrix, omega: float) -> StochasticMatrix:
    """Discrete single-step chain B = I + A/omega of the uniformized process.

    Requires ``omega`` at least the largest exit rate, so diagonal entries
    (self-jump probabilities) stay non-negative.

    Raises
    ------
    OmegaTooSmall
    """
    if omega <= 0 or omega < gen.max_exit_rate * (1 - 1e-12):
        raise OmegaTooSmall(f"omega={omega!r} below max exit rate {gen.max_exit_rate!r}")
    b = np.eye(gen.n_states) + gen.rates / omega
    np.clip(b, 0.0, 1.0, out=b)
    return StochasticMatrix(b)


def expected_virtual(times: np.ndarray, omega: float) -> np.ndarray:
    """Expected virtual-point count ``omega * dt`` of each inter-event
    interval, once the intervals are checked: times strictly increasing
    from a non-negative start, a positive omega, and no interval expecting
    more than ``MAX_EXPECTED_VIRTUAL`` points."""
    if times.size and not np.all(np.diff(times) > 0):
        raise NonMonotoneTimestamps("event timestamps must be strictly increasing")
    lo, hi = times[:-1], times[1:]
    expected = omega * (hi - lo)
    if lo.size:
        if lo[0] < 0:
            raise SmjpError("interval must start at a non-negative time")
        if omega <= 0:
            raise OmegaTooSmall(f"omega must be positive, got {omega!r}")
        over = np.flatnonzero(expected > MAX_EXPECTED_VIRTUAL)
        if over.size:
            i = int(over[0])
            raise VirtualTimeOverflow(
                f"{expected[i]:.3g} expected virtual points in interval {i} "
                f"({float(lo[i])!r}, {float(hi[i])!r}); omega or the interval length is misconfigured"
            )
    return expected


def build_time_grid(seq, omega: float, seed: int | np.random.Generator) -> TimeGrid:
    """Interleave a sequence's events with virtual points.

    Every event timestamp passes through bit-identically. One Poisson draw
    over the inter-event intervals gives each its count k ~ Poisson(omega
    * dt) of virtual points, which carry no observation and inherit the
    interval's opening action. Inference reads only the counts, so the k
    points sit evenly at ``lo + (hi - lo) * j/(k+1)``, j = 1..k.
    """
    times = np.asarray(seq.times, dtype=np.float64)
    obs = np.asarray(seq.observations, dtype=np.int64)
    acts = np.asarray(seq.actions, dtype=np.int64)
    expected = expected_virtual(times, omega)
    lo, hi = times[:-1], times[1:]
    counts = as_rng(seed).poisson(expected)
    iv = np.repeat(np.arange(lo.size), counts)
    j = np.arange(1, iv.size + 1) - (np.cumsum(counts) - counts)[iv]
    vt = lo[iv] + (hi - lo)[iv] * (j / (counts[iv] + 1))
    # Floats can put a point on an endpoint of a short interval, or on its
    # neighbour; keep points strictly inside their interval, so none ties
    # an event, and drop repeats.
    inside = (vt > lo[iv]) & (vt < hi[iv])
    vt, iv = vt[inside], iv[inside]
    fresh = np.ones(vt.size, dtype=bool)
    fresh[1:] = vt[1:] != vt[:-1]
    vt, iv = vt[fresh], iv[fresh]

    # Event i follows the i events and the virtual points of intervals
    # before it; a virtual point follows the events 0..interval.
    n = times.size
    ev_pos = np.arange(n)
    ev_pos[1:] += np.cumsum(np.bincount(iv, minlength=max(n - 1, 0)))
    v_pos = np.arange(vt.size) + iv + 1
    size = n + vt.size
    grid_t = np.empty(size)
    grid_t[ev_pos] = times
    grid_t[v_pos] = vt
    grid_tag = np.full(size, TAG_VIRTUAL, dtype=np.int8)
    grid_tag[ev_pos] = TAG_EVENT
    grid_obs = np.full(size, NO_OBSERVATION, dtype=np.int64)
    grid_obs[ev_pos] = obs
    grid_act = np.empty(size, dtype=np.int64)
    grid_act[ev_pos] = acts
    grid_act[v_pos] = acts[iv]
    return TimeGrid(grid_t, grid_tag, grid_obs, grid_act)
