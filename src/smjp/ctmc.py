"""Sampling for continuous-time Markov jump processes.

Covers the uniformized discrete chain B = I + A/omega, the checked
expected virtual-point count of each inter-event interval, and the time
grid that the inference engine runs on: a sequence's events plus one
Poisson count of virtual points per interval between them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GeneratorMatrix, SmjpError, StochasticMatrix, as_rng
from .events import EventSequence

# A single interval asking for more virtual points than this signals a
# misconfigured rate; refuse rather than allocate.
MAX_EXPECTED_VIRTUAL = 1e7


class OmegaTooSmall(SmjpError):
    """Uniformization rate below the maximum exit rate (or non-positive)."""


class NonMonotoneTimestamps(SmjpError):
    """Event timestamps are not strictly increasing."""


class VirtualTimeOverflow(SmjpError):
    """Expected virtual-point count in one interval is absurdly large."""


@dataclass(frozen=True)
class TimeGrid:
    """A sequence's events plus ``counts[i]`` virtual points in the
    interval from event i to event i+1.

    The points carry no observation and inherit the interval's opening
    action, so interval i is ``counts[i] + 1`` steps of that action's
    discrete chain. Inference reads only the counts: where the points sit
    inside their interval carries no information, so none is placed.
    """

    sequence: EventSequence
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts)
        intervals = max(len(self.sequence) - 1, 0)
        if counts.shape != (intervals,):
            raise SmjpError(f"need one virtual-point count per interval ({intervals}), got shape {counts.shape}")
        if counts.size and counts.dtype.kind not in "iu":
            raise SmjpError(f"virtual-point counts must be integers, got {counts.dtype}")
        if counts.size and counts.min() < 0:
            raise SmjpError(f"virtual-point counts must be non-negative, got {int(counts.min())}")
        object.__setattr__(self, "counts", counts.astype(np.int64, copy=False))

    def __len__(self) -> int:
        return self.n_events + int(self.counts.sum())

    @property
    def n_events(self) -> int:
        return len(self.sequence)


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


def expected_virtual(times: np.ndarray, omega: float, name: str | None = None) -> np.ndarray:
    """Expected virtual-point count ``omega * dt`` of each inter-event
    interval, once the intervals are checked: times strictly increasing
    from a non-negative start, a positive omega, and no interval expecting
    more than ``MAX_EXPECTED_VIRTUAL`` points (the refusal names the
    sequence ``name`` when given)."""
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
            where = f"interval {i} " if name is None else f"interval {i} of sequence {name!r} "
            raise VirtualTimeOverflow(
                f"{expected[i]:.3g} expected virtual points in {where}"
                f"({float(lo[i])!r}, {float(hi[i])!r}); omega or the interval length is misconfigured"
            )
    return expected


def build_time_grid(seq: EventSequence, omega: float, seed: int | np.random.Generator) -> TimeGrid:
    """A grid of a sequence: one Poisson draw over its inter-event
    intervals gives each its count k ~ Poisson(omega * dt) of virtual
    points."""
    return TimeGrid(seq, as_rng(seed).poisson(expected_virtual(seq.times, omega)))
