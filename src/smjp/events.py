"""Event sequences and their line-based text format.

The on-disk format is one event per line, ``time,observation,action``,
preceded by header lines that declare the two alphabets. Everything is
plain text so files diff cleanly and round-trip bit-exactly (floats are
written with shortest round-trip repr).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, TextIO

import numpy as np

from .core import Alphabet, InputFormatError, SmjpError, read_lines, write_text

FORMAT_HEADER = "# smjp-events v1"
COLUMNS = "time,observation,action"


class EventParseError(InputFormatError):
    """Base class for event-file parse failures; carries the line number."""


class MalformedLine(EventParseError):
    pass


class UnknownSymbol(EventParseError):
    pass


class NonMonotoneTime(EventParseError):
    pass


@dataclass(frozen=True)
class EventSequence:
    """Time-ordered (timestamp, observation, action) record.

    Symbols are stored as dense indices into the two alphabets; timestamps
    are seconds, strictly increasing.
    """

    id: str
    times: np.ndarray
    observations: np.ndarray
    actions: np.ndarray
    observation_alphabet: Alphabet
    action_alphabet: Alphabet
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=np.float64))
        object.__setattr__(self, "observations", np.asarray(self.observations, dtype=np.int64))
        object.__setattr__(self, "actions", np.asarray(self.actions, dtype=np.int64))
        n = self.times.shape[0]
        if self.observations.shape[0] != n or self.actions.shape[0] != n:
            raise SmjpError("times, observations and actions must have equal length")
        if n and not np.all(np.diff(self.times) > 0):
            raise SmjpError("event times must be strictly increasing")
        if n and not np.all(np.isfinite(self.times)):
            raise SmjpError("event times must be finite")
        n_obs, n_act = len(self.observation_alphabet), len(self.action_alphabet)
        if n and (self.observations.min() < 0 or self.observations.max() >= n_obs):
            raise SmjpError("observation index outside alphabet")
        if n and (self.actions.min() < 0 or self.actions.max() >= n_act):
            raise SmjpError("action index outside alphabet")

    def __len__(self) -> int:
        return int(self.times.shape[0])

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0]) if len(self) > 1 else 0.0

    @property
    def event_rate(self) -> float:
        """Mean events per second over the recorded span."""
        return (len(self) - 1) / self.duration if self.duration > 0 else 0.0

    def events(self) -> Iterable[tuple[float, str, str]]:
        for t, o, a in zip(self.times, self.observations, self.actions):
            yield float(t), self.observation_alphabet.label(int(o)), self.action_alphabet.label(int(a))


def split_chronological(seq: EventSequence, holdout_fraction: float) -> tuple[EventSequence, EventSequence]:
    """Split into (head, tail) with the last ``holdout_fraction`` of events
    in the tail. Behavioral data is non-stationary, so evaluation always
    holds out the most recent stretch rather than a random shuffle."""
    if not 0.0 <= holdout_fraction < 1.0:
        raise SmjpError(f"holdout fraction must be in [0, 1), got {holdout_fraction!r}")
    n = len(seq)
    cut = n - int(np.floor(holdout_fraction * n))
    head = EventSequence(
        seq.id, seq.times[:cut], seq.observations[:cut], seq.actions[:cut],
        seq.observation_alphabet, seq.action_alphabet, dict(seq.metadata),
    )
    tail = EventSequence(
        seq.id + "-holdout", seq.times[cut:], seq.observations[cut:], seq.actions[cut:],
        seq.observation_alphabet, seq.action_alphabet, dict(seq.metadata),
    )
    return head, tail


def event_text(seq: EventSequence) -> str:
    """The line-based text form; see :func:`parse_event_file`."""
    lines = [FORMAT_HEADER, f"# id: {seq.id}", "# observations: " + " ".join(seq.observation_alphabet.labels),
             "# actions: " + " ".join(seq.action_alphabet.labels)]
    lines += [f"# meta {key}: {value}" for key, value in seq.metadata.items()] + [COLUMNS]
    lines += [f"{t!r},{o},{a}" for t, o, a in seq.events()]
    return "\n".join(lines) + "\n"


def write_event_file(seq: EventSequence, target: str | TextIO) -> None:
    """Write :func:`event_text` to a path or an open stream."""
    write_text(target, event_text(seq))


def parse_event_file(source: str | TextIO) -> EventSequence:
    """Parse the text format back into an EventSequence.

    The parse is total: every line is either consumed or reported in a
    structured error naming the input and its 1-based line number. The
    first offending line aborts the parse.

    Raises
    ------
    MalformedLine, UnknownSymbol, NonMonotoneTime
    """
    name, lines = read_lines(source)
    if not lines or lines[0].rstrip("\r") != FORMAT_HEADER:
        raise MalformedLine(name, 1, f"expected {FORMAT_HEADER!r} header")
    seq_id = "events"
    alphabets: dict[str, Alphabet] = {}
    metadata: dict[str, str] = {}
    times: list[float] = []
    observations: list[int] = []
    actions: list[int] = []
    saw_columns = False
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.rstrip("\r")
        if not line.strip():
            continue
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition(":")
            if sep and key == "id":
                seq_id = value.strip()
            elif sep and key in ("observations", "actions"):
                if saw_columns:
                    raise MalformedLine(name, lineno, "alphabets must be declared before events")
                try:
                    alphabets[key] = Alphabet(key[:-1], tuple(value.split()))
                except SmjpError as exc:
                    raise MalformedLine(name, lineno, f"bad alphabet declaration: {exc}") from None
            elif key.startswith("meta "):
                if not sep:
                    raise MalformedLine(name, lineno, "metadata line needs 'key: value'")
                metadata[key[len("meta "):].strip()] = value.strip()
            continue  # unrecognized comments are ignored
        if line == COLUMNS:
            saw_columns = True
            if len(alphabets) < 2:
                raise MalformedLine(name, lineno, "alphabets must be declared before events")
            obs_index = {lab: i for i, lab in enumerate(alphabets["observations"].labels)}
            act_index = {lab: i for i, lab in enumerate(alphabets["actions"].labels)}
            continue
        if not saw_columns:
            raise MalformedLine(name, lineno, "event rows must follow the column header")
        parts = line.split(",")
        if len(parts) != 3:
            raise MalformedLine(name, lineno, f"expected 3 comma-separated fields, got {len(parts)}")
        try:
            t = float(parts[0])
        except ValueError:
            t = math.nan
        if not math.isfinite(t):
            raise MalformedLine(name, lineno, f"bad timestamp {parts[0]!r}")
        o, a = parts[1].strip(), parts[2].strip()
        oi, ai = obs_index.get(o), act_index.get(a)
        if oi is None:
            raise UnknownSymbol(name, lineno, f"observation {o!r} not declared")
        if ai is None:
            raise UnknownSymbol(name, lineno, f"action {a!r} not declared")
        if times and t <= times[-1]:
            raise NonMonotoneTime(name, lineno, f"timestamp {t!r} not greater than {times[-1]!r}")
        times.append(t)
        observations.append(oi)
        actions.append(ai)
    if len(alphabets) < 2:
        raise MalformedLine(name, None, "missing alphabet declarations")
    return EventSequence(seq_id, times, observations, actions, alphabets["observations"], alphabets["actions"], metadata)
