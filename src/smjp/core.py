"""Shared numeric types, validation, random streams and text I/O.

Everything here is deliberately dense-matrix and float64: the latent state
spaces this package deals with are small (tens of states), so sparse or
arbitrary-precision machinery would be unjustified complexity.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TextIO

import numpy as np

# Row sums of a candidate generator are repaired when the residual is below
# this, rejected otherwise.
ROW_SUM_REJECT = 1e-9
# Tolerance for row-stochasticity of probability matrices.
STOCHASTIC_TOL = 1e-10
# Negative entries above this magnitude are genuine sign errors, below it
# they are float noise and get clamped to zero.
CLAMP_TOL = 1e-12


class SmjpError(Exception):
    """Base class for all errors raised by this package; an invalid value
    or a degenerate dataset (exit 4)."""


class NumericError(SmjpError):
    """A computation that cannot finish: a non-finite likelihood, a
    planner that does not converge, an impossible observation (exit 5)."""


class InputFormatError(SmjpError):
    """A malformed text input: ``"{source}:{line}: {message}"``, without the line for whole-file faults."""

    def __init__(self, source: str, line: int | None, message: str):
        super().__init__(f"{source}: {message}" if line is None else f"{source}:{line}: {message}")
        self.line = line


def read_lines(source: str | os.PathLike | TextIO) -> tuple[str, list[str]]:
    """``(name, lines)`` of a path or an open text stream, split as iterating
    it splits it, newlines removed; undecodable bytes become U+FFFD."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, errors="replace") as fh:
            text = fh.read()
        name = os.fspath(source)
    else:
        text = source.read()
        name = getattr(source, "name", "<stream>")
    return str(name), text.removesuffix("\n").split("\n") if text else []


def write_text(target: str | os.PathLike | TextIO, text: str) -> None:
    """Write ``text`` to a path (replacing the file) or to an open stream."""
    if isinstance(target, (str, os.PathLike)):
        with open(target, "w") as fh:
            fh.write(text)
    else:
        target.write(text)


ALPHABET_KINDS = ("state", "action", "observation")


@dataclass(frozen=True)
class Alphabet:
    """Ordered symbol table mapping labels to dense indices.

    Labels must be unique, non-empty and free of whitespace and commas so
    they can be written verbatim into the line-based text formats.
    """

    kind: str
    labels: tuple[str, ...]

    def __post_init__(self):
        if self.kind not in ALPHABET_KINDS:
            raise SmjpError(f"unknown alphabet kind {self.kind!r}")
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise SmjpError("alphabet must have at least one label")
        if len(set(self.labels)) != len(self.labels):
            raise SmjpError(f"duplicate labels in {self.kind} alphabet")
        for lab in self.labels:
            if not lab or any(c.isspace() or c == "," for c in lab):
                raise SmjpError(f"label {lab!r} is empty or contains whitespace/comma")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def _index(self) -> dict[str, int]:
        # Built lazily; frozen dataclasses still allow caching via __dict__.
        cached = self.__dict__.get("_index_cache")
        if cached is None:
            cached = {lab: i for i, lab in enumerate(self.labels)}
            self.__dict__["_index_cache"] = cached
        return cached

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise SmjpError(f"label {label!r} not in {self.kind} alphabet") from None

    def label(self, index: int) -> str:
        return self.labels[index]


def index_alphabet(kind: str, n: int, prefix: str | None = None) -> Alphabet:
    """Alphabet with synthetic labels prefix0..prefix{n-1}."""
    p = prefix if prefix is not None else kind[0]
    return Alphabet(kind, tuple(f"{p}{i}" for i in range(n)))


@dataclass(frozen=True)
class GeneratorMatrix:
    """Instantaneous rate matrix of a continuous-time Markov chain.

    Rows sum to zero, off-diagonal entries are non-negative transition
    rates (events per second) and the diagonal holds minus the exit rate.
    Instances are immutable; build them through :func:`validate_generator`.
    """

    rates: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rates", np.array(self.rates, dtype=np.float64, copy=True))
        r = self.rates
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise SmjpError(f"generator must be square, got {r.shape}")
        if not np.all(np.isfinite(r)):
            raise SmjpError("generator has non-finite entries")
        off = r[~np.eye(r.shape[0], dtype=bool)]
        if off.size and off.min() < 0:
            raise SmjpError(f"negative off-diagonal rate {float(off.min())!r}")
        if np.diag(r).size and np.diag(r).max() > 0:
            raise SmjpError("positive diagonal entry")
        resid = np.abs(r.sum(axis=1)).max() if r.size else 0.0
        if resid > CLAMP_TOL:
            raise SmjpError(f"row sums deviate from zero by {float(resid)!r}")
        r.setflags(write=False)

    @property
    def n_states(self) -> int:
        return self.rates.shape[0]

    @property
    def exit_rates(self) -> np.ndarray:
        """Per-state total leaving rate, |diagonal|."""
        return -np.diag(self.rates)

    @property
    def max_exit_rate(self) -> float:
        return float(self.exit_rates.max()) if self.n_states else 0.0


@dataclass(frozen=True)
class StochasticMatrix:
    """Dense row-stochastic matrix: entries in [0, 1], rows summing to 1."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", np.array(self.probs, dtype=np.float64, copy=True))
        p = self.probs
        if p.ndim != 2:
            raise SmjpError(f"expected a 2-d matrix, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise SmjpError("probability matrix has non-finite entries")
        if p.min(initial=0.0) < 0 or p.max(initial=0.0) > 1 + STOCHASTIC_TOL:
            raise SmjpError("entries outside [0, 1]")
        resid = np.abs(p.sum(axis=1) - 1.0).max() if p.size else 0.0
        if resid > STOCHASTIC_TOL:
            raise SmjpError(f"row sums deviate from 1 by {float(resid)!r}")
        p.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.probs.shape[0]

    @property
    def n_cols(self) -> int:
        return self.probs.shape[1]


def validate_generator(rates: np.ndarray) -> GeneratorMatrix:
    """Validate a candidate rate matrix and repair float-level drift.

    Off-diagonal entries in [-1e-12, 0) are clamped to zero; row sums with
    residual below 1e-9 are absorbed into the diagonal. Anything worse is
    rejected rather than silently fixed.

    Raises
    ------
    SmjpError
        If the matrix is not square and finite, or an entry or a row sum
        is off by more than the repair tolerances.
    """
    r = np.array(rates, dtype=np.float64, copy=True)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise SmjpError(f"generator must be square, got {r.shape}")
    if not np.all(np.isfinite(r)):
        raise SmjpError("generator has non-finite entries")
    n = r.shape[0]
    offmask = ~np.eye(n, dtype=bool)
    off = r[offmask]
    if off.size and off.min() < -CLAMP_TOL:
        i, j = np.unravel_index(np.argmin(np.where(offmask, r, np.inf)), r.shape)
        raise SmjpError(f"rate[{i},{j}] = {float(r[i, j])!r} < 0")
    r[offmask & (r < 0)] = 0.0
    resid = r.sum(axis=1)
    worst = np.abs(resid).max(initial=0.0)
    if worst >= ROW_SUM_REJECT:
        k = int(np.argmax(np.abs(resid)))
        raise SmjpError(f"row {k} sums to {float(resid[k])!r}")
    if worst > CLAMP_TOL:
        # Absorb the drift into the diagonal; residuals already below the
        # construction tolerance are left untouched so repeated validation
        # is bit-stable.
        r[np.diag_indices(n)] -= resid
    return GeneratorMatrix(r)


def derive_rng(seed: int, *branch: int) -> np.random.Generator:
    """Independent counter-based random stream for (seed, *branch).

    Philox keyed through a SeedSequence spawn key, so every (seed, branch)
    pair names one reproducible stream and disjoint branches never collide.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(b) for b in branch))
    return np.random.Generator(np.random.Philox(ss))


def as_rng(seed: int | np.random.Generator) -> np.random.Generator:
    """Accept either a seed or an already-built generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return derive_rng(int(seed))
