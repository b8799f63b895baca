"""Action-switched latent jump-process model and its EM fitting loop.

The model holds one generator per action; the latent prior at the first
event is uniform (the initial distribution is not a learned parameter).
Every path steps from event to event. The one posterior entry point,
``forward_backward``, steps by the exact law between events, B expm(A
dt), built once per distinct (action, dt), so the state posterior at the
events is exact. The EM E-step steps by a grid's law instead: interval i
of a grid holds r_i - 1 virtual points, which carry no observation, so it
is r_i steps of its opening action's chain, one step of B_k^(r_i). Both
run one scaled filter-smoother, ``_filter_smooth``: a scan over blocks of
eight steps with a log-depth carry between blocks, whose single fallback,
the step-by-step loops, names the event of an impossible observation.

Fitting alternates three phases: draw fresh grids of Poisson virtual-point
counts, run discrete-chain EM to convergence on those fixed grids, then map
the re-estimated chains back to generators via A = (B - I) * omega. Omega
is fixed through a fit, since a grid's mean law between events, B expm(A
dt), depends on it. The loop stops when the exact log-likelihood of the
held-out parts (of the training parts when there are none) stabilizes:
the event-level likelihood over the laws B expm(A dt) between events,
read off the same scan's block products and up-sweep with no smoother.
Consecutive sequences are scored in joined runs, one law build and one
scan each, a rank-one reset law stepping from one sequence to the next.

Random streams are derived from the config seed with fixed branch codes:
(1, outer_iteration, sequence, grid) for training grids and (3, n_states,
restart) for random initializations. Held-out scoring and the event
posteriors draw nothing.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterator, Sequence, TextIO

import numpy as np

from .core import (
    ALPHABET_KINDS,
    Alphabet,
    GeneratorMatrix,
    InputFormatError,
    NotStochastic,
    SmjpError,
    StochasticMatrix,
    derive_rng,
    index_alphabet,
    read_lines,
    validate_generator,
    write_text,
)
from .ctmc import TimeGrid, build_time_grid, expected_virtual, uniformize
from .events import EventSequence, split_chronological

# Probability mass on a structurally forbidden transition above this is an
# estimation bug rather than float noise.
STRUCTURAL_TOL = 1e-6

MODEL_HEADER = "smjp-model v1"

# Matrix entries (512 KiB of float64) per chunk of the held-out series
# weights, and per run of joined sequences as N^2 entries an event, which
# bounds their memory on long sequences and on many.
_REDUCE_BLOCK_ENTRIES = 1 << 16

# Grid steps per block of the filter-smoother's scan.
_SCAN_BLOCK = 8

# Smallest unit-scaled mass a block product of the scan may have: below
# it, its small entries could have lost bits to underflow, so the step
# loops take over.
_SCAN_FLOOR = float(np.sqrt(np.finfo(np.float64).tiny))

# Largest omega * dt the held-out series sums directly; a longer interval
# is halved until it fits and its law squared back.
_SERIES_CAP = 32.0

# Poisson tail mass the held-out series may leave out.
_SERIES_TAIL = 1e-30


class ZeroProbabilityObservation(SmjpError):
    """An observation has probability zero under every reachable state;
    ``step`` is the index of its step when known, which every public path
    names as its event."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class InconsistentShapes(SmjpError):
    """Posterior inputs do not match the model/grid dimensions."""


class EmptyStatistics(SmjpError):
    """No expected counts were accumulated before the update step."""


class StructureViolation(SmjpError):
    """A structurally-zero transition received non-negligible mass."""


class NonFiniteLikelihood(SmjpError):
    """The fitting loop produced a non-finite log-likelihood."""


class ModelFormatError(InputFormatError):
    """A serialized model document is malformed or has an unknown version."""


def _stochastic_rows(emission: np.ndarray) -> np.ndarray:
    """``emission`` itself, once every row along its last axis is checked
    to be a distribution (NaN entries fail the check)."""
    rows = emission.reshape(-1, emission.shape[-1])
    if not (rows.min(initial=0.0) >= -1e-12 and np.abs(rows.sum(axis=1) - 1.0).max(initial=0.0) <= 1e-10):
        raise NotStochastic("emission rows must be stochastic")
    return emission


@dataclass(frozen=True)
class SwitchingSMJP:
    """Full model: one generator per action, shared (or per-action)
    categorical emission matrix, and the uniformization rate.

    The discrete chains are derived, not stored: ``chain_stack[k]`` is
    always exactly ``I + generators[k]/omega``. ``structural_masks[k]``
    marks off-diagonal transitions constrained to zero rate.
    """

    states: Alphabet
    actions: Alphabet
    observations: Alphabet
    generators: tuple[GeneratorMatrix, ...]
    emission: np.ndarray
    omega: float
    structural_masks: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "emission", np.array(self.emission, dtype=np.float64, copy=True))
        n, k, o = len(self.states), len(self.actions), len(self.observations)
        if len(self.generators) != k:
            raise InconsistentShapes(f"expected {k} generators, got {len(self.generators)}")
        for g in self.generators:
            if g.n_states != n:
                raise InconsistentShapes("generator size does not match state alphabet")
        e = self.emission
        if e.shape not in ((n, o), (k, n, o)):
            raise InconsistentShapes(f"emission shape {e.shape} incompatible with (N={n}, K={k}, O={o})")
        _stochastic_rows(e)
        e.setflags(write=False)
        if not self.omega > 0:
            raise SmjpError(f"omega must be positive, got {float(self.omega)!r}")
        if not np.isfinite(self.omega):
            raise SmjpError(f"omega must be finite, got {float(self.omega)!r}")
        if self.structural_masks is not None:
            masks = tuple(np.array(m, dtype=bool, copy=True) for m in self.structural_masks)
            if len(masks) != k or any(m.shape != (n, n) for m in masks):
                raise InconsistentShapes("need one NxN mask per action")
            for m in masks:
                if np.any(np.diag(m)):
                    raise SmjpError("structural masks apply to off-diagonal entries only")
                m.setflags(write=False)
            object.__setattr__(self, "structural_masks", masks)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @property
    def n_observations(self) -> int:
        return len(self.observations)

    @property
    def per_action_emission(self) -> bool:
        return self.emission.ndim == 3

    @cached_property
    def chain_stack(self) -> np.ndarray:
        """(K, N, N) stack of uniformized single-step chains."""
        return np.stack([uniformize(g, self.omega).probs for g in self.generators])


@dataclass(frozen=True)
class ForwardBackwardResult:
    """Posterior quantities at the events of one sequence, stored as one
    ``_filter_smooth`` pass's (alpha_hat, c, beta_hat); the log filters,
    log smoothers (``log_beta[T-1]`` is zero), state marginals and
    log-likelihood are derived when first read. Transition-pair marginals
    are not formed; the E-step sums them in closed form."""

    alpha_hat: np.ndarray
    per_step_scaling: np.ndarray
    beta_hat: np.ndarray

    @cached_property
    def _log_c(self) -> np.ndarray:
        return np.cumsum(np.log(self.per_step_scaling))

    @cached_property
    def log_alpha(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.alpha_hat) + self._log_c[:, None]

    @cached_property
    def log_beta(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.beta_hat) + (self._log_c[-1] - self._log_c)[:, None]

    @cached_property
    def gamma(self) -> np.ndarray:
        return self.alpha_hat * self.beta_hat

    @cached_property
    def log_likelihood(self) -> float:
        return float(self._log_c[-1])


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the fitting loop; defaults follow the shipped pipeline.
    Construction checks each knob's range. Omega is not a knob: a random
    start takes the event rate, and the fit holds it. Held-out scores and
    event posteriors are exact and draw no grid, so ``eval_grids`` is
    accepted and range-checked, and read by nothing."""

    seed: int = 0
    inner_iterations: int = 10
    outer_cap: int = 200
    tol: float = 1e-4
    inner_tol: float = 1e-7
    grids_per_iteration: int = 1
    eval_grids: int = 5
    restarts: int = 5
    holdout_fraction: float = 0.2
    plateau_eps: float = 0.01
    emission_floor: float = 0.0
    per_action_emission: bool = False

    def __post_init__(self):
        for name, low in (("seed", 0), ("inner_iterations", 0), ("outer_cap", 0),
                          ("grids_per_iteration", 1), ("eval_grids", 1), ("restarts", 1)):
            if not getattr(self, name) >= low:
                raise SmjpError(f"{name} must be at least {low}, got {getattr(self, name)}")
        for name in ("tol", "inner_tol", "plateau_eps", "emission_floor"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise SmjpError(f"{name} must be finite and non-negative, got {float(getattr(self, name))!r}")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise SmjpError(f"holdout_fraction must be in [0, 1), got {float(self.holdout_fraction)!r}")


@dataclass(frozen=True)
class FitReport:
    final_model: SwitchingSMJP
    train_ll_trace: tuple[float, ...]
    inner_ll_traces: tuple[tuple[float, ...], ...]
    heldout_trace: tuple[float, ...]
    heldout_ll: float
    iterations: int
    converged: bool
    actions_without_data: tuple[int, ...] = ()


@dataclass
class SufficientStats:
    """Expected counts accumulated over one or more grids.

    ``trans[k]`` sums transition-pair posteriors over steps whose action
    is k; ``emit`` sums state posteriors per observed symbol (per action
    in the switched-emission variant); ``action_steps`` counts transition
    steps per action and doubles as the partitioning instrumentation.
    """

    trans: np.ndarray
    emit: np.ndarray
    action_steps: np.ndarray
    n_grids: int = 0

    @classmethod
    def zeros(cls, n_states: int, n_actions: int, n_observations: int, per_action_emission: bool = False) -> "SufficientStats":
        eshape = (n_actions, n_states, n_observations) if per_action_emission else (n_states, n_observations)
        return cls(
            trans=np.zeros((n_actions, n_states, n_states)),
            emit=np.zeros(eshape),
            action_steps=np.zeros(n_actions, dtype=np.int64),
        )


def _training_splits(sequences: Sequence[EventSequence], config: FitConfig) -> list[tuple[EventSequence, EventSequence]]:
    """Chronological (train, holdout) splits. A training part needs two
    events to carry a transition, and without an emission floor a symbol
    that occurs in no training part has probability zero under every
    fitted model, so it must not occur in a held-out tail either. With
    per-action emission the same holds for each (action, symbol) pair
    whose action occurs at training events; an action with none keeps its
    initial emission rows."""
    if not sequences:
        raise SmjpError("need at least one training sequence")
    splits = [split_chronological(s, config.holdout_fraction) for s in sequences]
    for seq, (train, _) in zip(sequences, splits):
        if len(train) < 2:
            raise SmjpError(f"sequence {seq.id!r} has {len(train)} training events, need at least 2")
    if config.emission_floor == 0:
        per_action = config.per_action_emission
        n_act = max(len(s.action_alphabet) for s in sequences) if per_action else 1
        seen = np.zeros((n_act, max(len(s.observation_alphabet) for s in sequences)), dtype=bool)
        for train, _ in splits:
            seen[train.actions if per_action else 0, train.observations] = True
        acted = seen.any(axis=1)
        for seq, (_, tail) in zip(sequences, splits):
            acts = tail.actions if per_action else np.zeros_like(tail.actions)
            unseen = np.flatnonzero(acted[acts] & ~seen[acts, tail.observations])
            if unseen.size:
                i = int(unseen[0])
                symbol = repr(seq.observation_alphabet.label(int(tail.observations[i])))
                if per_action:
                    symbol += f" under action {seq.action_alphabet.label(int(acts[i]))!r}"
                raise SmjpError(
                    f"observation {symbol} occurs only in the "
                    f"held-out part of sequence {seq.id!r}, so it has zero probability; "
                    "set emission_floor above 0 (--emission-floor or --config) to fit it"
                )
    return splits


def _check_alphabets(model: SwitchingSMJP, sequences: Sequence[EventSequence]) -> None:
    """Symbol indices mean the same labels in the sequences as in the model."""
    for seq in sequences:
        if seq.observation_alphabet.labels != model.observations.labels:
            raise InconsistentShapes(f"sequence {seq.id!r} observation alphabet differs from the model's")
        if seq.action_alphabet.labels != model.actions.labels:
            raise InconsistentShapes(f"sequence {seq.id!r} action alphabet differs from the model's")


def _emission_table(emission: np.ndarray, seq: EventSequence) -> np.ndarray:
    """(T, N) likelihood of each event's observation per state from an
    (N, O) or per-action (K, N, O) emission array."""
    cols = np.swapaxes(emission, -1, -2)
    return cols[seq.actions, seq.observations] if emission.ndim == 3 else cols[seq.observations]


def _filter_steps(chains: np.ndarray, e: np.ndarray, kidx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized forward pass, one grid step at a time; returns
    (alpha_hat, per-step normalizers). Names the first impossible step."""
    t, n = e.shape
    alpha = np.empty((t, n))
    c = np.empty(t)
    a = e[0] / n
    c0 = a.sum()
    if not (np.isfinite(c0) and c0 > 0):
        raise ZeroProbabilityObservation("observation at grid step 0 has zero likelihood", 0)
    alpha[0] = a / c0
    c[0] = c0
    for i in range(t - 1):
        v = (alpha[i] @ chains[kidx[i]]) * e[i + 1]
        ci = v.sum()
        if not (np.isfinite(ci) and ci > 0):
            raise ZeroProbabilityObservation(f"observation at grid step {i + 1} has zero likelihood", i + 1)
        alpha[i + 1] = v / ci
        c[i + 1] = ci
    return alpha, c


def _smooth_steps(chains: np.ndarray, e: np.ndarray, kidx: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Scaled backward pass, one grid step at a time."""
    t, n = e.shape
    beta = np.empty((t, n))
    beta[t - 1] = 1.0
    for i in range(t - 2, -1, -1):
        beta[i] = chains[kidx[i]] @ (e[i + 1] * beta[i + 1]) / c[i + 1]
    return beta


def _row_sums(v: np.ndarray) -> np.ndarray:
    """``v.sum(axis=1)`` of a (B, N) array with short rows, added column by
    column in the same order; numpy reduces short rows slowly."""
    s = v[:, 0].copy()
    for i in range(1, v.shape[1]):
        s += v[:, i]
    return s


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """``v`` with each row scaled to unit sum, in place."""
    v /= _row_sums(v)[:, None]
    return v


def _block_products(chains: np.ndarray, e: np.ndarray, kidx: np.ndarray) -> tuple[np.ndarray, ...]:
    """(steps, K, E, prods, mass): the T-1 grid steps in blocks of
    ``_SCAN_BLOCK``, the last padded with identity steps (emission ones),
    ``steps`` being ``chains`` and that identity. Lane-major, ``K[j, b]``
    and ``E[j, b]`` are the chain and next emission of step ``b*L + j``, so
    each in-block step is one batched operation over every block.
    ``prods[b]`` is block b's product of ``B_{k_i} diag(e_{i+1})`` over its
    ``mass``."""
    t, n = e.shape
    size = _SCAN_BLOCK
    nb = max(1, -(-(t - 1) // size))
    padded = nb * size
    steps = np.concatenate([chains, np.eye(n)[None]])
    K = np.full(padded, len(chains))
    K[: t - 1] = kidx[: t - 1]
    K = K.reshape(nb, size).T.copy()
    e_pad = np.ones((padded, n))
    e_pad[: t - 1] = e[1:]
    E = e_pad.reshape(nb, size, n).swapaxes(0, 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Three (nb, N, N) buffers: the product, the next one and the
        # gathered step, its columns scaled by the emission in place
        # ("wrap" lets take write into its buffer directly; K is in range).
        prods = np.take(steps, K[0], axis=0)
        prods *= E[0, :, None, :]
        out, step = np.empty_like(prods), np.empty_like(prods)
        for j in range(1, size):
            np.take(steps, K[j], axis=0, out=step, mode="wrap")
            step *= E[j, :, None, :]
            np.matmul(prods, step, out=out)
            prods, out = out, prods
        del out, step
        mass = prods.sum(axis=(1, 2))
        prods /= mass[:, None, None]
    return steps, K, E, prods, mass


def _up_sweep(prods: np.ndarray) -> tuple[list[np.ndarray], float]:
    """(levels, summed log scales) of the product tree over a chain of block
    products: each level multiplies neighbours, an odd last node passing up
    alone, and scales each product to unit sum; the last is the whole."""
    levels = [prods]
    log_scale = 0.0
    while len(levels[-1]) > 1:
        p = levels[-1]
        up = p[0 : len(p) - 1 : 2] @ p[1::2]
        scale = up.sum(axis=(1, 2))
        up /= scale[:, None, None]
        log_scale += np.log(scale).sum()
        levels.append(np.concatenate([up, p[-1:]]) if len(p) % 2 else up)
    return levels, log_scale


def _carry(levels: list[np.ndarray], first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Directions into and out of every block of a chain of block products
    by two down-sweeps over its :func:`_up_sweep` levels (Blelloch 1990;
    Sarkka and Garcia-Fernandez, IEEE TAC 2021): ``starts[b]`` is ``first @
    prods[0] @ .. @ prods[b-1]`` and ``ends[b]`` is ``prods[b+1] @ .. @
    prods[-1] @ 1``, each scaled to unit sum (``ends[-1]`` stays ones). A
    left child inherits its parent's prefix and a right child its parent's
    suffix; the other child's is the parent's times its sibling."""
    starts, ends = first[None], np.ones((1, first.size))
    for p in reversed(levels[:-1]):
        h = len(p) // 2
        pre = np.empty((len(p), first.size))
        pre[0::2] = starts
        pre[1::2] = _unit_rows(np.einsum("bi,bij->bj", starts[:h], p[0 : 2 * h : 2]))
        suf = np.empty_like(pre)
        suf[1::2] = ends[:h]
        suf[0 : 2 * h : 2] = _unit_rows(np.einsum("bij,bj->bi", p[1::2], ends[:h]))
        suf[2 * h :] = ends[h:]
        starts, ends = pre, suf
    return starts, ends


def _filter_smooth(chains: np.ndarray, e: np.ndarray, kidx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(alpha_hat, c, beta_hat) of one grid: the normalized forward pass,
    its per-step normalizers, and the backward pass scaled by them, so that
    alpha_hat * beta_hat is the state marginal directly.

    :func:`_block_products`, :func:`_up_sweep` and :func:`_carry` give
    alpha_hat at every block start and the smoother's direction at every
    block end; the step recursions then fill all blocks at once, the filter
    forward from the starts and the smoother back from the ends, each end
    scaled by ``alpha_hat . beta_hat = 1``. If a block product falls below
    ``_SCAN_FLOOR``, a normalizer is zero or non-finite, or the smoother is
    non-finite, the step loops rerun the grid and name the impossible step.
    """
    t, n = e.shape
    steps, K, E, prods, mass = _block_products(chains, e, kidx)
    size, nb = K.shape
    c = np.ones(K.size + 1)
    # Lane-major views: [j, b] is grid point b*L + j + 1 (C and A below)
    # or b*L + j (D below).
    C = c[1:].reshape(nb, size).T
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = e[0] / n
        c[0] = a.sum()
        starts, ends = _carry(_up_sweep(prods)[0], a / c[0])
        del prods
        # The outputs are made once the block products are gone.
        alpha = np.empty((K.size + 1, n))
        beta = np.empty_like(alpha)
        A = alpha[1:].reshape(nb, size, n).swapaxes(0, 1)
        D = beta[:-1].reshape(nb, size, n).swapaxes(0, 1)
        a = starts
        for j in range(size):
            v = np.einsum("bi,bij->bj", a, np.take(steps, K[j], axis=0))
            v *= E[j]
            C[j] = s = _row_sums(v)
            v /= s[:, None]
            A[j] = a = v
        alpha[:-1:size] = starts
        c[t:] = 1.0  # the padded steps' normalizers, not the filter's rounding of one
        ends[:-1] /= (starts[1:] * ends[:-1]).sum(axis=1, keepdims=True)
        v = ends
        for j in range(size - 1, -1, -1):
            v = np.einsum("bij,bj->bi", np.take(steps, K[j], axis=0), E[j] * v)
            v /= C[j, :, None]
            D[j] = v
        beta[size::size] = ends
    alpha, c, beta = alpha[:t], c[:t], beta[:t]
    if not (mass.min() >= _SCAN_FLOOR and np.isfinite(c).all() and (c > 0).all() and np.isfinite(beta).all()):
        alpha, c = _filter_steps(chains, e, kidx)
        beta = _smooth_steps(chains, e, kidx, c)
    return alpha, c, beta


def _loglik(chains: np.ndarray, e: np.ndarray, kidx: np.ndarray) -> float:
    """Log-likelihood of one grid from the scan's block products and
    up-sweep alone: the logs of the first normalizer, the block masses, the
    up-sweep's scales and the first direction through the whole product.
    Past the same checks as :func:`_filter_smooth`, the step filter reruns
    the grid and names an impossible observation."""
    n = e.shape[1]
    _, _, _, prods, mass = _block_products(chains, e, kidx)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        levels, log_scale = _up_sweep(prods)
        a = e[0] / n
        c0 = a.sum()
        ll = np.log(c0) + np.log(mass).sum() + log_scale + np.log((a / c0) @ levels[-1][0].sum(axis=1))
    if mass.min() >= _SCAN_FLOOR and np.isfinite(ll):
        return float(ll)
    _, c = _filter_steps(chains, e, kidx)
    return float(np.log(c).sum())


@contextmanager
def _named(run: Sequence[EventSequence]) -> Iterator[None]:
    """Names an impossible observation met while stepping from event to
    event through a run of joined sequences by its sequence and its event
    there."""
    try:
        yield
    except ZeroProbabilityObservation as exc:
        starts = np.cumsum([0] + [len(seq) for seq in run[:-1]])
        s = int(np.searchsorted(starts, exc.step, side="right")) - 1
        step = exc.step - int(starts[s])
        message = f"observation at event {step} of sequence {run[s].id!r} has zero likelihood"
        raise ZeroProbabilityObservation(message, step) from None


def forward_backward(model: SwitchingSMJP, seq: EventSequence) -> ForwardBackwardResult:
    """One full smoothing pass over a sequence's events via the scaled
    recursions, stepping from event i to i+1 by its interval law ``P_i =
    B_k expm(A_k dt_i)``, one law per distinct (action, dt). It is exact:
    its likelihood is :func:`held_out_loglik`'s and ``gamma`` the posterior
    over states at the events."""
    if not isinstance(seq, EventSequence):
        raise InconsistentShapes(f"forward_backward takes an EventSequence, got {type(seq).__name__}")
    (scaled,) = _on_events(model, [seq], _filter_smooth)
    return ForwardBackwardResult(*scaled)


def _powers(mats: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``mats[i]`` to the power ``r[i] >= 1`` for each matrix of a stack,
    by binary powering batched over the stack: one product per bit of the
    largest exponent."""
    out = np.broadcast_to(np.eye(mats.shape[-1]), mats.shape).copy()
    base = mats.copy()
    live = np.arange(r.size)
    bit = 0
    while live.size:
        odd = live[(r[live] >> bit) & 1 == 1]
        out[odd] = out[odd] @ base[odd]
        bit += 1
        live = live[(r[live] >> bit) > 0]
        base[live] = base[live] @ base[live]
    return out


def _groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, uniq, bounds) of the keys: ``order`` lists their positions
    stably by key, and those of key ``uniq[i]`` are ``order[bounds[i] :
    bounds[i + 1]]``."""
    order = np.argsort(keys, kind="stable")
    uniq, first = np.unique(keys[order], return_index=True)
    return order, uniq, np.append(first, order.size)


class _Runs:
    """Fixed grids read as runs, for the E-step.

    A run is a grid's interval from event i to event i+1: its ``r_i =
    counts_i + 1`` steps under the action of event i have the law
    ``B_k^r``, so the filter and the smoother visit only the events.
    ``law[g]`` indexes each of grid g's runs in the (action ``law_k``,
    length ``law_r``) pairs shared by all grids.
    """

    def __init__(self, grids: Sequence[TimeGrid], n_actions: int):
        self.n_actions = n_actions
        self.sequences = [grid.sequence for grid in grids]
        # Events by (symbol, action).
        self.emits = [_groups(seq.observations * n_actions + seq.actions) for seq in self.sequences]
        keys = [np.empty(0, dtype=np.int64)]
        keys += [(grid.counts + 1) * n_actions + grid.sequence.actions[:-1] for grid in grids]
        pairs, law = np.unique(np.concatenate(keys), return_inverse=True)
        self.law_k, self.law_r = pairs % n_actions, pairs // n_actions
        self.law = np.split(law, np.cumsum([k.size for k in keys])[1:-1])
        self.runs = [_groups(lg) for lg in self.law]
        n_runs = np.bincount(law, minlength=pairs.size)
        self.action_steps = np.bincount(self.law_k, self.law_r * n_runs, n_actions).astype(np.int64)

    def estep(self, chains: np.ndarray, emission: np.ndarray) -> tuple[SufficientStats, float]:
        """Expected counts over all grids under the working parameter
        arrays, and the summed grid log-likelihood.

        The pair posteriors of a run of r steps from event a to event b sum to
        ``B_k * S`` with ``S = sum_i (B_k^T)^i G (B_k^T)^(r-1-i)`` and
        ``G = alpha_hat_a^T @ w_b``, ``w = e * beta_hat / c``. S is linear
        in G, so the G of every run of one (k, r) pair are summed first and
        S is read off the top-right block of ``[[B_k^T, G], [0, B_k^T]]^r``
        (Van Loan 1978); for r = 1 it is G itself.
        """
        k, n, _ = chains.shape
        laws = _powers(chains[self.law_k], self.law_r)
        stats = SufficientStats.zeros(n, k, emission.shape[-1], emission.ndim == 3)
        block = np.zeros((self.law_r.size, 2 * n, 2 * n))
        ll = 0.0
        for g, seq in enumerate(self.sequences):
            e = _emission_table(emission, seq)
            with _named([seq]):
                alpha, c, beta = _filter_smooth(laws, e, self.law[g])
            ll += float(np.log(c).sum())
            # One gather per grid puts each law's runs next to each other.
            order, uniq, bounds = self.runs[g]
            w = (e[1:] * beta[1:] / c[1:, None])[order]
            starts = alpha[order]
            for j, lo, hi in zip(uniq, bounds[:-1], bounds[1:]):
                block[j, :n, n:] += starts[lo:hi].T @ w[lo:hi]
            del starts, w
            order, uniq, bounds = self.emits[g]
            sums = np.add.reduceat((alpha * beta)[order], bounds[:-1], axis=0) if uniq.size else ()
            for key, row in zip(uniq.tolist(), sums):
                o, a = divmod(key, self.n_actions)
                counts = stats.emit[a, :, o] if emission.ndim == 3 else stats.emit[:, o]
                counts += row
        block[:, :n, :n] = block[:, n:, n:] = chains[self.law_k].transpose(0, 2, 1)
        s = _powers(block, self.law_r)[:, :n, n:]
        np.add.at(stats.trans, self.law_k, chains[self.law_k] * s)
        stats.action_steps += self.action_steps
        stats.n_grids = len(self.sequences)
        return stats, ll


def m_step(
    stats: SufficientStats,
    chains_old: np.ndarray,
    emission_old: np.ndarray,
    emission_floor: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Reestimate chains and emission from expected counts.

    Transition rows and emission rows with no accumulated mass keep their
    previous values; an action with no steps at all leaves its whole chain
    untouched and is reported back.

    Raises
    ------
    EmptyStatistics
        If no grid contributed any transition step.
    """
    if stats.n_grids == 0 or stats.action_steps.sum() == 0:
        raise EmptyStatistics("no expected counts accumulated")
    k, n, _ = chains_old.shape
    new_chains = chains_old.copy()
    untouched = []
    for a in range(k):
        if stats.action_steps[a] == 0:
            untouched.append(a)
            continue
        denom = stats.trans[a].sum(axis=1)
        rows = denom > 0
        new_chains[a][rows] = stats.trans[a][rows] / denom[rows, None]
    new_emission = emission_old.copy()
    flat_counts = stats.emit.reshape(-1, stats.emit.shape[-1])
    flat_out = new_emission.reshape(-1, new_emission.shape[-1])
    denom = flat_counts.sum(axis=1)
    rows = denom > 0
    if emission_floor > 0:
        floored = flat_counts[rows] + emission_floor
        flat_out[rows] = floored / floored.sum(axis=1, keepdims=True)
    else:
        flat_out[rows] = flat_counts[rows] / denom[rows, None]
    return new_chains, new_emission, tuple(untouched)


def update_generator(
    b_new: StochasticMatrix | np.ndarray,
    omega_old: float,
    structural_mask: np.ndarray | None = None,
) -> GeneratorMatrix:
    """Map a reestimated discrete chain back to a generator.

    ``A = (B - I) * omega``; off-diagonal entries under the structural
    mask must carry at most ``STRUCTURAL_TOL`` probability, and whatever
    float dust they hold is folded back into the diagonal so the
    constraint stays exact.

    Raises
    ------
    StructureViolation, NotStochastic
    """
    b = b_new.probs if isinstance(b_new, StochasticMatrix) else np.asarray(b_new, dtype=np.float64)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise InconsistentShapes(f"chain must be square, got {b.shape}")
    sums = b.sum(axis=1)
    if np.abs(sums - 1.0).max(initial=0.0) > 1e-8 or b.min(initial=0.0) < -1e-12:
        raise NotStochastic("updated chain is not row-stochastic")
    if omega_old <= 0:
        raise SmjpError(f"omega must be positive, got {omega_old!r}")
    b = b / sums[:, None]
    if structural_mask is not None:
        mask = np.asarray(structural_mask, dtype=bool)
        off = mask & ~np.eye(b.shape[0], dtype=bool)
        if np.any(b[off] > STRUCTURAL_TOL):
            worst = float(b[off].max())
            raise StructureViolation(f"masked transition carries probability {worst!r}")
        b = b.copy()
        moved = np.where(off, b, 0.0).sum(axis=1)
        b[off] = 0.0
        b[np.diag_indices_from(b)] += moved
    return validate_generator((b - np.eye(b.shape[0])) * omega_old)


def inner_em(
    model: SwitchingSMJP,
    grids: Sequence[TimeGrid],
    config: FitConfig,
) -> tuple[np.ndarray, np.ndarray, tuple[float, ...], tuple[int, ...]]:
    """Discrete-chain EM on fixed grids.

    Returns the working (chains, emission) arrays, the log-likelihood of
    the parameters entering each pass (non-decreasing), and the actions
    that never appeared in the grids.
    """
    chains = model.chain_stack.copy()
    emission = np.array(model.emission, copy=True)
    trace: list[float] = []
    untouched: tuple[int, ...] = ()
    runs = _Runs(grids, model.n_actions)
    for _ in range(config.inner_iterations):
        stats, ll = runs.estep(chains, emission)
        chains, emission, untouched = m_step(stats, chains, emission, config.emission_floor)
        trace.append(ll)
        if len(trace) >= 2:
            rel = abs(trace[-1] - trace[-2]) / max(1.0, abs(trace[-2]))
            if rel < config.inner_tol:
                break
    return chains, emission, tuple(trace), untouched


def rebuild_model(model: SwitchingSMJP, chains: np.ndarray, emission: np.ndarray) -> SwitchingSMJP:
    """Fold reestimated chains into new generators at the model's omega,
    which stays valid: ``A = (B - I) * omega`` has exit rates <= omega."""
    masks = model.structural_masks or (None,) * model.n_actions
    gens = tuple(update_generator(chains[a], model.omega, masks[a]) for a in range(model.n_actions))
    return replace(model, generators=gens, emission=emission)


def _power_table(chains: np.ndarray, top: int) -> np.ndarray:
    """(K, top + 1, N*N) powers ``B_k^0 .. B_k^top`` of each chain,
    flattened, by doubling: each pass multiplies the powers known so far
    by the largest one."""
    k, n, _ = chains.shape
    table = np.empty((k, top + 1, n, n))
    table[:, 0] = np.eye(n)
    table[:, 1] = chains
    p = 1
    while p < top:
        hi = min(2 * p, top)
        table[:, p + 1 : hi + 1] = table[:, 1 : hi - p + 1] @ table[:, p, None]
        p = hi
    return table.reshape(k, top + 1, n * n)


def _poisson_weights(lam: np.ndarray, terms: int) -> np.ndarray:
    """(len(lam), terms) Poisson probabilities of 0 .. terms - 1 arrivals
    at each mean, from ``m log(lam) - lam - log(m!)``."""
    m = np.arange(terms)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(m[1:]))))
    w = np.log(np.maximum(lam, np.finfo(np.float64).tiny))[:, None] * m
    w -= lam[:, None]
    w -= log_fact
    return np.exp(w, out=w)


def _interval_laws(
    chains: np.ndarray, table: np.ndarray, lam: np.ndarray, acts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(laws, index): one ``P = B_k expm(A_k dt)`` per distinct (action,
    mean) among the intervals, and the law ``laws[index[i]]`` of interval
    i, whose action is ``k = acts[i]`` and mean ``lam[i] = omega dt_i``.
    Each law is Jensen's uniformization series ``sum_m Pois(m; lam)
    B_k^(m+1)`` truncated to the table. The laws follow their intervals'
    first appearance, so on distinct intervals ``index`` is ``arange``.

    An interval whose mean exceeds ``_SERIES_CAP`` is evaluated at
    ``dt / 2^s`` instead, and its ``expm`` factor squared back s times
    before B_k is applied. Every term is non-negative, so nothing cancels.
    The laws are summed in chunks of increasing mean within each (action,
    squared) group, each cut where the Poisson tail of its largest mean
    falls below ``_SERIES_TAIL``; that order puts equal intervals next to
    each other.
    """
    n = chains.shape[1]
    terms = table.shape[1] - 1
    shrink = np.ceil(np.log2(np.maximum(lam / _SERIES_CAP, 1.0))).astype(np.int64)
    squared = shrink > 0
    rows = max(1, _REDUCE_BLOCK_ENTRIES // terms)
    # Intervals by (action, squared) group, then by increasing mean.
    group = (2 * acts + squared).astype(np.int16)
    halved = np.ldexp(lam, -shrink)
    order = np.argsort(lam, kind="stable")
    order = order[np.argsort(group[order], kind="stable")]
    by_group, by_mean = group[order], lam[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (by_group[1:] != by_group[:-1]) | (by_mean[1:] != by_mean[:-1])
    reps = order[new]
    bounds = np.searchsorted(by_group[new], np.arange(2 * len(chains) + 1))
    index = np.arange(lam.size)
    if reps.size < lam.size:
        # Laws are numbered by their first interval; first[i] is the
        # interval whose law interval i takes.
        first = np.empty_like(index)
        first[order] = reps[np.cumsum(new) - 1]
        own = np.flatnonzero(first == index)
        index[own] = np.arange(own.size)
        reps, index = index[reps], index[first]
        halved, shrink, squared, acts = halved[own], shrink[own], squared[own], acts[own]
    series = (table[:, 1:], table[:, :-1])  # the powers of an unsquared and a squared law
    cuts = [(lo, min(lo + rows, hi), g) for g, (start, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
            for lo in range(start, hi, rows)]
    chunks = [(reps[lo:hi], series[g % 2][g // 2]) for lo, hi, g in cuts]
    # A squared group's halved means need not increase, so each chunk is
    # cut at the tail of its largest.
    tops = np.maximum.reduceat(halved[reps], [lo for lo, _, _ in cuts]) if cuts else np.empty(0)
    tails = np.cumsum(_poisson_weights(tops, terms)[:, ::-1], axis=1)
    laws = np.empty((halved.size, n * n))
    for (part, powers), m in zip(chunks, np.count_nonzero(tails >= _SERIES_TAIL, axis=1)):
        laws[part] = _poisson_weights(halved[part], m) @ powers[:m]
    laws = laws.reshape(-1, n, n)
    idx = np.flatnonzero(squared)
    if idx.size:
        f = laws[idx]
        for j in range(int(shrink.max())):
            more = shrink[idx] > j
            f[more] = f[more] @ f[more]
        laws[idx] = chains[acts[idx]] @ f
    return laws, index


def _on_events(model: SwitchingSMJP, sequences: Sequence[EventSequence], core: Callable) -> Iterator:
    """``core(laws, e, index)`` of each run of the sequences in turn: its
    interval laws (see :func:`_interval_laws`, one table of chain powers
    shared by all runs), emission table and law index, every sequence
    checked first. An impossible observation is named by its event and
    its sequence.

    A run joins consecutive sequences of at most ``_REDUCE_BLOCK_ENTRIES //
    N^2`` events in all, a longer sequence making a run alone, and steps
    from the last event of one to the first of the next by the reset law
    ``1 (1/N)^T``: the filter sums to one, so the next sequence starts
    uniform, and the run scores the sum of its sequences' scores.
    """
    _check_alphabets(model, sequences)
    lams = []
    for seq in sequences:
        if len(seq) == 0:
            raise InconsistentShapes(f"sequence {seq.id!r} has no events")
        lams.append(expected_virtual(seq.times, model.omega, seq.id))
    chains, n = model.chain_stack, model.n_states
    peak = min(max((float(lam.max()) for lam in lams if lam.size), default=0.0), _SERIES_CAP)
    # The Poisson tail beyond peak + 10 sd + 40 is below _SERIES_TAIL.
    table = _power_table(chains, int(peak + 10.0 * np.sqrt(peak)) + 41)
    cap = _REDUCE_BLOCK_ENTRIES // (n * n)
    cuts = [0]
    events = 0
    for i, seq in enumerate(sequences):
        if events and events + len(seq) > cap:
            cuts.append(i)
            events = 0
        events += len(seq)
    cuts.append(len(sequences))
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        run = sequences[lo:hi]
        laws, index = _interval_laws(chains, table, np.concatenate(lams[lo:hi]),
                                     np.concatenate([seq.actions[:-1] for seq in run]))
        if len(run) > 1:
            # The reset steps go between each sequence's last interval
            # and the next sequence's first.
            ends = np.cumsum([len(seq) - 1 for seq in run[:-1]])
            index = np.insert(index, ends, len(laws))
            laws = np.concatenate([laws, np.full((1, n, n), 1.0 / n)])
        e = np.concatenate([_emission_table(model.emission, seq) for seq in run])
        with _named(run):
            result = core(laws, e, index)
        yield result


def held_out_loglik(
    model: SwitchingSMJP, sequences: Sequence[EventSequence], config: FitConfig | None = None
) -> float:
    """Sum over sequences of the exact event-level log-likelihood.

    Between events i and i+1 the law is ``P_i = B_k expm(A_k dt_i)`` with
    k the action at event i: the mean of a uniformization grid's steps
    there. Consecutive sequences are joined into runs of at most
    ``_REDUCE_BLOCK_ENTRIES // N^2`` events (a longer sequence runs
    alone); each distinct ``P_i`` of a run is built once from Jensen's
    series over one table of chain powers shared by every run, and the
    run is scored by :func:`_loglik` on the filter-smoother's scan, the
    sum of its sequences' scores to rounding. No grid is drawn, so the
    score reads neither ``config.seed`` nor ``config.eval_grids``
    (``config`` is accepted for callers that pass one), and duplicating a
    sequence doubles it to rounding.
    """
    if not sequences:
        raise SmjpError("need at least one sequence to evaluate")
    return sum(_on_events(model, sequences, _loglik), 0.0)


def fit(init: SwitchingSMJP, sequences: Sequence[EventSequence], config: FitConfig) -> FitReport:
    """Outer uniformization-EM loop from an explicit starting model.

    Each sequence is split chronologically; the trailing
    ``config.holdout_fraction`` is only ever used for the stopping rule
    and the reported held-out log-likelihood. ``heldout_trace`` scores
    each model the loop builds by its exact log-likelihood on the
    held-out parts, or on the training parts when there are none; its
    last entry is the score restarts and state counts are compared by.
    With ``inner_iterations == 0`` (or ``outer_cap == 0``) the model is
    returned unchanged with its one score.
    """
    _check_alphabets(init, sequences)
    splits = _training_splits(sequences, config)
    train = [h for h, _ in splits]
    holdout = [t for _, t in splits if len(t) > 0]

    if config.inner_iterations == 0 or config.outer_cap == 0:
        score = held_out_loglik(init, holdout or train)
        return FitReport(init, (), (), (score,), score if holdout else float("nan"), 0, False)

    # Omega is fixed through the fit, so each training part's grid draws
    # are checked once here, an overflowing interval named by its sequence.
    for seq in train:
        expected_virtual(seq.times, init.omega, seq.id)
    model = init
    train_trace: list[float] = []
    inner_traces: list[tuple[float, ...]] = []
    heldout_trace: list[float] = []
    no_data: set[int] = set()
    converged = False
    streak = 0
    iterations = 0
    for outer in range(config.outer_cap):
        grids = [
            build_time_grid(seq, model.omega, derive_rng(config.seed, 1, outer, si, g))
            for si, seq in enumerate(train)
            for g in range(config.grids_per_iteration)
        ]
        chains, emission, trace, untouched = inner_em(model, grids, config)
        no_data.update(untouched)
        model = rebuild_model(model, chains, emission)
        hll = held_out_loglik(model, holdout or train)
        if not np.isfinite(hll):
            raise NonFiniteLikelihood(f"non-finite held-out log-likelihood at outer iteration {outer}")
        train_trace.append(trace[-1])
        inner_traces.append(trace)
        heldout_trace.append(hll)
        iterations = outer + 1
        if outer >= 1:
            rel = abs(heldout_trace[-1] - heldout_trace[-2]) / max(1.0, abs(heldout_trace[-2]))
            streak = streak + 1 if rel < config.tol else 0
            if streak >= 2:
                converged = True
                break
    heldout_ll = heldout_trace[-1] if holdout else float("nan")
    return FitReport(
        final_model=model,
        train_ll_trace=tuple(train_trace),
        inner_ll_traces=tuple(inner_traces),
        heldout_trace=tuple(heldout_trace),
        heldout_ll=heldout_ll,
        iterations=iterations,
        converged=converged,
        actions_without_data=tuple(sorted(no_data)),
    )


def init_random_model(
    n_states: int,
    observation_alphabet: Alphabet,
    action_alphabet: Alphabet,
    config: FitConfig,
    seed_branch: tuple[int, ...],
    event_rate: float,
) -> SwitchingSMJP:
    """Random restart: flat-Dirichlet chains and emission, with the data's
    empirical event rate as omega."""
    rng = derive_rng(config.seed, *seed_branch)
    n, k, o = n_states, len(action_alphabet), len(observation_alphabet)
    chains = np.stack([rng.dirichlet(np.ones(n), size=n) for _ in range(k)])
    if config.per_action_emission:
        emission = np.stack([rng.dirichlet(np.ones(o), size=n) for _ in range(k)])
    else:
        emission = rng.dirichlet(np.ones(o), size=n)
    gens = tuple(update_generator(chains[a], event_rate) for a in range(k))
    return SwitchingSMJP(
        states=index_alphabet("state", n, "s"),
        actions=action_alphabet,
        observations=observation_alphabet,
        generators=gens,
        emission=emission,
        omega=event_rate,
    )


def fit_best(sequences: Sequence[EventSequence], n_states: int, config: FitConfig) -> FitReport:
    """Run ``config.restarts`` independent random initializations and keep
    the fit with the best held-out log-likelihood."""
    _training_splits(sequences, config)
    if n_states < 1:
        raise SmjpError(f"n_states must be at least 1, got {n_states}")
    rate = float(np.mean([s.event_rate for s in sequences]))
    best: FitReport | None = None
    for r in range(config.restarts):
        init = init_random_model(
            n_states,
            sequences[0].observation_alphabet,
            sequences[0].action_alphabet,
            config,
            (3, n_states, r),
            rate,
        )
        report = fit(init, sequences, config)
        if best is None or report.heldout_trace[-1] > best.heldout_trace[-1]:
            best = report
    return best


@dataclass(frozen=True)
class StateSelection:
    n_values: tuple[int, ...]
    heldout_lls: tuple[float, ...]
    chosen_n: int
    reports: dict[int, FitReport]
    failures: dict[int, str]


def select_num_states(
    sequences: Sequence[EventSequence],
    n_range: Sequence[int],
    config: FitConfig,
) -> StateSelection:
    """Fit one model per candidate state count and pick the plateau point.

    The chosen count is the smallest one whose held-out log-likelihood is
    within ``config.plateau_eps`` of the curve's range below the maximum;
    ties therefore resolve toward fewer states. Candidate counts whose fit
    fails are recorded and skipped.
    """
    n_values = list(n_range)
    if not n_values or any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise SmjpError("state-count range must be non-empty and ascending")
    if n_values[0] < 1:
        raise SmjpError(f"n_states must be at least 1, got {n_values[0]}")
    _training_splits(sequences, config)
    lls: list[float] = []
    reports: dict[int, FitReport] = {}
    failures: dict[int, str] = {}
    for n in n_values:
        try:
            rep = fit_best(sequences, n, config)
        except SmjpError as exc:
            failures[n] = str(exc)
            lls.append(float("nan"))
            continue
        reports[n] = rep
        lls.append(rep.heldout_trace[-1])
    finite = [(n, ll) for n, ll in zip(n_values, lls) if np.isfinite(ll)]
    if not finite:
        raise NonFiniteLikelihood("every candidate state count failed")
    values = np.array([ll for _, ll in finite])
    # Floor the plateau width at float resolution of the likelihood so a
    # genuinely flat curve resolves to the smallest candidate.
    eps = max(
        config.plateau_eps * float(values.max() - values.min()),
        1e-9 * max(1.0, float(np.abs(values).max())),
    )
    cutoff = values.max() - eps
    chosen = next(n for n, ll in finite if ll >= cutoff)
    return StateSelection(tuple(n_values), tuple(lls), chosen, reports, failures)


# ---------------------------------------------------------------------------
# Serialization: one self-describing text document per model.

def _block(title: str, rows: np.ndarray) -> list[str]:
    return [title] + [" ".join(repr(float(x)) for x in row) for row in rows]


def model_text(model: SwitchingSMJP, metadata: dict[str, str] | None = None) -> str:
    """The versioned text document for a model.

    Floats are written with shortest round-trip repr, so save -> load ->
    save is byte-identical for all finite values.
    """
    lines = [
        MODEL_HEADER,
        "states: " + " ".join(model.states.labels),
        "actions: " + " ".join(model.actions.labels),
        "observations: " + " ".join(model.observations.labels),
        f"omega: {model.omega!r}",
    ]
    for a, gen in zip(model.actions.labels, model.generators):
        lines += _block(f"generator {a}:", gen.rates)
    if model.per_action_emission:
        for a, emission in zip(model.actions.labels, model.emission):
            lines += _block(f"emission {a}:", emission)
    else:
        lines += _block("emission:", model.emission)
    for a, mask in zip(model.actions.labels, model.structural_masks or ()):
        lines += [f"mask {a}:"] + [" ".join("1" if x else "0" for x in row) for row in mask]
    lines += [f"meta {key}: {value}" for key, value in (metadata or {}).items()] + ["end"]
    return "\n".join(lines) + "\n"


def save_model(model: SwitchingSMJP, target: str | TextIO, metadata: dict[str, str] | None = None) -> None:
    """Write :func:`model_text` to a path or an open stream."""
    write_text(target, model_text(model, metadata))


def load_model(source: str | TextIO) -> tuple[SwitchingSMJP, dict[str, str]]:
    """Parse a model document written by :func:`save_model`. Errors name
    the line at fault, or the line after the last when the file ends early;
    a matrix that breaks a model invariant is named by its title line."""
    name, lines = read_lines(source)
    if not lines or lines[0] != MODEL_HEADER:
        raise ModelFormatError(name, 1, f"expected {MODEL_HEADER!r} on the first line")
    pos = 1  # lines read so far

    def peek() -> str:
        return lines[pos] if pos < len(lines) else ""

    def take(prefix: str = "", expected: str = "") -> str:
        """The next line, which must start with ``prefix``: the rest, stripped."""
        nonlocal pos
        pos += 1
        expected = expected or repr(prefix)
        if pos > len(lines):
            raise ModelFormatError(name, pos, f"file ended early, expected {expected}")
        if not lines[pos - 1].startswith(prefix):
            raise ModelFormatError(name, pos, f"expected {expected}, got {lines[pos - 1]!r}")
        return lines[pos - 1][len(prefix):].strip()

    def read_matrix(rows: int, cols: int) -> np.ndarray:
        out = np.empty((rows, cols))
        for r in range(rows):
            parts = take(expected=f"a row of {cols} numbers").split()
            if len(parts) != cols:
                raise ModelFormatError(name, pos, f"expected {cols} columns, got {len(parts)}")
            try:
                out[r] = [float(x) for x in parts]
            except ValueError:
                raise ModelFormatError(name, pos, f"bad number in row {lines[pos - 1]!r}") from None
        return out

    def read_block(title: str, rows: int, cols: int, build):
        """``build`` applied to the matrix under the line ``title``."""
        take(title)
        start = pos
        matrix = read_matrix(rows, cols)
        try:
            return build(matrix)
        except SmjpError as exc:
            raise ModelFormatError(name, start, f"{title} {exc}") from None

    try:
        states, actions, observations = (Alphabet(kind, tuple(take(f"{kind}s:").split())) for kind in ALPHABET_KINDS)
        omega = float(take("omega:"))
    except ModelFormatError:
        raise
    except (ValueError, SmjpError) as exc:
        raise ModelFormatError(name, pos, f"bad model header: {exc}") from None
    n, o = len(states), len(observations)

    gens = tuple(read_block(f"generator {label}:", n, n, GeneratorMatrix) for label in actions.labels)
    if not peek().startswith("emission "):
        emission = read_block("emission:", n, o, _stochastic_rows)
    else:
        emission = np.stack([read_block(f"emission {label}:", n, o, _stochastic_rows) for label in actions.labels])
    masks = None
    if peek().startswith("mask "):
        masks = tuple(read_block(f"mask {label}:", n, n, lambda m: m.astype(bool)) for label in actions.labels)
    metadata: dict[str, str] = {}
    while peek().startswith("meta "):
        key, sep, value = take("meta ", "'meta key: value'").partition(":")
        if not sep:
            raise ModelFormatError(name, pos, f"bad metadata line {lines[pos - 1]!r}")
        metadata[key.strip()] = value.strip()
    if take(expected="'end'") != "end":
        raise ModelFormatError(name, pos, f"missing 'end' terminator, got {lines[pos - 1]!r}")
    try:
        model = SwitchingSMJP(states, actions, observations, gens, emission, omega, masks)
    except SmjpError as exc:
        raise ModelFormatError(name, None, str(exc)) from None
    return model, metadata
