"""Post-fit interpretation tools.

Given a fitted model and ground truth (when simulated), this module builds
the empirical joint over model states and agent states, coarse-grains it
by information-theoretic co-clustering, composes action operators and
extracts their modularity subgraphs, and tests inter-event intervals
against an exponential law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import SmjpError, StochasticMatrix, derive_rng
# Nothing here builds a grid; the name stays bound because the benchmark's
# tracer (perfbench/tracer.py) hooks ``smjp.analysis.build_time_grid``.
from .ctmc import build_time_grid  # noqa: F401
from .events import EventSequence
from .switching import FitConfig, SwitchingSMJP, forward_backward


class EmptyGraph(SmjpError):
    """Thresholding removed every edge of the operator graph."""


# ---------------------------------------------------------------------------
# Correspondence between model states and agent states.

@dataclass(frozen=True)
class CorrespondenceMatrix:
    """Time-averaged joint distribution over (model state, agent state).

    ``conditional[s]`` is P(agent state | model state s); rows for model
    states that never carry mass are flagged in ``zero_rows`` and left as
    zero vectors.
    """

    joint: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray
    conditional: np.ndarray
    zero_rows: tuple[int, ...]


def state_correspondence(model_posterior: np.ndarray, agent_posterior: np.ndarray) -> CorrespondenceMatrix:
    """Average the outer product of two aligned posterior streams.

    Both arrays must have one row per shared time point; rows are
    probability vectors (one-hot when the agent state is fully known).
    """
    g = np.asarray(model_posterior, dtype=np.float64)
    z = np.asarray(agent_posterior, dtype=np.float64)
    if g.ndim != 2 or z.ndim != 2 or g.shape[0] != z.shape[0] or g.shape[0] == 0:
        raise SmjpError(f"posterior shapes {g.shape} and {z.shape} do not share a grid")
    for name, arr in (("model", g), ("agent", z)):
        if np.abs(arr.sum(axis=1) - 1.0).max() > 1e-6 or arr.min() < -1e-12:
            raise SmjpError(f"{name} posterior rows must be distributions")
    joint = g.T @ z / g.shape[0]
    row = joint.sum(axis=1)
    col = joint.sum(axis=0)
    conditional = np.zeros_like(joint)
    nz = row > 0
    conditional[nz] = joint[nz] / row[nz, None]
    zero_rows = tuple(int(i) for i in np.nonzero(~nz)[0])
    return CorrespondenceMatrix(joint, row, col, conditional, zero_rows)


def event_state_posterior(model: SwitchingSMJP, seq: EventSequence, config: FitConfig | None = None) -> np.ndarray:
    """Posterior state marginals at the event times: the exact event-level
    smoother, ``forward_backward(model, seq).gamma``. It draws nothing, so
    it reads no knob of ``config`` (accepted for callers that pass one)."""
    return forward_backward(model, seq).gamma


# ---------------------------------------------------------------------------
# Information-theoretic co-clustering.

@dataclass(frozen=True)
class CoClustering:
    row_assignment: np.ndarray
    col_assignment: np.ndarray
    n_row_clusters: int
    n_col_clusters: int
    mutual_information_loss: float


def _mutual_informations(stack: np.ndarray) -> list[float]:
    """MI in nats of each (rows, cols) slice of a stack of joints with
    positive mass; each slice sums only its nonzero cells."""
    p = stack / stack.sum(axis=(1, 2), keepdims=True)
    outer = p.sum(axis=2)[:, :, None] * p.sum(axis=1)[:, None, :]
    nz = p > 0
    terms = p[nz] * np.log(p[nz] / outer[nz])
    ends = np.cumsum(nz.sum(axis=(1, 2))).tolist()
    return [float(np.add.reduce(terms[a:b])) for a, b in zip([0] + ends, ends)]


def _checked_joint(joint: np.ndarray | CorrespondenceMatrix) -> np.ndarray:
    p = joint.joint if isinstance(joint, CorrespondenceMatrix) else np.asarray(joint, dtype=np.float64)
    if p.ndim != 2 or not np.isfinite(p).all() or np.any(p < 0):
        raise SmjpError("joint must be a finite non-negative matrix")
    with np.errstate(over="ignore"):
        if not np.isfinite(p.sum()):
            raise SmjpError("joint's total mass overflows")
    return p


def mutual_information(joint: np.ndarray) -> float:
    """MI of a joint distribution in nats; zero cells contribute zero."""
    p = _checked_joint(joint)
    if p.sum() <= 0:
        raise SmjpError("joint distribution has zero mass")
    return _mutual_informations(p[None])[0]


def _clustered(joint: np.ndarray, rows: np.ndarray, cols: np.ndarray, kr: int, kc: int) -> np.ndarray:
    """Cluster aggregates of a stack of assignments (rows ``(L, ns)``, cols
    ``(L, nz)``) as an ``(L, kr, kc)`` stack; every cell adds its joint
    cells in row-major order."""
    agg = np.zeros((rows.shape[0], kr, kc))
    lane = np.arange(rows.shape[0])[:, None, None]
    np.add.at(agg, (lane, rows[:, :, None], cols[:, None, :]), joint)
    return agg


def _init_assignment(n: int, k: int, live: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random start covering all k clusters with live rows; zero-mass rows
    fill any clusters that would stay empty (ascending, deterministic) and
    the rest pin to the last cluster. A random permutation of the live rows
    deals the first k to clusters 0..k-1 and draws a cluster for each of
    the rest."""
    out = np.full(n, k - 1, dtype=np.int64)
    live_idx = np.nonzero(live)[0]
    dead_idx = np.nonzero(~live)[0]
    if n < k:
        raise SmjpError(f"cannot form {k} clusters from {n} rows")
    perm = rng.permutation(live_idx)
    out[perm[:k]] = np.arange(min(k, perm.size))
    out[perm[k:]] = rng.integers(k, size=max(perm.size - k, 0))
    missing = np.arange(live_idx.size, k)
    if missing.size > dead_idx.size:
        raise SmjpError(f"only {live_idx.size} rows carry mass; cannot cover {k} clusters")
    out[dead_idx[: missing.size]] = missing
    return out


# A move whose closed-form MI change beats every other candidate's by more
# than this is taken as is: both forms are good to about 1e-14, so the
# exact scan would pick it too. Closer calls go to the exact scan.
_SCREEN_GAP = 1e-9

# Sweeps a restart may take before it stops where it is.
_MAX_SWEEPS = 200


def _row_terms(rows: np.ndarray) -> np.ndarray:
    """The part of MI that each aggregate row decides alone: the sum of
    v log v over its cells minus m log m of its mass m. Zeros and rounding's
    tiny negatives count as (within 1e-305 of) zero."""
    cells = np.maximum(rows, np.finfo(np.float64).tiny)
    mass = np.maximum(rows.sum(axis=-1), np.finfo(np.float64).tiny)
    return (cells * np.log(cells)).sum(axis=-1) - mass * np.log(mass)


def _exact_choice(agg: np.ndarray, base: np.ndarray, x: np.ndarray, cur: int) -> int:
    """Best cluster for an element with contribution ``x`` now in ``cur``
    (``base`` is ``agg[cur]`` without it), by the exact MI of each of the k
    trial aggregates; ties within 1e-15 go to the first, or to ``cur``."""
    k = agg.shape[0]
    diag = np.arange(k)
    # trial[c] is agg with the element moved from cluster cur to cluster c.
    trial = np.repeat(agg[None], k, axis=0)
    trial[:, cur] = base
    trial[diag, diag] += x
    best_c, best_mi = cur, None
    for c, mi in enumerate(_mutual_informations(trial)):
        if best_mi is None or mi > best_mi + 1e-15:
            best_mi, best_c = mi, c
        elif abs(mi - best_mi) <= 1e-15 and c == cur:
            best_c = cur
    return best_c


def _sweep_lanes(
    q: np.ndarray, assign: np.ndarray, other: np.ndarray, k: np.ndarray, k_other: np.ndarray
) -> np.ndarray:
    """One pass of single-row reassignments over the rows of ``q`` (pass
    ``q.T`` to sweep columns), in every lane at once. Lane l puts the rows
    in ``k[l]`` clusters by ``assign[l]`` and the columns in ``k_other[l]``
    by ``other[l]``; ``q`` has no zero-mass row or column. Never empties a
    cluster. Updates ``assign`` in place; returns which lanes moved a row."""
    n_lanes, n = assign.shape
    moved = np.zeros(n_lanes, dtype=bool)
    if k.max() == 1:
        return moved
    lane = np.arange(n_lanes)
    # Row contributions summed over the other axis's clusters, and the
    # cluster aggregates, padded to the widest lane with zeros.
    contrib = np.zeros((n_lanes, n, k_other.max()))
    np.add.at(contrib, (lane[:, None, None], np.arange(n)[:, None], other[:, None, :]), q)
    agg = np.zeros((n_lanes, k.max(), contrib.shape[2]))
    np.add.at(agg, (lane[:, None], assign), contrib)
    sizes = (assign[:, :, None] == np.arange(agg.shape[1])).sum(axis=1)
    terms = _row_terms(agg)
    # Clusters a lane does not have are never candidates.
    absent = np.where(np.arange(agg.shape[1]) < k[:, None], 0.0, -np.inf)
    for i in range(n):
        cur = assign[:, i]
        x = contrib[:, i]
        base = agg[lane, cur] - x
        joined = agg + x[:, None]
        base_terms = _row_terms(base)
        joined_terms = _row_terms(joined)
        # gain[l, c]: MI change of moving the row from cur to c. Only rows
        # cur and c of the aggregate change, and no column mass moves.
        gain = joined_terms - terms + absent + (base_terms - terms[lane, cur])[:, None]
        gain[lane, cur] = 0.0
        best = gain.argmax(axis=1)
        top_two = np.sort(gain, axis=1)[:, -2:]
        can = sizes[lane, cur] > 1
        for l in np.nonzero(can & (top_two[:, 1] - top_two[:, 0] <= _SCREEN_GAP))[0]:
            best[l] = _exact_choice(agg[l, : k[l], : k_other[l]], base[l, : k_other[l]], x[l, : k_other[l]], cur[l])
        go = np.nonzero(can & (best != cur))[0]
        if not go.size:
            continue
        c_from, c_to = cur[go], best[go]
        agg[go, c_from], terms[go, c_from] = base[go], base_terms[go]
        agg[go, c_to], terms[go, c_to] = joined[go, c_to], joined_terms[go, c_to]
        sizes[go, c_from] -= 1
        sizes[go, c_to] += 1
        assign[go, i] = c_to
        moved[go] = True
    return moved


def _coclusterings(
    joint: np.ndarray | CorrespondenceMatrix,
    pairs: Sequence[tuple[int, int]],
    seed: int,
    restarts: int,
) -> list[CoClustering]:
    """The best of ``restarts`` seeded starts for every size pair. Each
    (pair, restart) is one lane, and the lanes sweep rows then columns
    together; a lane stops after a sweep that moves nothing, or after
    ``_MAX_SWEEPS``. Each lane's loss is read once, where it stopped.
    Lane r of every pair starts from ``derive_rng(seed, 4, r)``, so each
    pair gets what a call for it alone would."""
    p = _checked_joint(joint)
    ns, nz = p.shape
    starts = []
    for n_pair, (kr, kc) in enumerate(pairs):
        if not 1 <= kr <= ns or not 1 <= kc <= nz:
            raise SmjpError(f"cluster counts ({kr}, {kc}) out of range for shape {p.shape}")
        if n_pair == 0:
            # Checked where a call for the first pair alone checks them.
            if restarts < 1:
                raise SmjpError(f"restarts must be at least 1, got {restarts}")
            total = p.sum()
            if total <= 0:
                raise SmjpError("joint distribution has zero mass")
            p = p / total
            live_rows = p.sum(axis=1) > 0
            live_cols = p.sum(axis=0) > 0
        for r in range(restarts):
            rng = derive_rng(seed, 4, r)
            starts.append((_init_assignment(ns, kr, live_rows, rng), _init_assignment(nz, kc, live_cols, rng)))

    k_rows = np.repeat([kr for kr, _ in pairs], restarts)
    k_cols = np.repeat([kc for _, kc in pairs], restarts)
    all_rows = np.array([s[0] for s in starts])
    all_cols = np.array([s[1] for s in starts])
    # Zero-mass rows and columns never move and add only zeros to any sum,
    # so the sweeps and the loss run on the live block alone.
    q = p[np.ix_(live_rows, live_cols)]
    rows, cols = all_rows[:, live_rows], all_cols[:, live_cols]
    active = np.arange(len(starts))
    for _ in range(_MAX_SWEEPS):
        r, c = rows[active], cols[active]
        moved = _sweep_lanes(q, r, c, k_rows[active], k_cols[active])
        moved |= _sweep_lanes(q.T, c, r, k_cols[active], k_rows[active])
        rows[active], cols[active] = r, c
        active = active[moved]
        if not active.size:
            break
    all_rows[:, live_rows], all_cols[:, live_cols] = rows, cols

    mi_joint = mutual_information(p)
    out = []
    for g, (kr, kc) in enumerate(pairs):
        lo, hi = g * restarts, (g + 1) * restarts
        mis = _mutual_informations(_clustered(q, rows[lo:hi], cols[lo:hi], kr, kc))
        best: CoClustering | None = None
        for l, mi in zip(range(lo, hi), mis):
            loss = mi_joint - mi
            if best is None or loss < best.mutual_information_loss - 1e-15:
                best = CoClustering(all_rows[l].copy(), all_cols[l].copy(), kr, kc, max(loss, 0.0))
        out.append(best)
    return out


def cocluster(
    joint: np.ndarray | CorrespondenceMatrix,
    k_rows: int,
    k_cols: int,
    seed: int,
    restarts: int = 20,
) -> CoClustering:
    """Alternating row/column reassignment minimizing mutual-information
    loss, restarted ``restarts`` times from seeded random starts; the best
    local optimum wins. A restart stops after a sweep that moves nothing,
    or after ``_MAX_SWEEPS`` sweeps. Zero-mass rows/columns are placed
    deterministically (they fill otherwise-empty clusters, then pin to the
    last one).
    """
    return _coclusterings(joint, [(k_rows, k_cols)], seed, restarts)[0]


@dataclass(frozen=True)
class SizeSelection:
    """The loss surface over every size pair, the chosen pair, and the
    co-clustering found at the chosen pair."""

    row_sizes: tuple[int, ...]
    col_sizes: tuple[int, ...]
    loss_surface: np.ndarray
    chosen: tuple[int, int]
    chosen_clustering: CoClustering


def _elbow(sizes: Sequence[int], profile: np.ndarray, zero_tol: float = 1e-12) -> int:
    """Pick the knee of a non-increasing loss profile: the smallest size
    achieving (numerically) zero loss if any does, otherwise the size with
    the largest second difference (flat extension at the ends, ties toward
    smaller sizes)."""
    prof = np.asarray(profile, dtype=np.float64)
    if prof.min() <= zero_tol:
        return sizes[int(np.argmax(prof <= zero_tol))]
    if len(sizes) == 1:
        return sizes[0]
    padded = np.concatenate([prof[:1], prof, prof[-1:]])
    d2 = padded[:-2] - 2.0 * padded[1:-1] + padded[2:]
    return sizes[int(np.argmax(d2))]


def select_cocluster_sizes(
    joint: np.ndarray | CorrespondenceMatrix,
    row_range: Sequence[int],
    col_range: Sequence[int],
    seed: int,
    restarts: int = 20,
) -> SizeSelection:
    """Scan cluster-size pairs, returning the full loss surface and the
    per-axis elbow choice. Each pair's co-clustering is the one
    ``cocluster`` gives for it. Each range is checked against the joint's
    shape on its ends (a ``range`` is monotone) before any list of sizes
    or pairs is built."""
    if not len(row_range) or not len(col_range):
        raise SmjpError("size ranges must be non-empty")
    shape = _checked_joint(joint).shape
    for axis, sizes, n in (("row", row_range, shape[0]), ("column", col_range, shape[1])):
        ends = (sizes[0], sizes[-1]) if isinstance(sizes, range) else sizes
        if min(ends) < 1 or max(ends) > n:
            raise SmjpError(f"{axis} cluster counts {min(ends)}..{max(ends)} out of range for shape {shape}")
    rows = list(row_range)
    cols = list(col_range)
    pairs = [(kr, kc) for kr in rows for kc in cols]
    results = dict(zip(pairs, _coclusterings(joint, pairs, seed, restarts)))
    surface = np.array([[results[kr, kc].mutual_information_loss for kc in cols] for kr in rows])
    chosen = (_elbow(rows, surface.min(axis=1)), _elbow(cols, surface.min(axis=0)))
    return SizeSelection(tuple(rows), tuple(cols), surface, chosen, results[chosen])


# ---------------------------------------------------------------------------
# Joint action operators and their subgraphs.

@dataclass(frozen=True)
class JointOperator:
    """Composition of two action chains: apply action i's single-step
    operator, then action j's."""

    i: int
    j: int
    matrix: StochasticMatrix


def joint_operator(model: SwitchingSMJP, i: int, j: int) -> JointOperator:
    if not (0 <= i < model.n_actions and 0 <= j < model.n_actions):
        raise SmjpError(f"action pair ({i}, {j}) outside 0..{model.n_actions - 1}")
    product = model.chain_stack[i] @ model.chain_stack[j]
    return JointOperator(i=i, j=j, matrix=StochasticMatrix(product))


def _greedy_modularity(sym: np.ndarray) -> tuple[np.ndarray, float]:
    """Agglomerative modularity maximization: merge the best pair until one
    community remains, return the best partition seen along the way,
    numbered by smallest member."""
    e = sym / sym.sum()
    a = e.sum(axis=1)
    # root[v] names v's community by its surviving row, its smallest member.
    root = np.arange(sym.shape[0])
    active = root.tolist()
    q = float(np.trace(e) - np.sum(a**2))
    best_q, best_root = q, root.copy()
    while len(active) > 1:
        gain, pick = None, None
        for xi, x in enumerate(active):
            for y in active[xi + 1 :]:
                dq = 2.0 * (e[x, y] - a[x] * a[y])
                if gain is None or dq > gain + 1e-15:
                    gain, pick = dq, (x, y)
        x, y = pick
        e[x, :] += e[y, :]
        e[:, x] += e[:, y]
        a[x] += a[y]
        root[root == y] = x
        active.remove(y)
        q += gain
        if q > best_q + 1e-12:
            best_q, best_root = q, root.copy()
    return np.unique(best_root, return_inverse=True)[1], best_q


@dataclass(frozen=True)
class SubgraphResult:
    partition: np.ndarray
    communities: tuple[tuple[int, ...], ...]
    persistent_subspaces: tuple[tuple[int, ...], ...]
    modularity: float


def extract_subgraphs(
    op: JointOperator | np.ndarray,
    threshold: float = 0.05,
    persistence_frac: float = 0.7,
) -> SubgraphResult:
    """Community structure of an operator's weighted graph.

    The operator is symmetrized and entries below ``threshold`` are zeroed;
    communities come from greedy modularity maximization on the resulting
    graph with self-loops removed (self-mass dominates sticky operators'
    degrees and would wash out the between-state structure). A community
    is a persistent subspace when at least ``persistence_frac`` of its
    rows' probability mass stays inside it under the original operator.
    A raw array must be square, finite and non-negative.
    """
    if not 0.0 <= threshold < 1.0:
        raise SmjpError(f"threshold must be in [0, 1), got {threshold!r}")
    if not 0.0 <= persistence_frac <= 1.0:
        raise SmjpError(f"persistence_frac must be in [0, 1], got {float(persistence_frac)!r}")
    w = op.matrix.probs if isinstance(op, JointOperator) else np.asarray(op, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1] or not np.isfinite(w).all() or np.any(w < 0):
        raise SmjpError("operator must be a finite non-negative square matrix")
    sym = (w + w.T) / 2.0
    sym = np.where(sym < threshold, 0.0, sym)
    if sym.sum() <= 0:
        raise EmptyGraph("thresholding removed all edges")
    off = sym.copy()
    np.fill_diagonal(off, 0.0)
    if off.sum() <= 0:
        # Only self-loops survive: every state is its own community.
        labels, q = np.arange(w.shape[0], dtype=np.int64), 0.0
    else:
        labels, q = _greedy_modularity(off)
    communities = tuple(tuple(int(i) for i in np.nonzero(labels == c)[0]) for c in range(labels.max() + 1))
    persistent = []
    for comm in communities:
        idx = np.asarray(comm)
        internal = w[np.ix_(idx, idx)].sum()
        outgoing = w[idx, :].sum()
        if outgoing > 0 and internal >= persistence_frac * outgoing:
            persistent.append(comm)
    return SubgraphResult(labels, communities, tuple(persistent), q)


# ---------------------------------------------------------------------------
# Interval statistics.

# The most histogram bins an explicit bin width may ask for (8 MB of
# edges). The default width, a quarter of the mean interval, gives at
# most 4n+1 bins for n intervals, so it is never held to this bound.
MAX_HISTOGRAM_BINS = 1_000_000


@dataclass(frozen=True)
class IntervalStats:
    n_intervals: int
    mean_interval: float
    exp_rate: float
    exp_loglik: float
    ks_statistic: float
    ks_pvalue: float
    hist_counts: np.ndarray
    hist_edges: np.ndarray


def interval_stats(
    seq: EventSequence,
    observation: str | None = None,
    action: str | None = None,
    bin_width: float | None = None,
) -> IntervalStats:
    """Inter-event intervals for events matching the given symbol filters,
    with a maximum-likelihood exponential fit and a KS test against it.

    Raises
    ------
    SmjpError
        With fewer than 10 matching intervals, or when an explicit
        ``bin_width`` is not finite and positive, or would need more than
        ``MAX_HISTOGRAM_BINS`` bins.
    """
    if bin_width is not None and not 0.0 < bin_width < np.inf:
        raise SmjpError(f"bin_width must be finite and positive, got {float(bin_width)!r}")
    mask = np.ones(len(seq), dtype=bool)
    if observation is not None:
        mask &= seq.observations == seq.observation_alphabet.index(observation)
    if action is not None:
        mask &= seq.actions == seq.action_alphabet.index(action)
    times = seq.times[mask]
    intervals = np.diff(times)
    if intervals.size < 10:
        raise SmjpError(f"only {intervals.size} matching intervals, need at least 10")
    if bin_width is not None:
        n_bins = float(intervals.max()) / bin_width
        if n_bins > MAX_HISTOGRAM_BINS:
            raise SmjpError(f"bin_width {float(bin_width)!r} needs {n_bins:.6g} histogram bins, "
                            f"more than {MAX_HISTOGRAM_BINS}")
    mean = float(intervals.mean())
    rate = 1.0 / mean
    loglik = intervals.size * np.log(rate) - rate * intervals.sum()
    # Imported here, not at module level: scipy.stats takes ~70 MB and
    # ~0.3 s to import, and nothing else in the package needs it.
    from scipy import stats as sp_stats

    ks = sp_stats.kstest(intervals, "expon", args=(0.0, mean))
    width = bin_width if bin_width is not None else mean / 4.0
    edges = np.arange(0.0, intervals.max() + width, width)
    if edges.size < 2:
        edges = np.array([0.0, width])
    counts, edges = np.histogram(intervals, bins=edges)
    return IntervalStats(
        n_intervals=int(intervals.size),
        mean_interval=mean,
        exp_rate=rate,
        exp_loglik=float(loglik),
        ks_statistic=float(ks.statistic),
        ks_pvalue=float(ks.pvalue),
        hist_counts=counts,
        hist_edges=edges,
    )
