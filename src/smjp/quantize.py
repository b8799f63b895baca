"""Location quantization: plain Lloyd k-means with k-means++ seeding.

Turns raw (x, y) tracking points into a small set of location symbols for
the observation alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SmjpError, as_rng


# Lloyd iterations before the assignment is kept as it stands.
_MAX_ITERATIONS = 300


@dataclass(frozen=True)
class QuantizationResult:
    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    iterations: int


def _seed_centroids(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: each new centroid drawn with probability
    proportional to squared distance from the chosen set."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[c] = points[rng.integers(n)]
            continue
        idx = int(np.searchsorted(np.cumsum(d2 / total), rng.random(), side="right"))
        centroids[c] = points[min(idx, n - 1)]
        d2 = np.minimum(d2, ((points - centroids[c]) ** 2).sum(axis=1))
    return centroids


def quantize_locations(points: np.ndarray, k: int, seed: int | np.random.Generator) -> QuantizationResult:
    """Cluster points into k location symbols.

    Lloyd iterations run from a k-means++ start until the assignment stops
    changing or ``_MAX_ITERATIONS`` is hit; a cluster that empties is
    re-seeded at the point farthest from its assigned centroid.

    Raises
    ------
    SmjpError
        If ``k`` exceeds the number of distinct points.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise SmjpError("points must be a non-empty (n, d) array")
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        raise SmjpError(f"point {int(bad[0])} has a non-finite coordinate")
    with np.errstate(over="ignore"):
        # Bounds every squared distance, and the inertia's sum of them.
        spread = float(((pts.max(axis=0) - pts.min(axis=0)) ** 2).sum()) * pts.shape[0]
    if not np.isfinite(spread):
        raise SmjpError("points spread too far apart: their squared distances overflow")
    if k < 1:
        raise SmjpError("k must be at least 1")
    distinct = np.unique(pts, axis=0).shape[0]
    if k > distinct:
        raise SmjpError(f"k={k} exceeds {distinct} distinct points")
    rng = as_rng(seed)
    centroids = _seed_centroids(pts, k, rng)
    labels = np.full(pts.shape[0], -1, dtype=np.int64)
    for it in range(1, _MAX_ITERATIONS + 1):
        d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            members = labels == c
            if members.any():
                centroids[c] = pts[members].mean(axis=0)
            else:
                worst = int(d2[np.arange(pts.shape[0]), labels].argmax())
                centroids[c] = pts[worst]
                labels[worst] = c
    inertia = float(((pts - centroids[labels]) ** 2).sum())
    return QuantizationResult(labels=labels, centroids=centroids, inertia=inertia, iterations=it)
