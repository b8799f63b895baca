import numpy as np
import pytest

from smjp import quantize
from smjp.core import SmjpError, derive_rng
from smjp.quantize import quantize_locations


class TestQuantizeLocations:
    def test_single_cluster_centroid_is_mean(self):
        rng = derive_rng(0)
        pts = rng.normal(size=(50, 2))
        result = quantize_locations(pts, 1, seed=1)
        assert np.allclose(result.centroids[0], pts.mean(axis=0), atol=1e-12)
        assert np.all(result.labels == 0)

    def test_separated_blobs_recovered(self):
        rng = derive_rng(1)
        a = rng.normal(loc=(0.0, 0.0), scale=0.3, size=(60, 2))
        b = rng.normal(loc=(8.0, 8.0), scale=0.3, size=(40, 2))
        pts = np.vstack([a, b])
        result = quantize_locations(pts, 2, seed=2)
        la, lb = result.labels[:60], result.labels[60:]
        assert len(set(la.tolist())) == 1
        assert len(set(lb.tolist())) == 1
        assert la[0] != lb[0]

    def test_k_equals_distinct_points_zero_error(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        result = quantize_locations(pts, 4, seed=3)
        assert result.inertia == pytest.approx(0.0, abs=1e-24)
        assert len(set(result.labels.tolist())) == 4

    def test_k_too_large(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(SmjpError, match="^k=3 exceeds 2 distinct points$"):
            quantize_locations(pts, 3, seed=0)

    def test_deterministic_under_seed(self):
        rng = derive_rng(2)
        pts = rng.normal(size=(80, 2))
        r1 = quantize_locations(pts, 3, seed=9)
        r2 = quantize_locations(pts, 3, seed=9)
        assert np.array_equal(r1.labels, r2.labels)
        assert np.array_equal(r1.centroids, r2.centroids)

    def test_iteration_cap_stops_lloyd_where_it_is(self, monkeypatch):
        pts = derive_rng(2).normal(size=(80, 2))
        free = quantize_locations(pts, 3, seed=9)
        assert free.iterations > 2
        monkeypatch.setattr(quantize, "_MAX_ITERATIONS", 1)
        capped = quantize_locations(pts, 3, seed=9)
        assert capped.iterations == 1 and capped.inertia >= free.inertia

    def test_inertia_never_worse_than_single_cluster(self):
        rng = derive_rng(3)
        pts = rng.normal(size=(100, 3))
        single = quantize_locations(pts, 1, seed=0).inertia
        multi = quantize_locations(pts, 4, seed=0).inertia
        assert multi <= single

    @pytest.mark.parametrize("cell, message", [
        (np.nan, "point 2 has a non-finite coordinate"),
        (-np.inf, "point 2 has a non-finite coordinate"),
        (1e300, "points spread too far apart: their squared distances overflow"),
    ])
    def test_points_whose_distances_are_not_finite_refused(self, cell, message):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        pts[2, 1] = cell
        with pytest.raises(SmjpError, match=f"^{message}$"):
            quantize_locations(pts, 2, seed=3)
