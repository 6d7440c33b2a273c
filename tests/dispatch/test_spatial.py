"""Property tests for the grid-bucketed spatial index.

The contract that matters for the sparse matching pipeline is conservative
pruning: :meth:`GridBucketIndex.candidates_in_box` must be a superset of
every point within the query radius (any travel metric), and
:meth:`GridBucketIndex.query_radius` must equal the brute-force distance
mask exactly.
"""

import numpy as np
import pytest

from repro.dispatch.spatial import GridBucketIndex, default_resolution
from repro.dispatch.travel import TravelModel

MANHATTAN = TravelModel(width_km=23.0, height_km=37.0, speed_kmh=24.0)
EUCLIDEAN = TravelModel(width_km=9.0, height_km=11.0, metric="euclidean")


def brute_force(travel, x, y, qx, qy, radius):
    distance = travel.distance_km(qx, qy, x, y)
    return np.flatnonzero(np.asarray(distance) <= radius)


class TestQueryRadius:
    @pytest.mark.parametrize("travel", [MANHATTAN, EUCLIDEAN], ids=["manhattan", "euclidean"])
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_brute_force_mask(self, travel, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        x, y = rng.random(n), rng.random(n)
        index = GridBucketIndex(x, y, travel)
        for _ in range(20):
            qx, qy = float(rng.random()), float(rng.random())
            radius = float(rng.uniform(0, 12.0))
            indices, distances = index.query_radius(qx, qy, radius)
            expected = brute_force(travel, x, y, qx, qy, radius)
            assert np.array_equal(indices, expected)
            assert np.array_equal(
                distances, np.asarray(travel.distance_km(qx, qy, x, y))[expected]
            )

    @pytest.mark.parametrize("travel", [MANHATTAN, EUCLIDEAN], ids=["manhattan", "euclidean"])
    def test_boundary_points_on_cell_edges(self, travel):
        # Points sitting exactly on cell boundaries must never be lost.
        side = np.linspace(0.0, 0.9, 10)
        x, y = np.meshgrid(side, side)
        x, y = x.ravel(), y.ravel()
        index = GridBucketIndex(x, y, travel, resolution=10)
        for radius in (0.0, 0.05, 1.0, 5.0):
            for qx, qy in [(0.0, 0.0), (0.5, 0.5), (0.9, 0.9), (0.45, 0.3)]:
                indices, _ = index.query_radius(qx, qy, radius)
                assert np.array_equal(indices, brute_force(travel, x, y, qx, qy, radius))

    def test_zero_radius_hits_coincident_point(self):
        index = GridBucketIndex(np.array([0.25]), np.array([0.75]), MANHATTAN)
        indices, distances = index.query_radius(0.25, 0.75, 0.0)
        assert indices.tolist() == [0]
        assert distances.tolist() == [0.0]

    def test_negative_radius_and_empty_index(self):
        index = GridBucketIndex(np.array([0.5]), np.array([0.5]), MANHATTAN)
        assert index.query_radius(0.5, 0.5, -1.0)[0].size == 0
        empty = GridBucketIndex(np.empty(0), np.empty(0), MANHATTAN)
        assert empty.query_radius(0.5, 0.5, 10.0)[0].size == 0
        assert len(empty) == 0

    def test_radius_covering_whole_city(self):
        rng = np.random.default_rng(3)
        x, y = rng.random(50), rng.random(50)
        index = GridBucketIndex(x, y, MANHATTAN)
        indices, _ = index.query_radius(0.5, 0.5, 1000.0)
        assert np.array_equal(indices, np.arange(50))


class TestCandidatesInBox:
    @pytest.mark.parametrize("seed", range(4))
    def test_superset_of_radius_query(self, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.random(200), rng.random(200)
        for travel in (MANHATTAN, EUCLIDEAN):
            index = GridBucketIndex(x, y, travel, resolution=int(rng.integers(1, 30)))
            for _ in range(10):
                qx, qy = float(rng.random()), float(rng.random())
                radius = float(rng.uniform(0, 8.0))
                candidates = set(index.candidates_in_box(qx, qy, radius).tolist())
                within = brute_force(travel, x, y, qx, qy, radius)
                assert set(within.tolist()) <= candidates

    @pytest.mark.parametrize("travel", [MANHATTAN, EUCLIDEAN], ids=["manhattan", "euclidean"])
    @pytest.mark.parametrize("seed", range(4))
    def test_batched_boxes_bound_by_box_and_radius(self, travel, seed):
        """candidates_in_boxes sits between the radius mask and the cell box."""
        rng = np.random.default_rng(seed)
        x, y = rng.random(300), rng.random(300)
        index = GridBucketIndex(x, y, travel, resolution=int(rng.integers(2, 60)))
        n_queries = 12
        qx, qy = rng.random(n_queries), rng.random(n_queries)
        radii = rng.uniform(-1.0, 8.0, size=n_queries)
        ids, points = index.candidates_in_boxes(qx, qy, radii)
        assert np.all(ids[:-1] <= ids[1:])  # grouped by ascending query
        for q in range(n_queries):
            got = set(points[ids == q].tolist())
            box = set(index.candidates_in_box(qx[q], qy[q], radii[q]).tolist())
            within = set(brute_force(travel, x, y, qx[q], qy[q], radii[q]).tolist())
            assert within <= got <= box

    def test_batched_boxes_empty_inputs(self):
        index = GridBucketIndex(np.array([0.5]), np.array([0.5]), MANHATTAN)
        ids, points = index.candidates_in_boxes(np.empty(0), np.empty(0), np.empty(0))
        assert ids.size == 0 and points.size == 0
        ids, points = index.candidates_in_boxes(
            np.array([0.5]), np.array([0.5]), np.array([-1.0])
        )
        assert ids.size == 0 and points.size == 0

    def test_single_cell_resolution(self):
        rng = np.random.default_rng(1)
        x, y = rng.random(30), rng.random(30)
        index = GridBucketIndex(x, y, MANHATTAN, resolution=1)
        assert np.array_equal(
            np.sort(index.candidates_in_box(0.5, 0.5, 0.001)), np.arange(30)
        )


class TestValidation:
    def test_rejects_mismatched_arrays(self):
        with pytest.raises(ValueError):
            GridBucketIndex(np.zeros(3), np.zeros(4), MANHATTAN)

    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            GridBucketIndex(np.zeros(3), np.zeros(3), MANHATTAN, resolution=0)
        with pytest.raises(ValueError):
            GridBucketIndex(np.zeros(3), np.zeros(3), MANHATTAN, resolution=256)

    def test_default_resolution_scaling(self):
        assert default_resolution(0) == 1
        assert default_resolution(1) == 1
        assert default_resolution(2000) == int(np.sqrt(1000))
        assert default_resolution(40000) == int(np.sqrt(20000))
        assert default_resolution(10**9) == 255  # clamped at the uint16 cell-id limit
