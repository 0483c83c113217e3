"""Tests of k-nearest-neighbour search over the k-d tree."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kdtree import SearchStats, build_kdtree, nearest_neighbors


def _brute_force_knn(points: np.ndarray, query, k: int):
    d = np.linalg.norm(points.astype(np.float64) - np.asarray(query, dtype=np.float64), axis=1)
    order = np.argsort(d, kind="stable")[:k]
    return [(int(i), float(d[i])) for i in order]


class TestNearestNeighbors:
    def test_matches_brute_force(self, random_tree, random_cloud):
        for i in range(0, len(random_cloud), 173):
            query = random_cloud[i]
            got = nearest_neighbors(random_tree, query, k=5)
            expected = _brute_force_knn(random_tree.points, query, 5)
            assert [idx for idx, _ in got] == [idx for idx, _ in expected] or \
                np.allclose([d for _, d in got], [d for _, d in expected])

    def test_distances_sorted(self, random_tree, random_cloud):
        got = nearest_neighbors(random_tree, random_cloud[0], k=10)
        distances = [d for _, d in got]
        assert distances == sorted(distances)

    def test_k_larger_than_cloud(self):
        points = np.random.default_rng(1).uniform(-1, 1, (7, 3)).astype(np.float32)
        tree = build_kdtree(points)
        got = nearest_neighbors(tree, [0, 0, 0], k=20)
        assert len(got) == 7

    def test_nearest_of_cloud_point_is_itself(self, random_tree, random_cloud):
        [(index, distance)] = nearest_neighbors(random_tree, random_cloud[11], k=1)
        assert distance == pytest.approx(0.0, abs=1e-6)

    def test_invalid_k_rejected(self, random_tree):
        with pytest.raises(ValueError):
            nearest_neighbors(random_tree, [0, 0, 0], k=0)

    def test_invalid_query_rejected(self, random_tree):
        with pytest.raises(ValueError):
            nearest_neighbors(random_tree, [0, 0], k=1)

    def test_stats_populated(self, random_tree, random_cloud):
        stats = SearchStats()
        nearest_neighbors(random_tree, random_cloud[0], k=3, stats=stats)
        assert stats.queries == 1
        assert stats.leaves_visited >= 1
        assert stats.points_examined >= 3

    def test_pruning_examines_fewer_points_than_total(self, frame_tree, filtered_frame):
        stats = SearchStats()
        nearest_neighbors(frame_tree, filtered_frame[0], k=1, stats=stats)
        assert stats.points_examined < frame_tree.n_points

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_points=st.integers(min_value=2, max_value=200),
        k=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_distance_set_matches_brute_force_property(self, seed, n_points, k):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-10, 10, size=(n_points, 3)).astype(np.float32)
        tree = build_kdtree(points)
        query = rng.uniform(-12, 12, size=3)
        got = nearest_neighbors(tree, query, k=k)
        expected = _brute_force_knn(points, query, k)
        np.testing.assert_allclose(
            [d for _, d in got], [d for _, d in expected], rtol=1e-9, atol=1e-9
        )
