"""Tests of the baseline radius search (traversal + 32-bit leaf inspection)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ExecutionConfig
from repro.hwmodel.cache import HierarchyRecorder
from repro.kdtree import (
    SearchStats,
    build_kdtree,
    radius_search,
)


def _brute_force(points: np.ndarray, query, radius: float):
    diffs = points.astype(np.float64) - np.asarray(query, dtype=np.float64)
    d2 = np.einsum("ij,ij->i", diffs, diffs)
    return sorted(np.nonzero(d2 <= radius * radius)[0].tolist())


class TestCorrectness:
    def test_matches_brute_force_on_frame(self, frame_tree, filtered_frame):
        for i in range(0, len(filtered_frame), 149):
            query = filtered_frame[i]
            got = sorted(radius_search(frame_tree, query, 0.7))
            assert got == _brute_force(frame_tree.points, query, 0.7)

    def test_matches_brute_force_on_random_cloud(self, random_tree, random_cloud):
        for i in range(0, len(random_cloud), 97):
            for radius in (0.3, 1.0, 5.0):
                query = random_cloud[i]
                got = sorted(radius_search(random_tree, query, radius))
                assert got == _brute_force(random_tree.points, query, radius)

    def test_query_outside_cloud(self, random_tree):
        query = np.array([500.0, 500.0, 500.0])
        assert radius_search(random_tree, query, 1.0) == []

    def test_huge_radius_returns_everything(self, random_tree):
        query = np.array([0.0, 0.0, 0.0])
        got = radius_search(random_tree, query, 1e4)
        assert sorted(got) == list(range(random_tree.n_points))

    def test_query_on_point_includes_itself(self, random_tree, random_cloud):
        got = radius_search(random_tree, random_cloud[7], 0.05)
        assert 7 in got

    def test_invalid_radius_rejected(self, random_tree):
        with pytest.raises(ValueError):
            radius_search(random_tree, [0, 0, 0], 0.0)

    def test_invalid_query_rejected(self, random_tree):
        with pytest.raises(ValueError):
            radius_search(random_tree, [0, 0], 1.0)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_points=st.integers(min_value=1, max_value=300),
        radius=st.floats(min_value=0.05, max_value=30.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force_property(self, seed, n_points, radius):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-20, 20, size=(n_points, 3)).astype(np.float32)
        tree = build_kdtree(points)
        query = rng.uniform(-25, 25, size=3)
        got = sorted(radius_search(tree, query, radius))
        assert got == _brute_force(points, query, radius)


class TestStats:
    def test_stats_accumulate(self, frame_tree, filtered_frame):
        stats = SearchStats()
        for i in range(0, len(filtered_frame), 211):
            radius_search(frame_tree, filtered_frame[i], 0.6, stats=stats)
        assert stats.queries == len(range(0, len(filtered_frame), 211))
        assert stats.leaves_visited > 0
        assert stats.points_examined >= stats.points_in_radius
        assert stats.point_bytes_loaded == stats.points_examined * 16

    def test_leaf_visit_counts(self, frame_tree, filtered_frame):
        stats = SearchStats()
        for i in range(0, len(filtered_frame), 31):
            radius_search(frame_tree, filtered_frame[i], 0.6, stats=stats)
        assert sum(stats.leaf_visit_counts.values()) == stats.leaves_visited
        assert stats.mean_visits_per_leaf >= 1.0

    def test_merge(self):
        a = SearchStats(queries=1, leaves_visited=2, points_examined=10,
                        visits_by_leaf=np.array([2]))
        b = SearchStats(queries=2, leaves_visited=3, points_examined=5,
                        visits_by_leaf=np.array([1, 2]))
        a.merge(b)
        assert a.queries == 3
        assert a.leaves_visited == 5
        assert a.leaf_visit_counts == {0: 3, 1: 2}

    def test_radius_searcher_accumulates(self, frame_tree, filtered_frame):
        searcher = ExecutionConfig(hardware=True).make_backend(frame_tree)
        for i in range(0, len(filtered_frame), 301):
            searcher.search(filtered_frame[i], 0.6)
        assert searcher.stats.queries >= 2

    def test_empty_stats_mean_visits(self):
        assert SearchStats().mean_visits_per_leaf == 0.0


class TestPruning:
    def test_small_radius_visits_few_leaves(self, frame_tree, filtered_frame):
        stats = SearchStats()
        radius_search(frame_tree, filtered_frame[0], 0.1, stats=stats)
        assert stats.leaves_visited < frame_tree.n_leaves / 4

    def test_larger_radius_visits_more_leaves(self, frame_tree, filtered_frame):
        query = filtered_frame[len(filtered_frame) // 2]
        small, large = SearchStats(), SearchStats()
        radius_search(frame_tree, query, 0.2, stats=small)
        radius_search(frame_tree, query, 8.0, stats=large)
        assert large.leaves_visited > small.leaves_visited
        assert large.points_examined > small.points_examined

    def test_covering_radius_visits_every_leaf(self, frame_tree, filtered_frame):
        stats = SearchStats()
        radius_search(frame_tree, filtered_frame[0], 500.0, stats=stats)
        assert stats.leaves_visited == frame_tree.n_leaves

    def test_points_examined_less_than_total_for_small_radius(self, frame_tree,
                                                              filtered_frame):
        stats = SearchStats()
        radius_search(frame_tree, filtered_frame[5], 0.3, stats=stats)
        assert stats.points_examined < frame_tree.n_points


class TestMemoryRecording:
    def test_recorder_receives_accesses(self, random_tree, random_cloud):
        recorder = HierarchyRecorder()
        radius_search(random_tree, random_cloud[0], 1.0, recorder=recorder)
        assert recorder.stats.loads > 0
        assert recorder.stats.bytes_loaded > 0

    def test_no_recorder_no_error(self, random_tree, random_cloud):
        assert isinstance(radius_search(random_tree, random_cloud[0], 1.0), list)

    def test_point_loads_counted_in_bytes(self, random_tree, random_cloud):
        recorder = HierarchyRecorder()
        stats = SearchStats()
        radius_search(random_tree, random_cloud[0], 1.0, stats=stats, recorder=recorder)
        # Every examined point contributes one 16-byte load plus a 4-byte index load.
        assert recorder.stats.bytes_loaded >= stats.points_examined * 20
