"""Property-based edge tests of the shard plan/merge machinery.

The sharded index's chunked queries rest on one invariant: *any*
contiguous split of a query batch, served shard by shard and merged in
shard order, is bitwise identical to serving the whole batch at once.  Hypothesis drives the split
through the edges a fixed unit test would miss — empty shard lists,
single-query batches, zero-hit queries, duplicate kNN distances, and shard
counts far beyond the query count.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import get_backend
from repro.engine.parallel import (
    merge_knn_shards,
    merge_radius_shards,
    plan_shards,
)
from repro.kdtree import build_kdtree


@pytest.fixture(scope="module")
def case():
    rng = np.random.default_rng(17)
    points = rng.uniform(-6.0, 6.0, (300, 3)).astype(np.float32)
    # Duplicate a slab of points so kNN distance ties actually occur.
    points[150:180] = points[0:30]
    queries = np.vstack([
        points[:50].astype(np.float64) + rng.normal(0.0, 0.2, (50, 3)),
        rng.uniform(40.0, 50.0, (6, 3)),  # far away: zero radius hits
    ])
    tree = build_kdtree(points)
    return tree, queries, get_backend("baseline-batched", tree)


def _split_points(n: int, draw_bounds):
    """Interior cut points -> contiguous disjoint [start, stop) ranges."""
    bounds = sorted(set([0, n] + draw_bounds))
    return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


class TestPlanShards:
    @given(n_queries=st.integers(min_value=-3, max_value=200),
           n_shards=st.integers(min_value=-3, max_value=400))
    def test_plan_covers_batch_contiguously(self, n_queries, n_shards):
        shards = plan_shards(n_queries, n_shards)
        if n_queries < 1:
            assert shards == []
            return
        # Contiguous, disjoint, covering, never empty.
        assert shards[0][0] == 0 and shards[-1][1] == n_queries
        for (start, stop), (next_start, _) in zip(shards, shards[1:]):
            assert stop == next_start
        assert all(stop > start for start, stop in shards)
        # Clamped: never more shards than queries, never fewer than one.
        assert 1 <= len(shards) <= max(1, min(n_shards, n_queries))

    def test_shard_count_clamped_to_query_count(self):
        assert len(plan_shards(3, 16)) == 3
        assert plan_shards(1, 9) == [(0, 1)]
        assert plan_shards(5, 0) == [(0, 5)]
        assert plan_shards(0, 4) == []
        assert plan_shards(-2, 4) == []


class TestMergeRadiusShards:
    @settings(max_examples=40, deadline=None)
    @given(cuts=st.lists(st.integers(min_value=1, max_value=55),
                         max_size=12))
    def test_any_contiguous_split_merges_bitwise(self, case, cuts):
        tree, queries, backend = case
        whole = backend.radius_search(queries, 0.45)
        ranges = _split_points(queries.shape[0], cuts)
        merged = merge_radius_shards(
            [backend.radius_search(queries[start:stop], 0.45)
             for start, stop in ranges])
        assert np.array_equal(merged.offsets, whole.offsets)
        assert np.array_equal(merged.point_indices, whole.point_indices)

    def test_empty_shard_list_is_an_empty_batch(self):
        merged = merge_radius_shards([])
        assert merged.n_queries == 0
        assert merged.offsets.shape == (1,)
        assert merged.point_indices.shape == (0,)

    def test_single_query_shards(self, case):
        tree, queries, backend = case
        whole = backend.radius_search(queries, 0.45)
        merged = merge_radius_shards(
            [backend.radius_search(queries[i:i + 1], 0.45)
             for i in range(queries.shape[0])])
        assert np.array_equal(merged.offsets, whole.offsets)
        assert np.array_equal(merged.point_indices, whole.point_indices)

    def test_zero_hit_shards_keep_offsets_aligned(self, case):
        tree, queries, backend = case
        # The last six queries are far outside the cloud: all-empty shard.
        empty = backend.radius_search(queries[-6:], 0.45)
        assert empty.total_matches == 0
        merged = merge_radius_shards(
            [backend.radius_search(queries[:-6], 0.45), empty])
        whole = backend.radius_search(queries, 0.45)
        assert np.array_equal(merged.offsets, whole.offsets)
        assert np.array_equal(merged.point_indices, whole.point_indices)


class TestMergeKnnShards:
    @settings(max_examples=40, deadline=None)
    @given(cuts=st.lists(st.integers(min_value=1, max_value=55),
                         max_size=12),
           k=st.integers(min_value=1, max_value=6))
    def test_any_contiguous_split_merges_bitwise(self, case, cuts, k):
        tree, queries, backend = case
        whole = backend.knn(queries, k)
        ranges = _split_points(queries.shape[0], cuts)
        merged = merge_knn_shards(
            [backend.knn(queries[start:stop], k) for start, stop in ranges])
        assert np.array_equal(merged.indices, whole.indices)
        assert np.array_equal(merged.distances, whole.distances)

    def test_duplicate_distance_ties_survive_the_merge(self, case):
        """The fixture clones 30 points, so equidistant neighbours exist;
        tie order (by point index) must be shard-split invariant."""
        tree, queries, backend = case
        whole = backend.knn(queries, 4)
        merged = merge_knn_shards(
            [backend.knn(queries[i:i + 1], 4)
             for i in range(queries.shape[0])])
        assert np.array_equal(merged.indices, whole.indices)
        # Ties really happen: some query has two neighbours at one distance.
        has_tie = any(
            len(set(np.round(row[np.isfinite(row)], 10))) < np.sum(np.isfinite(row))
            for row in whole.distances)
        assert has_tie

    def test_single_shard_roundtrip(self, case):
        tree, queries, backend = case
        whole = backend.knn(queries, 3)
        merged = merge_knn_shards([whole])
        assert np.array_equal(merged.indices, whole.indices)
        assert np.array_equal(merged.distances, whole.distances)

    def test_empty_knn_shard_list_raises(self):
        """vstack of nothing is a contract violation, not a silent empty."""
        with pytest.raises(ValueError):
            merge_knn_shards([])

    def test_more_shards_than_queries_via_plan(self, case):
        """plan_shards clamps, so the planned split always merges clean."""
        tree, queries, backend = case
        whole = backend.radius_search(queries, 0.45)
        ranges = plan_shards(queries.shape[0], 10 * queries.shape[0])
        assert len(ranges) == queries.shape[0]
        merged = merge_radius_shards(
            [backend.radius_search(queries[start:stop], 0.45)
             for start, stop in ranges])
        assert np.array_equal(merged.offsets, whole.offsets)
        assert np.array_equal(merged.point_indices, whole.point_indices)
