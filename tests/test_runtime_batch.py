"""Tests of the batched query engine (:mod:`repro.runtime`).

The engine's contract is *exact parity*: batched radius and kNN queries must
return precisely what the per-query reference paths return, and the
``SearchStats`` counters must aggregate as if the queries had been issued one
by one (exactly for radius search, approximately for kNN, whose batched
traversal bounds each query from its home leaf and tightens per level).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bonsai_search import BonsaiRadiusSearch
from repro.kdtree import (
    SearchStats,
    build_kdtree,
    nearest_neighbors,
    radius_search,
)
from repro.runtime import (
    BatchQueryEngine,
    BonsaiBatchSearcher,
    batch_knn,
    batch_radius_search,
)


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(1234)
    # A mixture of a uniform background and a few dense blobs, so leaves see
    # both sparse and crowded neighbourhoods.
    background = rng.uniform(-10, 10, (1200, 3))
    blobs = [rng.normal(center, 0.4, (200, 3))
             for center in ((2.0, 1.0, 0.0), (-4.0, 3.0, 1.0), (5.0, -5.0, -1.0))]
    return np.vstack([background] + blobs).astype(np.float32)


@pytest.fixture(scope="module")
def tree(cloud):
    return build_kdtree(cloud)


@pytest.fixture(scope="module")
def queries(cloud):
    rng = np.random.default_rng(99)
    picks = cloud[rng.integers(0, len(cloud), 150)]
    return picks.astype(np.float64) + rng.normal(0.0, 0.5, picks.shape)


def _stats_tuple(stats: SearchStats):
    return (stats.queries, stats.leaves_visited, stats.interior_visited,
            stats.points_examined, stats.points_in_radius,
            stats.point_bytes_loaded)


class TestBatchRadiusParity:
    @pytest.mark.parametrize("radius", [0.05, 0.6, 2.5])
    def test_results_match_per_query(self, tree, queries, radius):
        single = [sorted(radius_search(tree, q, radius)) for q in queries]
        batch = batch_radius_search(tree, queries, radius)
        assert batch.as_lists() == single

    def test_stats_aggregate_exactly(self, tree, queries):
        single_stats = SearchStats()
        for q in queries:
            radius_search(tree, q, 0.8, stats=single_stats)
        batch_stats = SearchStats()
        batch_radius_search(tree, queries, 0.8, stats=batch_stats)
        assert _stats_tuple(batch_stats) == _stats_tuple(single_stats)
        assert batch_stats.leaf_visit_counts == single_stats.leaf_visit_counts

    def test_query_point_finds_itself(self, tree, cloud):
        result = batch_radius_search(tree, cloud[:20], 0.1)
        for i in range(20):
            assert i in result.indices_for(i)

    def test_csr_offsets_consistent(self, tree, queries):
        result = batch_radius_search(tree, queries, 0.8)
        assert result.offsets[0] == 0
        assert result.offsets[-1] == result.point_indices.shape[0]
        assert np.all(np.diff(result.offsets) == result.counts)
        assert result.total_matches == int(result.counts.sum())

    def test_zero_radius_rejected(self, tree, queries):
        with pytest.raises(ValueError):
            batch_radius_search(tree, queries, 0.0)
        with pytest.raises(ValueError):
            batch_radius_search(tree, queries, -1.0)

    def test_empty_query_batch(self, tree):
        stats = SearchStats()
        result = batch_radius_search(tree, np.empty((0, 3)), 1.0, stats=stats)
        assert result.n_queries == 0
        assert result.as_lists() == []
        assert stats.queries == 0
        assert stats.leaves_visited == 0

    def test_malformed_queries_rejected(self, tree):
        with pytest.raises(ValueError):
            batch_radius_search(tree, np.zeros((4, 2)), 1.0)


class TestBatchKNNParity:
    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_results_match_per_query(self, tree, queries, k):
        single = [nearest_neighbors(tree, q, k) for q in queries]
        batch = batch_knn(tree, queries, k).as_lists()
        for expected, got in zip(single, batch):
            assert [i for i, _ in expected] == [i for i, _ in got]
            assert [d for _, d in expected] == [d for _, d in got]

    def test_k_larger_than_tree(self, queries):
        small = build_kdtree(np.random.default_rng(3).uniform(-1, 1, (6, 3))
                             .astype(np.float32))
        result = batch_knn(small, queries[:5], k=50)
        assert result.indices.shape == (5, 6)
        for row in result.as_lists():
            assert len(row) == 6
        single = nearest_neighbors(small, queries[0], k=50)
        assert [i for i, _ in single] == [i for i, _ in result.as_lists()[0]]

    def test_invalid_k_rejected(self, tree, queries):
        with pytest.raises(ValueError):
            batch_knn(tree, queries, 0)

    def test_empty_query_batch(self, tree):
        stats = SearchStats()
        result = batch_knn(tree, np.empty((0, 3)), 3, stats=stats)
        assert result.n_queries == 0
        assert result.as_lists() == []
        assert stats.queries == 0

    def test_stats_populated(self, tree, queries):
        stats = SearchStats()
        batch_knn(tree, queries, 5, stats=stats)
        assert stats.queries == len(queries)
        assert stats.leaves_visited >= len(queries)
        assert stats.points_examined > 0


class TestBonsaiBatchParity:
    def test_matches_per_query_bonsai_and_baseline(self, tree, queries):
        per_query = BonsaiRadiusSearch(tree)
        single = [sorted(per_query.search(q, 0.8)) for q in queries]
        searcher = BonsaiBatchSearcher(tree)
        batch = searcher.radius_search(queries, 0.8)
        assert batch.as_lists() == single
        baseline = batch_radius_search(tree, queries, 0.8)
        assert batch.as_lists() == baseline.as_lists()

    def test_bonsai_stats_aggregate_exactly(self, tree, queries):
        per_query = BonsaiRadiusSearch(tree)
        for q in queries:
            per_query.search(q, 0.8)
        searcher = BonsaiBatchSearcher(tree)
        searcher.radius_search(queries, 0.8)
        expected = per_query.bonsai_stats
        got = searcher.bonsai_stats
        assert (got.leaf_visits, got.slices_loaded, got.compressed_bytes_loaded,
                got.points_classified, got.conclusive_in, got.conclusive_out,
                got.inconclusive, got.recompute_bytes_loaded) == \
               (expected.leaf_visits, expected.slices_loaded,
                expected.compressed_bytes_loaded, expected.points_classified,
                expected.conclusive_in, expected.conclusive_out,
                expected.inconclusive, expected.recompute_bytes_loaded)
        assert _stats_tuple(searcher.stats) == _stats_tuple(per_query.stats)

    def test_single_query_wrapper(self, tree, queries):
        searcher = BonsaiBatchSearcher(tree)
        assert searcher.search(queries[0], 0.8) == \
            sorted(radius_search(tree, queries[0], 0.8))


class TestSearchStatsAggregation:
    def test_note_leaf_visits_equals_repeated_single(self):
        a, b = SearchStats(), SearchStats()
        for leaf_id in (3, 0, 3, 3, 5, 3, 3, 3):
            a.note_leaf_visit(leaf_id)
        b.note_leaf_visits(np.array([3, 0, 3, 3]))
        b.note_leaf_visits(np.array([5, 3, 3, 3]))
        assert a.leaves_visited == b.leaves_visited == 8
        assert a.leaf_visit_counts == b.leaf_visit_counts == {3: 6, 0: 1, 5: 1}

    def test_sub_batches_sum_to_full_batch(self, tree, queries):
        full = SearchStats()
        batch_radius_search(tree, queries, 0.8, stats=full)
        merged = SearchStats()
        for chunk in np.array_split(queries, 4):
            part = SearchStats()
            batch_radius_search(tree, chunk, 0.8, stats=part)
            merged.merge(part)
        assert _stats_tuple(merged) == _stats_tuple(full)
        assert merged.leaf_visit_counts == full.leaf_visit_counts

    def test_engine_accumulates_across_calls(self, tree, queries):
        engine = BatchQueryEngine(tree)
        engine.radius_search(queries[:50], 0.8)
        engine.radius_search(queries[50:], 0.8)
        assert engine.stats.queries == len(queries)
