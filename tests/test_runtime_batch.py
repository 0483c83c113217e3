"""Tests of the batched backends (:mod:`repro.runtime`).

Their contract is *exact parity*: batched radius and kNN queries must
return precisely what the per-query reference paths return, and the
``SearchStats`` counters must aggregate as if the queries had been issued one
by one (exactly for radius search, approximately for kNN, whose batched
traversal bounds each query from its home leaf and tightens per level).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.engine import ExecutionConfig, get_backend
from repro.kdtree import (
    SearchStats,
    build_kdtree,
    nearest_neighbors,
    radius_search,
)
from repro.scenarios import get_scenario
from repro.scenarios.map_scale import sample_map_cloud


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
        batch = get_backend("baseline-batched", tree).radius_search(queries, radius)
        assert batch.as_lists() == single

    def test_stats_aggregate_exactly(self, tree, queries):
        single_stats = SearchStats()
        for q in queries:
            radius_search(tree, q, 0.8, stats=single_stats)
        batch_stats = SearchStats()
        get_backend("baseline-batched", tree, stats=batch_stats).radius_search(queries, 0.8)
        assert _stats_tuple(batch_stats) == _stats_tuple(single_stats)
        assert batch_stats.leaf_visit_counts == single_stats.leaf_visit_counts

    def test_query_point_finds_itself(self, tree, cloud):
        result = get_backend("baseline-batched", tree).radius_search(cloud[:20], 0.1)
        for i in range(20):
            assert i in result.indices_for(i)

    def test_csr_offsets_consistent(self, tree, queries):
        result = get_backend("baseline-batched", tree).radius_search(queries, 0.8)
        assert result.offsets[0] == 0
        assert result.offsets[-1] == result.point_indices.shape[0]
        assert np.all(np.diff(result.offsets) == result.counts)
        assert result.total_matches == int(result.counts.sum())

    def test_zero_radius_rejected(self, tree, queries):
        with pytest.raises(ValueError):
            get_backend("baseline-batched", tree).radius_search(queries, 0.0)
        with pytest.raises(ValueError):
            get_backend("baseline-batched", tree).radius_search(queries, -1.0)

    def test_empty_query_batch(self, tree):
        stats = SearchStats()
        result = get_backend("baseline-batched", tree, stats=stats).radius_search(
            np.empty((0, 3)), 1.0)
        assert result.n_queries == 0
        assert result.as_lists() == []
        assert stats.queries == 0
        assert stats.leaves_visited == 0

    def test_malformed_queries_rejected(self, tree):
        with pytest.raises(ValueError):
            get_backend("baseline-batched", tree).radius_search(np.zeros((4, 2)), 1.0)


class TestBatchKNNParity:
    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_results_match_per_query(self, tree, queries, k):
        single = [nearest_neighbors(tree, q, k) for q in queries]
        batch = get_backend("baseline-batched", tree).knn(queries, k).as_lists()
        for expected, got in zip(single, batch):
            assert [i for i, _ in expected] == [i for i, _ in got]
            assert [d for _, d in expected] == [d for _, d in got]

    def test_k_larger_than_tree(self, queries):
        small = build_kdtree(np.random.default_rng(3).uniform(-1, 1, (6, 3))
                             .astype(np.float32))
        result = get_backend("baseline-batched", small).knn(queries[:5], k=50)
        assert result.indices.shape == (5, 6)
        for row in result.as_lists():
            assert len(row) == 6
        single = nearest_neighbors(small, queries[0], k=50)
        assert [i for i, _ in single] == [i for i, _ in result.as_lists()[0]]

    def test_invalid_k_rejected(self, tree, queries):
        with pytest.raises(ValueError):
            get_backend("baseline-batched", tree).knn(queries, 0)

    def test_empty_query_batch(self, tree):
        stats = SearchStats()
        result = get_backend("baseline-batched", tree, stats=stats).knn(np.empty((0, 3)), 3)
        assert result.n_queries == 0
        assert result.as_lists() == []
        assert stats.queries == 0

    def test_stats_populated(self, tree, queries):
        stats = SearchStats()
        get_backend("baseline-batched", tree, stats=stats).knn(queries, 5)
        assert stats.queries == len(queries)
        assert stats.leaves_visited >= len(queries)
        assert stats.points_examined > 0


#: Batched kNN counters on a 20k-point ``city_block`` map (seed 3) for 256
#: jittered map points (seed 41), as the slot-scatter leaf scan and the dict
#: leaf counts charged them: ``(queries, leaves_visited, interior_visited,
#: points_examined, distinct leaves, digest of the sorted leaf counts)``.
KNN_COUNTER_PINS = {
    1: (256, 1215, 3332, 12332, 893, "aaa70954a8045639"),
    5: (256, 1650, 4685, 16853, 1099, "09eb7bed807eb5f7"),
    20: (256, 3277, 7801, 33599, 1594, "7b5e78c91d989b9c"),
}


class TestKNNCounterPins:
    """The batched kNN's counters on a map-scale tree, both backends."""

    @pytest.fixture(scope="class")
    def city_map(self):
        points = sample_map_cloud(get_scenario("city_block").scene(), 20_000, seed=3)
        rng = np.random.default_rng(41)
        queries = (points[rng.integers(len(points), size=256)].astype(np.float64)
                   + rng.normal(0.0, 0.1, (256, 3)))
        return build_kdtree(points), queries

    @pytest.mark.parametrize("name", ["baseline-batched", "bonsai-batched"])
    @pytest.mark.parametrize("k", sorted(KNN_COUNTER_PINS))
    def test_counters_are_pinned(self, city_map, k, name):
        tree, queries = city_map
        stats = SearchStats()
        get_backend(name, tree, stats=stats).knn(queries, k)
        counts = stats.leaf_visit_counts
        digest = hashlib.sha256(repr(sorted(counts.items())).encode()).hexdigest()
        assert (stats.queries, stats.leaves_visited, stats.interior_visited,
                stats.points_examined, len(counts), digest[:16]) == KNN_COUNTER_PINS[k]
        assert stats.leaves_visited == sum(counts.values())


def _recorded_bonsai(tree):
    """The recorded per-query Bonsai walk over ``tree``."""
    return ExecutionConfig(backend="bonsai-batched", hardware=True).make_backend(tree)


class TestBonsaiBatchParity:
    def test_matches_per_query_bonsai_and_baseline(self, tree, queries):
        per_query = _recorded_bonsai(tree)
        single = [sorted(per_query.search(q, 0.8)) for q in queries]
        searcher = get_backend("bonsai-batched", tree)
        batch = searcher.radius_search(queries, 0.8)
        assert batch.as_lists() == single
        baseline = get_backend("baseline-batched", tree).radius_search(queries, 0.8)
        assert batch.as_lists() == baseline.as_lists()

    def test_bonsai_stats_aggregate_exactly(self, tree, queries):
        per_query = _recorded_bonsai(tree)
        for q in queries:
            per_query.search(q, 0.8)
        searcher = get_backend("bonsai-batched", tree)
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

    def test_single_point_query(self, tree, queries):
        """One query given as a point is a batch of one."""
        searcher = get_backend("bonsai-batched", tree)
        assert searcher.radius_search(queries[0], 0.8).indices_for(0).tolist() == \
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

    def test_note_leaf_visit_grows_the_counts(self):
        stats = SearchStats()
        stats.note_leaf_visit(2)
        stats.note_leaf_visit(40)
        stats.note_leaf_visit(2)
        assert stats.visits_by_leaf.shape[0] >= 41
        assert stats.leaf_visit_counts == {2: 2, 40: 1}
        assert stats.mean_visits_per_leaf == 1.5

    def test_merge_pads_the_shorter_counts(self):
        short, long = SearchStats(), SearchStats()
        short.note_leaf_visits(np.array([0, 1, 1]))
        long.note_leaf_visits(np.array([1, 9, 9, 9]))
        merged = SearchStats()
        merged.merge(short)
        merged.merge(long)
        assert merged.leaf_visit_counts == {0: 1, 1: 3, 9: 3}
        long.merge(short)
        assert long.leaf_visit_counts == merged.leaf_visit_counts
        assert long.leaves_visited == merged.leaves_visited == 7
        assert long.mean_visits_per_leaf == merged.mean_visits_per_leaf == 7 / 3

    def test_equality_is_by_value(self):
        a = SearchStats()
        a.note_leaf_visits(np.array([3, 3, 0]))
        # Trailing zero counts are no visits.
        b = SearchStats(leaves_visited=3, visits_by_leaf=np.array([1, 0, 0, 2, 0, 0]))
        assert a == b
        b.note_leaf_visit(5)
        assert a != b
        a.leaves_visited += 1
        assert a != b
        a.note_leaf_visit(5)
        a.leaves_visited -= 1
        assert a == b
        b.interior_visited += 1
        assert a != b
        assert a != "stats"

    def test_sub_batches_sum_to_full_batch(self, tree, queries):
        full = SearchStats()
        get_backend("baseline-batched", tree, stats=full).radius_search(queries, 0.8)
        merged = SearchStats()
        for chunk in np.array_split(queries, 4):
            part = SearchStats()
            get_backend("baseline-batched", tree, stats=part).radius_search(chunk, 0.8)
            merged.merge(part)
        assert _stats_tuple(merged) == _stats_tuple(full)
        assert merged.leaf_visit_counts == full.leaf_visit_counts

    def test_engine_accumulates_across_calls(self, tree, queries):
        engine = get_backend("baseline-batched", tree)
        engine.radius_search(queries[:50], 0.8)
        engine.radius_search(queries[50:], 0.8)
        assert engine.stats.queries == len(queries)
