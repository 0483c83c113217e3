"""Property-style batch/per-query parity across the scenario library.

PR 1 proved exact parity of the batched query engine against the per-query
reference paths — on one urban point distribution.  These tests re-assert
the property over the whole scenario library and randomized query sets:
for seeded random (scenario, seed) cases, the ``baseline-batched`` and
``bonsai-batched`` backends must return exactly what the per-query paths
return, and the aggregated ``SearchStats`` / ``BonsaiStats``
must match counter for counter.

A compact three-scenario slice runs in tier-1; the full scenario x seed
sweep is marked ``slow`` (run it with ``pytest -m slow``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ExecutionConfig, get_backend
from repro.kdtree import SearchStats, build_kdtree, nearest_neighbors, radius_search
from repro.pointcloud import preprocess_for_clustering
from repro.scenarios import build_sequence, scenario_names

#: Scenarios covering the distribution extremes in tier-1: dense indoor,
#: long/thin outdoor, and the urban reference.
TIER1_SCENARIOS = ("urban", "warehouse_indoor", "highway")
TIER1_SEEDS = (3, 11)


def _make_case(scenario: str, seed: int, n_beams: int = 14,
               n_azimuth_steps: int = 120, n_queries: int = 80):
    """Deterministic (tree, queries, radius, k) drawn from the case seed."""
    sequence = build_sequence(scenario, n_frames=2, seed=seed,
                              n_beams=n_beams, n_azimuth_steps=n_azimuth_steps)
    cloud = preprocess_for_clustering(sequence.frame(1))
    tree = build_kdtree(cloud)
    rng = np.random.default_rng(seed * 7919 + 13)
    base = cloud.points[rng.integers(0, len(cloud), n_queries)]
    queries = base.astype(np.float64) + rng.normal(0.0, 0.4, base.shape)
    radius = float(rng.uniform(0.3, 1.2))
    k = int(rng.integers(1, 8))
    return tree, queries, radius, k


@pytest.fixture(scope="module", params=[(s, seed) for s in TIER1_SCENARIOS
                                        for seed in TIER1_SEEDS],
                ids=lambda case: f"{case[0]}-seed{case[1]}")
def case(request):
    return _make_case(*request.param)


def _stats_tuple(stats: SearchStats):
    return (stats.queries, stats.leaves_visited, stats.interior_visited,
            stats.points_examined, stats.points_in_radius,
            stats.point_bytes_loaded)


def _assert_radius_parity(tree, queries, radius):
    single_stats = SearchStats()
    single = [sorted(radius_search(tree, q, radius, stats=single_stats))
              for q in queries]
    batch_stats = SearchStats()
    batch = get_backend("baseline-batched", tree,
                        stats=batch_stats).radius_search(queries, radius)
    assert batch.as_lists() == single
    assert _stats_tuple(batch_stats) == _stats_tuple(single_stats)
    assert batch_stats.leaf_visit_counts == single_stats.leaf_visit_counts


def _assert_knn_parity(tree, queries, k):
    single = [nearest_neighbors(tree, q, k) for q in queries]
    batch = get_backend("baseline-batched", tree).knn(queries, k).as_lists()
    for expected, got in zip(single, batch):
        assert [i for i, _ in expected] == [i for i, _ in got]
        assert [d for _, d in expected] == [d for _, d in got]


def _assert_bonsai_parity(tree, queries, radius):
    per_query = ExecutionConfig(backend="bonsai-batched",
                                hardware=True).make_backend(tree)
    single = [sorted(per_query.search(q, radius)) for q in queries]
    batch = get_backend("bonsai-batched", tree)
    result = batch.radius_search(queries, radius)
    assert result.as_lists() == single
    assert _stats_tuple(batch.stats) == _stats_tuple(per_query.stats)
    expected, got = per_query.bonsai_stats, batch.bonsai_stats
    assert (got.leaf_visits, got.slices_loaded, got.compressed_bytes_loaded,
            got.points_classified, got.conclusive_in, got.conclusive_out,
            got.inconclusive, got.recompute_bytes_loaded) == \
           (expected.leaf_visits, expected.slices_loaded,
            expected.compressed_bytes_loaded, expected.points_classified,
            expected.conclusive_in, expected.conclusive_out,
            expected.inconclusive, expected.recompute_bytes_loaded)


class TestTier1Parity:
    """Randomized parity on the three-scenario tier-1 slice."""

    def test_radius_matches_per_query(self, case):
        tree, queries, radius, _ = case
        _assert_radius_parity(tree, queries, radius)

    def test_knn_matches_per_query(self, case):
        tree, queries, _, k = case
        _assert_knn_parity(tree, queries, k)

    def test_bonsai_matches_per_query(self, case):
        tree, queries, radius, _ = case
        _assert_bonsai_parity(tree, queries, radius)

    def test_bonsai_matches_baseline_results(self, case):
        tree, queries, radius, _ = case
        baseline = get_backend("baseline-batched", tree).radius_search(queries, radius)
        bonsai = get_backend("bonsai-batched", tree).radius_search(queries, radius)
        assert bonsai.as_lists() == baseline.as_lists()


@pytest.mark.slow
@pytest.mark.parametrize("scenario", scenario_names())
@pytest.mark.parametrize("seed", (1, 5, 23))
def test_full_scenario_sweep_parity(scenario, seed):
    """The full matrix: every registered world, several seeds, denser frames."""
    tree, queries, radius, k = _make_case(
        scenario, seed, n_beams=20, n_azimuth_steps=220, n_queries=150)
    _assert_radius_parity(tree, queries, radius)
    _assert_knn_parity(tree, queries, k)
    _assert_bonsai_parity(tree, queries, radius)
