"""Lockdown of the shard-merge contract and the process-pool utilities.

:class:`~repro.engine.sharded.ShardedPointCloudIndex` processes query
batches in contiguous chunks and merges them through
:func:`~repro.engine.parallel.merge_radius_shards` /
:func:`~repro.engine.parallel.merge_knn_shards`; the sweeps run their cells
through :func:`~repro.engine.parallel.process_map`.  This file locks down
that the merge is **order-independent** — shuffled completion order yields
identical merged results and statistics — and that the worker-count and
process-map utilities keep their contracts.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from repro.engine import get_backend
from repro.engine.parallel import (
    merge_knn_shards,
    merge_radius_shards,
    plan_shards,
    process_map,
    resolve_workers,
)
from repro.kdtree import SearchStats, build_kdtree

RADIUS = 0.8
K = 6


@pytest.fixture(scope="module")
def case():
    """A tree and a 400-query batch to split into shards."""
    rng = np.random.default_rng(11)
    points = rng.uniform(-15.0, 15.0, (5000, 3)).astype(np.float32)
    tree = build_kdtree(points)
    base = points[rng.integers(0, len(points), 400)]
    queries = base.astype(np.float64) + rng.normal(0.0, 0.3, base.shape)
    return tree, queries


def _stats_tuple(stats: SearchStats):
    return (stats.queries, stats.leaves_visited, stats.interior_visited,
            stats.points_examined, stats.points_in_radius,
            stats.point_bytes_loaded, stats.leaf_visit_counts)


# ----------------------------------------------------------------------
# Order independence of the merge
# ----------------------------------------------------------------------
class TestOrderIndependence:
    """Shuffled worker completion order cannot change any merged output."""

    def _shard_parts(self, tree, queries, inner_name):
        parts = []
        for start, stop in plan_shards(queries.shape[0], 4):
            stats = SearchStats()
            backend = get_backend(inner_name, tree, stats=stats)
            result = backend.radius_search(queries[start:stop], RADIUS)
            parts.append((result, stats, backend.bonsai_stats))
        return parts

    @pytest.mark.parametrize("inner", ["baseline-batched", "bonsai-batched"])
    def test_shuffled_completion_order_same_merge(self, case, inner):
        tree, queries = case
        want = get_backend(inner, tree).radius_search(queries, RADIUS)
        want_stats = SearchStats()
        get_backend(inner, tree, stats=want_stats).radius_search(queries, RADIUS)

        parts = self._shard_parts(tree, queries, inner)
        for seed in (0, 1, 2):
            # Simulate parts finishing in arbitrary order: shuffle the
            # (index, part) arrivals, then merge results by shard index and
            # statistics by commutative merge in arrival order.
            arrivals = list(enumerate(parts))
            np.random.default_rng(seed).shuffle(arrivals)
            by_index = [part for _, part in sorted(arrivals, key=lambda a: a[0])]
            merged = merge_radius_shards([result for result, _, _ in by_index])
            assert np.array_equal(merged.offsets, want.offsets)
            assert np.array_equal(merged.point_indices, want.point_indices)

            merged_stats = SearchStats()
            merged_bonsai = None
            for _, (_, stats, bonsai) in arrivals:
                merged_stats.merge(stats)
                if bonsai is not None:
                    if merged_bonsai is None:
                        from repro.core.bonsai_search import BonsaiStats
                        merged_bonsai = BonsaiStats()
                    merged_bonsai.merge(bonsai)
            assert _stats_tuple(merged_stats) == _stats_tuple(want_stats)
            if merged_bonsai is not None:
                reference = get_backend(inner, tree)
                reference.radius_search(queries, RADIUS)
                assert dataclasses.asdict(merged_bonsai) == \
                    dataclasses.asdict(reference.bonsai_stats)

    def test_knn_merge_is_pure_row_stacking(self, case):
        tree, queries = case
        want = get_backend("baseline-batched", tree).knn(queries, K)
        shards = []
        for start, stop in plan_shards(queries.shape[0], 5):
            shards.append(get_backend("baseline-batched", tree)
                          .knn(queries[start:stop], K))
        merged = merge_knn_shards(shards)
        assert np.array_equal(merged.indices, want.indices)
        assert np.array_equal(merged.distances, want.distances)

    def test_hierarchy_stats_merge_commutes(self, case):
        """The sweep's HierarchyStats merge is order-insensitive too."""
        from repro.engine import ExecutionConfig

        tree, queries = case
        halves = []
        for chunk in (queries[:40], queries[40:80]):
            backend = ExecutionConfig(hardware=True).make_backend(tree)
            backend.radius_search(chunk, RADIUS)
            halves.append(backend.hierarchy)
        from repro.hwmodel.cache import HierarchyStats
        ab, ba = HierarchyStats(), HierarchyStats()
        ab.merge(halves[0]); ab.merge(halves[1])
        ba.merge(halves[1]); ba.merge(halves[0])
        assert dataclasses.asdict(ab) == dataclasses.asdict(ba)


# ----------------------------------------------------------------------
# Shard planning and pool utilities
# ----------------------------------------------------------------------
def _slow_echo(item):
    """Completes in *reverse* submission order (later items finish first)."""
    index, total = item
    time.sleep(0.01 * (total - index))
    return index


class TestUtilities:
    def test_plan_shards_contiguous_and_complete(self):
        for n, k in ((400, 4), (5, 8), (1, 3), (97, 3)):
            shards = plan_shards(n, k)
            assert shards[0][0] == 0 and shards[-1][1] == n
            assert all(stop > start for start, stop in shards)
            assert all(shards[i][1] == shards[i + 1][0]
                       for i in range(len(shards) - 1))
            assert len(shards) == min(n, k)
        assert plan_shards(0, 4) == []

    def test_resolve_workers_precedence(self, monkeypatch):
        assert resolve_workers(3) == 3
        with pytest.raises(ValueError):
            resolve_workers(0)
        monkeypatch.setenv("REPRO_MP_WORKERS", "7")
        assert resolve_workers() == 7
        monkeypatch.delenv("REPRO_MP_WORKERS")
        assert resolve_workers() >= 2

    @pytest.mark.parametrize("garbage", ["four", "0", "-2", "2.5", "1e1"])
    def test_resolve_workers_rejects_garbage_env(self, monkeypatch, garbage):
        """A broken REPRO_MP_WORKERS must fail loudly, naming the variable.

        Regression: non-numeric values used to escape as raw ValueError
        from ``int()`` and non-positive ones crashed the pool later with
        an inscrutable multiprocessing error.
        """
        monkeypatch.setenv("REPRO_MP_WORKERS", garbage)
        with pytest.raises(ValueError, match="REPRO_MP_WORKERS"):
            resolve_workers()

    def test_resolve_workers_blank_env_means_unset(self, monkeypatch):
        """Whitespace-only values behave like the variable being absent."""
        for blank in ("", "   ", "\t"):
            monkeypatch.setenv("REPRO_MP_WORKERS", blank)
            assert resolve_workers() >= 2
        # An explicit n_workers still wins over a (valid) env value.
        monkeypatch.setenv("REPRO_MP_WORKERS", "7")
        assert resolve_workers(2) == 2

    def test_process_map_preserves_item_order(self):
        """Results come back in item order even when completion inverts it."""
        items = [(i, 6) for i in range(6)]
        assert process_map(_slow_echo, items, n_jobs=3) == list(range(6))

    def test_process_map_serial_fallback(self):
        items = [(i, 2) for i in range(2)]
        assert process_map(_slow_echo, items, n_jobs=1) == [0, 1]
