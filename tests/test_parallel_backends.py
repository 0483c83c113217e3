"""Lockdown of the chunk merge and the process-pool utilities.

:class:`~repro.engine.sharded.ShardedPointCloudIndex` processes query
batches in contiguous chunks, tile by tile, and merges the hits; its callers
sum the per-tile statistics; the sweeps run their cells through
:func:`~repro.engine.parallel.process_map`.  This file locks down that the
merge is **order-independent** — any chunking and any order of the per-tile
statistics yield the unsharded index's results and the same totals — and
that the worker-count and process-map utilities keep their contracts.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from repro.core.bonsai_search import BonsaiStats
from repro.engine import PointCloudIndex, ShardedPointCloudIndex
from repro.engine import sharded as sharded_module
from repro.engine.parallel import process_map, resolve_workers
from repro.kdtree import SearchStats, build_kdtree

RADIUS = 0.8


@pytest.fixture(scope="module")
def case():
    """A tree and a 400-query batch to split into chunks."""
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
    """Neither the chunking nor the order of the per-tile parts can change
    any merged output."""

    @pytest.mark.parametrize("inner", ["baseline-batched", "bonsai-batched"])
    def test_shuffled_completion_order_same_merge(self, case, inner,
                                                  monkeypatch):
        tree, queries = case
        want = PointCloudIndex(tree.points).radius_search(queries, RADIUS,
                                                          backend=inner)
        totals = []
        for chunk_queries in (400, 100, 7):
            monkeypatch.setattr(sharded_module, "CHUNK_QUERIES", chunk_queries)
            sharded = ShardedPointCloudIndex(tree.points, tile_size=10.0)
            got = sharded.radius_search(queries, RADIUS, backend=inner)
            assert np.array_equal(got.offsets, want.offsets)
            assert np.array_equal(got.point_indices, want.point_indices)

            # Per-tile statistics merged in tile order, then in shuffled
            # orders: same totals.
            tiles = [index for _, index in sharded.built_tile_indexes()]
            assert len(tiles) > 1
            merges = []
            for seed in (None, 0, 1, 2):
                if seed is not None:
                    np.random.default_rng(seed).shuffle(tiles)
                merged_stats, merged_bonsai = SearchStats(), BonsaiStats()
                for index in tiles:
                    merged_stats.merge(index.search_stats)
                    if index.bonsai_stats is not None:
                        merged_bonsai.merge(index.bonsai_stats)
                merges.append((_stats_tuple(merged_stats),
                               dataclasses.asdict(merged_bonsai)))
            assert all(merge == merges[0] for merge in merges)
            search_totals, bonsai_totals = merges[0]
            assert search_totals[0] > 0  # queries were counted
            if inner.startswith("bonsai"):
                assert bonsai_totals["leaf_visits"] > 0
            totals.append(merges[0])
        # The chunking reaches no counter either.
        assert all(total == totals[0] for total in totals)

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
# Pool utilities
# ----------------------------------------------------------------------
def _slow_echo(item):
    """Completes in *reverse* submission order (later items finish first)."""
    index, total = item
    time.sleep(0.01 * (total - index))
    return index


class TestUtilities:
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
