"""Tests of the compressed (Bonsai) radius search.

The central property — the one the paper's safety argument rests on — is that
the Bonsai search returns *exactly* the same point set as the baseline 32-bit
search, for any cloud and any query.  The per-query Bonsai walk is checked
alone (``radius_search`` with the compressed-leaf inspector) and as the
recorded walk ``ExecutionConfig(hardware=True)`` builds.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bonsai_search import BonsaiLeafInspector, compress_and_record
from repro.core.compressed_leaf import compress_tree
from repro.engine import ExecutionConfig
from repro.kdtree import (
    KDTreeConfig,
    SearchStats,
    build_kdtree,
    radius_search,
)
from repro.hwmodel.cache import HierarchyRecorder


class _BonsaiWalk:
    """The per-query Bonsai walk alone, with no recorder: ``radius_search``
    with the compressed-leaf inspector over the tree compressed in FLOAT16,
    as the recorded walk runs it."""

    def __init__(self, tree):
        compress_and_record(tree)
        self.tree = tree
        self.stats = SearchStats()
        self.inspector = BonsaiLeafInspector(tree.compressed_array)
        self.bonsai_stats = self.inspector.bonsai_stats

    def search(self, query, radius):
        return radius_search(self.tree, query, radius, inspector=self.inspector,
                             stats=self.stats)


class TestEquivalenceWithBaseline:
    def test_identical_results_on_frame(self, frame_tree, filtered_frame):
        tree = build_kdtree(filtered_frame)
        bonsai = _BonsaiWalk(tree)
        for i in range(0, len(filtered_frame), 37):
            query = filtered_frame[i]
            expected = sorted(radius_search(tree, query, 0.6))
            got = sorted(bonsai.search(query, 0.6))
            assert got == expected

    def test_identical_results_various_radii(self, random_tree, random_cloud):
        tree = build_kdtree(random_cloud)
        bonsai = _BonsaiWalk(tree)
        for radius in (0.1, 0.5, 1.0, 3.0, 10.0):
            for i in range(0, len(random_cloud), 101):
                query = random_cloud[i]
                assert sorted(bonsai.search(query, radius)) == sorted(
                    radius_search(tree, query, radius)
                )

    def test_query_not_in_cloud(self, random_cloud):
        tree = build_kdtree(random_cloud)
        bonsai = _BonsaiWalk(tree)
        query = np.array([3.3, -7.7, 0.2])
        assert sorted(bonsai.search(query, 2.0)) == sorted(radius_search(tree, query, 2.0))

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_points=st.integers(min_value=5, max_value=150),
        radius=st.floats(min_value=0.05, max_value=8.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_equivalence_property(self, seed, n_points, radius):
        rng = np.random.default_rng(seed)
        n_clusters = max(1, n_points // 20)
        centers = rng.uniform(-60, 60, size=(n_clusters, 3))
        points = np.vstack([
            centers[i % n_clusters] + rng.normal(0.0, 0.8, size=3) for i in range(n_points)
        ]).astype(np.float32)
        tree = build_kdtree(points)
        bonsai = _BonsaiWalk(tree)
        brute = None
        for qi in range(0, n_points, max(1, n_points // 7)):
            query = points[qi]
            baseline = sorted(radius_search(tree, query, radius))
            got = sorted(bonsai.search(query, radius))
            assert got == baseline
            # Cross-check the baseline itself against brute force.
            diffs = points.astype(np.float64) - query.astype(np.float64)
            d2 = np.einsum("ij,ij->i", diffs, diffs)
            brute = sorted(np.nonzero(d2 <= radius * radius)[0].tolist())
            assert baseline == brute


class TestBonsaiCounters:
    def test_recompute_rate_is_small_on_frames(self, filtered_frame):
        """The paper reports 0.37% of classifications fall in the shell."""
        tree = build_kdtree(filtered_frame)
        bonsai = _BonsaiWalk(tree)
        for i in range(0, len(filtered_frame), 11):
            bonsai.search(filtered_frame[i], 0.6)
        stats = bonsai.bonsai_stats
        assert stats.points_classified > 0
        assert stats.inconclusive_rate < 0.02

    def test_counter_consistency(self, filtered_frame):
        tree = build_kdtree(filtered_frame)
        bonsai = _BonsaiWalk(tree)
        for i in range(0, len(filtered_frame), 53):
            bonsai.search(filtered_frame[i], 0.6)
        stats = bonsai.bonsai_stats
        assert stats.conclusive_in + stats.conclusive_out + stats.inconclusive == \
            stats.points_classified
        assert stats.compressed_bytes_loaded == stats.slices_loaded * 16
        assert stats.total_point_bytes_loaded >= stats.compressed_bytes_loaded

    def test_bytes_loaded_less_than_baseline(self, filtered_frame):
        """Figure 9b: compressed leaf fetches move far fewer bytes."""
        tree = build_kdtree(filtered_frame)
        baseline_stats = SearchStats()
        for i in range(0, len(filtered_frame), 13):
            radius_search(tree, filtered_frame[i], 0.6, stats=baseline_stats)
        bonsai = _BonsaiWalk(tree)
        for i in range(0, len(filtered_frame), 13):
            bonsai.search(filtered_frame[i], 0.6)
        assert bonsai.stats.point_bytes_loaded < 0.6 * baseline_stats.point_bytes_loaded

    def test_existing_compressed_array_reused(self, random_cloud):
        tree = build_kdtree(random_cloud)
        compress_tree(tree)
        bonsai = ExecutionConfig(backend="bonsai-batched",
                                 hardware=True).make_backend(tree)
        assert bonsai.report is None  # compression not repeated
        query = random_cloud[0]
        assert sorted(bonsai.search(query, 1.0)) == sorted(radius_search(tree, query, 1.0))


class TestBonsaiLeafInspectorWithoutArray:
    def test_uncompressed_tree_is_refused(self, random_cloud):
        tree = build_kdtree(random_cloud)  # never compressed
        inspector = BonsaiLeafInspector()
        with pytest.raises(ValueError, match="compress_tree"):
            radius_search(tree, random_cloud[5], 1.5, inspector=inspector)
        assert inspector.bonsai_stats.leaf_visits == 0


class TestBonsaiWithRecorder:
    def test_recorder_sees_compressed_and_recompute_loads(self, filtered_frame):
        tree = build_kdtree(filtered_frame)
        recorder = HierarchyRecorder()
        bonsai = ExecutionConfig(backend="bonsai-batched").make_backend(
            tree, recorder=recorder)
        searcher_recorder_stats_before = recorder.stats.loads
        for i in range(0, len(filtered_frame), 29):
            bonsai.search(filtered_frame[i], 0.6)
        assert recorder.stats.loads > searcher_recorder_stats_before
        assert recorder.stats.l1_accesses > 0

    def test_compression_pass_traced(self, filtered_frame):
        tree = build_kdtree(filtered_frame)
        recorder = HierarchyRecorder()
        ExecutionConfig(backend="bonsai-batched").make_backend(tree, recorder=recorder)
        # The compression pass loads every point once and stores the slices.
        assert recorder.stats.loads >= tree.n_points
        assert recorder.stats.stores > 0

    def test_precompressed_tree_records_nothing(self, random_cloud):
        """An offline-compressed map contributes no compression traffic."""
        tree = build_kdtree(random_cloud)
        compress_tree(tree)
        recorder = HierarchyRecorder()
        assert compress_and_record(tree, recorder=recorder) is None
        assert recorder.stats.loads == recorder.stats.stores == 0
