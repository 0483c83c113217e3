"""Property-based edge tests of the sharded index's chunked queries.

:class:`~repro.engine.sharded.ShardedPointCloudIndex` serves a query batch
in contiguous chunks of at most ``CHUNK_QUERIES`` queries and assembles the
chunks' hits in one CSR pass.  The invariant: *any* chunk size gives results
bitwise identical to the unsharded :class:`~repro.engine.index.PointCloudIndex`
over the same cloud.  Hypothesis drives the chunk size through the edges a
fixed unit test would miss — empty batches, single-query chunks, zero-hit
chunks and as many chunks as queries.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import PointCloudIndex, ShardedPointCloudIndex
from repro.engine import sharded as sharded_module
from repro.engine.sharded import _query_chunks

RADIUS = 0.45


@pytest.fixture(scope="module")
def case():
    rng = np.random.default_rng(17)
    points = rng.uniform(-6.0, 6.0, (300, 3)).astype(np.float32)
    # Duplicate a slab of points so hits at equal distances occur.
    points[150:180] = points[0:30]
    queries = np.vstack([
        points[:50].astype(np.float64) + rng.normal(0.0, 0.2, (50, 3)),
        rng.uniform(40.0, 50.0, (6, 3)),  # far away: zero radius hits
    ])
    # 3 m tiles: a 12 m cloud spans 16 tiles, so queries cross tiles.
    sharded = ShardedPointCloudIndex(points, tile_size=3.0)
    return sharded, PointCloudIndex(points), queries


def _radius_equal(got, want):
    assert np.array_equal(got.offsets, want.offsets)
    assert np.array_equal(got.point_indices, want.point_indices)


class TestPlanShards:
    @given(n_queries=st.integers(min_value=1, max_value=200),
           chunk_queries=st.integers(min_value=1, max_value=400))
    def test_plan_covers_batch_contiguously(self, n_queries, chunk_queries):
        chunks = _query_chunks(n_queries, chunk_queries)
        # Contiguous, disjoint, covering, never empty, never over-full.
        assert chunks[0][0] == 0 and chunks[-1][1] == n_queries
        for (start, stop), (next_start, _) in zip(chunks, chunks[1:]):
            assert stop == next_start
        assert all(0 < stop - start <= chunk_queries for start, stop in chunks)
        assert len(chunks) == -(-n_queries // chunk_queries)

    def test_shard_count_clamped_to_query_count(self):
        assert len(_query_chunks(3, 1)) == 3
        assert _query_chunks(1, 9) == [(0, 1)]
        assert _query_chunks(5, 5) == [(0, 5)]


class TestMergeRadiusShards:
    @settings(max_examples=40, deadline=None)
    @given(chunk_queries=st.integers(min_value=1, max_value=60))
    def test_any_contiguous_split_merges_bitwise(self, case, chunk_queries):
        sharded, flat, queries = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sharded_module, "CHUNK_QUERIES", chunk_queries)
            got = sharded.radius_search(queries, RADIUS)
        _radius_equal(got, flat.radius_search(queries, RADIUS))

    def test_empty_shard_list_is_an_empty_batch(self, case):
        sharded, _, _ = case
        result = sharded.radius_search(np.empty((0, 3)), RADIUS)
        assert result.n_queries == 0
        assert result.offsets.shape == (1,)
        assert result.point_indices.shape == (0,)

    def test_single_query_shards(self, case, monkeypatch):
        sharded, flat, queries = case
        monkeypatch.setattr(sharded_module, "CHUNK_QUERIES", 1)
        _radius_equal(sharded.radius_search(queries, RADIUS),
                      flat.radius_search(queries, RADIUS))

    def test_zero_hit_shards_keep_offsets_aligned(self, case, monkeypatch):
        sharded, flat, queries = case
        # 56 queries in chunks of at most 6: the last chunk holds exactly
        # the six far-away queries, so it contributes no hit at all.
        monkeypatch.setattr(sharded_module, "CHUNK_QUERIES", 6)
        assert _query_chunks(queries.shape[0], 6)[-1] == (50, 56)
        assert flat.radius_search(queries[-6:], RADIUS).total_matches == 0
        got = sharded.radius_search(queries, RADIUS)
        _radius_equal(got, flat.radius_search(queries, RADIUS))
        assert np.all(got.counts[-6:] == 0)
