"""The batched kNN's block leaf scan against the slot-scatter scan it replaced.

The batched kNN (:func:`repro.runtime.batch._knn_search`) scans each
(query, row range) pair's leaf-order rows, tightens ``tau`` (each query's
bound on its k-th squared distance) and keeps the points within it.
:func:`repro.runtime.batch._scan_block` does so over a ``(pairs, widest)``
block whose pad columns repeat a pair's last row and read ``inf``.  The
oracle is the scan it replaced: rows expanded with ``segment_rows``, their
distances scattered into a ``(pairs, n_slots)`` matrix of ``inf``.

The two chunk their pairs differently and tighten ``tau`` chunk by chunk,
so the raw candidate lists may differ; every candidate within the final
``tau`` is kept by both, and those are what the selection reads.  So the
tests assert equal ``tau`` bits, equal candidate ``(query, point, d2)`` sets
within it, and equal ``(Q, k)`` selections.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kdtree import build_kdtree
from repro.runtime.batch import LEAF_CHUNK_POINTS, _scan_block, _select_nearest, segment_rows
from repro.runtime.kernels import rowwise_distances2


def _scan_rows_oracle(tree, query_arr, pair_q, first, sizes, width, tau):
    """The earlier slot-scatter scan, tightening ``tau`` in place."""
    arrays = tree.arrays
    points_f64 = tree.points_f64
    n_slots = int(sizes.max()) if sizes.size else 0
    parts: Tuple[List[np.ndarray], ...] = ([], [], [])
    for pairs, rows in segment_rows(first, sizes):
        qs = pair_q[pairs]
        ids = arrays.leaf_points[rows]
        d2 = rowwise_distances2(query_arr[qs], points_f64[ids])
        if width <= n_slots:
            lo, hi = pairs[0], pairs[-1] + 1
            slots = np.full((hi - lo, n_slots), np.inf)
            slots[pairs - lo, rows - first[pairs]] = d2
            np.minimum.at(tau, pair_q[lo:hi],
                          np.partition(slots, width - 1, axis=1)[:, width - 1])
        keep = d2 <= tau[qs]
        for part, values in zip(parts, (qs, ids, d2)):
            part.append(values[keep])
    return tuple(np.concatenate(part) for part in parts)


def _within(found, tau):
    """The candidates within the final ``tau``, sorted by (query, point)."""
    qs, ids, d2 = (np.concatenate(part) for part in zip(*found))
    keep = d2 <= tau[qs]
    qs, ids, d2 = qs[keep], ids[keep], d2[keep]
    order = np.lexsort((ids, qs))
    return qs[order], ids[order], d2[order]


@st.composite
def scans(draw):
    """A lattice cloud with duplicated points, queries on and between its
    nodes (exact distance ties), two rounds of (query, row range) pairs and
    a width from 1 to above ``LEAF_CHUNK_POINTS``."""
    wide = draw(st.integers(0, 5)) == 0
    width = (draw(st.integers(LEAF_CHUNK_POINTS - 3, LEAF_CHUNK_POINTS + 40)) if wide
             else draw(st.integers(1, 24)))
    n_points = (width + draw(st.integers(0, 300)) if wide
                else draw(st.integers(1, 400)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    side = draw(st.integers(1, 6))
    points = rng.integers(0, side, (n_points, 3)).astype(np.float32)
    n_dup = draw(st.integers(0, n_points // 2))
    points[rng.integers(0, n_points, n_dup)] = points[rng.integers(0, n_points, n_dup)]
    n_queries = draw(st.integers(1, 12))
    queries = rng.integers(-1, side + 1, (n_queries, 3)) * 0.5
    if draw(st.booleans()):
        # A far query: every squared distance overflows to inf.
        queries[-1, 0] = 1e200
    rounds = []
    for _ in range(2):
        n_pairs = draw(st.integers(1, 3 if wide else 40))
        pair_q = rng.integers(0, n_queries, n_pairs)
        sizes = rng.integers(1, n_points + 1, n_pairs)
        if wide:
            sizes = np.maximum(sizes, min(width, n_points))
        first = rng.integers(0, n_points - sizes + 1)
        rounds.append((pair_q, first, sizes))
    return points, np.ascontiguousarray(queries, dtype=np.float64), rounds, width


@settings(max_examples=60, deadline=None)
@given(scans())
def test_block_scan_matches_slot_scatter(scan):
    points, queries, rounds, width = scan
    tree = build_kdtree(points)
    tau_block = np.full(len(queries), np.inf)
    tau_slots = tau_block.copy()
    block, slots = [], []
    for pair_q, first, sizes in rounds:
        block.append(_scan_block(tree, queries, pair_q, first, sizes, width, tau_block))
        slots.append(_scan_rows_oracle(tree, queries, pair_q, first, sizes, width,
                                       tau_slots))
        assert np.array_equal(tau_block.view(np.uint64), tau_slots.view(np.uint64))
    got, want = _within(block, tau_block), _within(slots, tau_slots)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert np.array_equal(got[2].view(np.uint64), want[2].view(np.uint64))
    for a, b in zip(_select_nearest(len(queries), width, *got),
                    _select_nearest(len(queries), width, *want)):
        assert np.array_equal(a, b)
