"""The Bonsai leaf pass's shell kernel and the radius CSR assembly, bit for bit.

Both Bonsai searches, the per-query inspector and the batched leaf pass, run
one kernel, :func:`repro.runtime.kernels.shell_distances`, on their
``query - reduced`` differences: it builds the Eq. 11 bound in that buffer
and adds it as ``(e0 + e1) + e2``.
The batched radius searches and the sharded index assemble their hits with
one sort of an int64 ``query * n_points + point`` key.  The oracles here are
the arithmetic those replaced: :func:`~repro.runtime.kernels.batch_shell_distances`
(the ``(Q, M)`` matrix form), and copies of the earlier row expression, the
three-mask shell classification and the lexsort CSR assembly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compressed_leaf import compress_tree
from repro.core.floatfmt import BFLOAT16, FLOAT16, FLOAT24, FLOAT32
from repro.kdtree import build_kdtree
from repro.runtime.batch import _build_radius_result
from repro.runtime.kernels import batch_shell_distances, shell_classify, shell_distances
from test_flat_traversal import _world

FORMATS = {fmt.name: fmt for fmt in (FLOAT16, BFLOAT16, FLOAT24, FLOAT32)}


def _row_shell_oracle(reduced, queries, max_delta):
    """The earlier row kernel: a fresh Eq. 11 array summed with ``.sum``."""
    diffs = np.ascontiguousarray(queries - reduced)
    d2_approx = np.einsum("nd,nd->n", diffs, diffs)
    max_delta = np.asarray(max_delta, dtype=np.float64)
    return d2_approx, (2.0 * np.abs(diffs) * max_delta + max_delta * max_delta).sum(axis=-1)


def _classify_oracle(d2_approx, eps, r2):
    """The earlier classification: ``(conclusive_in, inconclusive)`` of three masks."""
    conclusive_in = d2_approx <= r2 - eps
    conclusive_out = d2_approx > r2 + eps
    return conclusive_in, ~(conclusive_in | conclusive_out)


def _lexsort_oracle(n_queries, hit_queries, hit_points):
    """The earlier CSR assembly: a lexsort of the (query, point) pairs."""
    flat_q = np.concatenate(hit_queries)
    flat_p = np.concatenate(hit_points)
    flat_p = flat_p[np.lexsort((flat_p, flat_q))]
    offsets = np.zeros(n_queries + 1, dtype=np.intp)
    np.cumsum(np.bincount(flat_q, minlength=n_queries), out=offsets[1:])
    return offsets, flat_p


def _gathered(queries, query_rows, reduced, max_delta, rows):
    """The kernel on gathered row pairs, as the batched leaf pass runs it."""
    diffs = queries.take(query_rows, axis=0)
    diffs -= reduced.take(rows, axis=0)
    return shell_distances(diffs, max_delta.take(rows, axis=0))


def _bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def _edge_cloud() -> np.ndarray:
    """Random points plus the reduced formats' edge values.

    Signed zeros, float32 subnormals (bfloat16's smallest bound, 2**-134,
    whose square needs float64), values that overflow or underflow fp16, and
    exact binade edges.
    """
    rng = np.random.default_rng(19)
    spread = rng.uniform(-70.0, 70.0, (90, 3))
    edges = np.array([
        [0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [1e-40, -1e-40, 0.0],
        [2.0 ** -130, -(2.0 ** -126), 2.0 ** -149], [1e-7, -3e-6, 6e-5],
        [70000.0, -1.0, 65504.0], [1.0, 2.0, 4.0], [-0.5, 0.25, 1024.0],
    ])
    return np.vstack([spread, edges, edges * 3.0]).astype(np.float32)


def _mirror(points: np.ndarray, fmt):
    tree = build_kdtree(points)
    compress_tree(tree, fmt)
    mirror = tree.compressed_array.mirror
    assert mirror.reduced.dtype == (np.float64 if fmt is FLOAT32 else np.float32)
    return mirror


def _queries(points: np.ndarray) -> np.ndarray:
    rng = np.random.default_rng(23)
    near = points[::3].astype(np.float64) + rng.normal(0.0, 0.75, (len(points[::3]), 3))
    return np.vstack([near, points[-16:].astype(np.float64),
                      [[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [-0.0, 0.0, -0.0]]])


def _all_pairs(n_queries: int, n_rows: int):
    q, rows = np.meshgrid(np.arange(n_queries), np.arange(n_rows), indexing="ij")
    return q.ravel(), rows.ravel()


@pytest.fixture(scope="module", params=sorted(FORMATS))
def edge_mirror(request):
    points = _edge_cloud()
    return _mirror(points, FORMATS[request.param]), _queries(points)


class TestShellKernel:
    def test_every_pair_equals_both_oracles(self, edge_mirror):
        mirror, queries = edge_mirror
        q, rows = _all_pairs(len(queries), len(mirror.reduced))
        d2, eps = _gathered(queries, q, mirror.reduced, mirror.max_delta, rows)
        want_d2, want_eps = _row_shell_oracle(mirror.reduced[rows], queries[q],
                                              mirror.max_delta[rows])
        assert np.array_equal(_bits(d2), _bits(want_d2))
        assert np.array_equal(_bits(eps), _bits(want_eps))
        matrix_d2, matrix_eps = batch_shell_distances(mirror.reduced, queries,
                                                      mirror.max_delta)
        assert np.array_equal(_bits(d2), _bits(matrix_d2.ravel()))
        assert np.array_equal(_bits(eps), _bits(matrix_eps.ravel()))

    def test_the_sum_order_is_observable(self, edge_mirror):
        """``e0 + (e1 + e2)`` rounds differently on some pair, so the test
        above would see a kernel that adds in that order."""
        mirror, queries = edge_mirror
        q, rows = _all_pairs(len(queries), len(mirror.reduced))
        diffs = np.abs(queries[q] - mirror.reduced[rows])
        delta = mirror.max_delta[rows].astype(np.float64)
        terms = 2.0 * diffs * delta + delta * delta
        _, eps = _gathered(queries, q, mirror.reduced, mirror.max_delta, rows)
        assert (terms[:, 0] + (terms[:, 1] + terms[:, 2]) != eps).any()

    def test_bfloat16_smallest_bounds_square_in_float64(self):
        mirror = _mirror(_edge_cloud(), BFLOAT16)
        rows = np.flatnonzero((mirror.max_delta == np.float32(2.0 ** -134)).all(axis=1))
        assert rows.size
        # A query on a reduced point: every Eq. 11 term is max_delta**2.
        queries = mirror.reduced[rows].astype(np.float64)
        d2, eps = _gathered(queries, np.arange(rows.size), mirror.reduced,
                            mirror.max_delta, rows)
        assert (d2 == 0.0).all()
        assert (eps == 3 * 2.0 ** -268).all()

    def test_signed_zeros(self):
        reduced = np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0]], dtype=np.float32)
        max_delta = np.full((2, 3), 2.0 ** -25, dtype=np.float32)
        queries = np.array([[-0.0, 0.0, -0.0], [0.0, 0.0, 0.0]])
        q, rows = _all_pairs(2, 2)
        got = _gathered(queries, q, reduced, max_delta, rows)
        want = _row_shell_oracle(reduced[rows], queries[q], max_delta[rows])
        for x, y in zip(got, want):
            assert np.array_equal(_bits(x), _bits(y))

    def test_fortran_ordered_inputs(self, edge_mirror):
        mirror, queries = edge_mirror
        q, rows = _all_pairs(len(queries), len(mirror.reduced))
        want = _gathered(queries, q, mirror.reduced, mirror.max_delta, rows)
        got = _gathered(np.asfortranarray(queries), q,
                        np.asfortranarray(mirror.reduced),
                        np.asfortranarray(mirror.max_delta), rows)
        for x, y in zip(got, want):
            assert np.array_equal(_bits(x), _bits(y))
        diffs = np.asfortranarray(queries[q] - mirror.reduced[rows])
        assert not diffs.flags.c_contiguous
        got = shell_distances(diffs, np.asfortranarray(mirror.max_delta[rows]))
        for x, y in zip(got, want):
            assert np.array_equal(_bits(x), _bits(y))

    def test_leaf_views_as_the_inspector_passes_them(self, edge_mirror):
        """One query against a leaf's mirror rows (views) gives the gathered
        pairs' bits and leaves the mirror untouched."""
        mirror, queries = edge_mirror
        reduced_before = mirror.reduced.copy()
        max_delta_before = mirror.max_delta.copy()
        start, stop = mirror.starts[3], mirror.starts[5]
        rows = np.arange(start, stop)
        for query in queries[:20]:
            got = shell_distances(query - mirror.reduced[start:stop],
                                  mirror.max_delta[start:stop])
            want = _gathered(query[None, :], np.zeros_like(rows), mirror.reduced,
                             mirror.max_delta, rows)
            for x, y in zip(got, want):
                assert np.array_equal(_bits(x), _bits(y))
        assert np.array_equal(mirror.reduced, reduced_before)
        assert np.array_equal(mirror.max_delta, max_delta_before)

    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_exactly_at_r_world(self, fmt):
        points, queries, radii = _world("exactly-at-r")
        mirror = _mirror(points, FORMATS[fmt])
        q, rows = _all_pairs(len(queries), len(points))
        d2, eps = _gathered(queries, q, mirror.reduced, mirror.max_delta, rows)
        want_d2, want_eps = _row_shell_oracle(mirror.reduced[rows], queries[q],
                                              mirror.max_delta[rows])
        assert np.array_equal(_bits(d2), _bits(want_d2))
        assert np.array_equal(_bits(eps), _bits(want_eps))
        for radius in radii:
            got = shell_classify(d2, eps, radius * radius)
            want = _classify_oracle(want_d2, want_eps, radius * radius)
            assert all(np.array_equal(x, y) for x, y in zip(got, want))
            assert got[1].any()  # lattice neighbours at exactly r sit in the shell


class TestShellClassify:
    def test_shell_edges(self):
        """``d2 == r2 - eps`` is conclusively in, ``d2 == r2 + eps`` is in the shell."""
        r2 = 4.0
        eps = np.array([0.5, 0.5, 0.5, 0.5, 0.5, 0.0, 0.0, 0.25])
        d2 = np.array([3.5, 4.5, np.nextafter(3.5, 4.0), np.nextafter(4.5, 5.0),
                       4.0, 4.0, np.nextafter(4.0, 5.0), 0.0])
        conclusive_in, inconclusive = shell_classify(d2, eps, r2)
        assert np.flatnonzero(conclusive_in).tolist() == [0, 5, 7]
        assert np.flatnonzero(inconclusive).tolist() == [1, 2, 4]
        want = _classify_oracle(d2, eps, r2)
        assert np.array_equal(conclusive_in, want[0])
        assert np.array_equal(inconclusive, want[1])

    def test_random_values_match_the_oracle(self):
        rng = np.random.default_rng(29)
        eps = np.abs(rng.normal(0.0, 0.01, 5000))
        d2 = 1.0 + rng.normal(0.0, 0.02, 5000)
        d2[::7] = 1.0 - eps[::7]
        d2[1::7] = 1.0 + eps[1::7]
        got = shell_classify(d2, eps, 1.0)
        want = _classify_oracle(d2, eps, 1.0)
        assert all(np.array_equal(x, y) for x, y in zip(got, want))


class TestRadiusResultAssembly:
    @staticmethod
    def _check(n_queries, n_points, hit_queries, hit_points):
        want_offsets, want_points = _lexsort_oracle(n_queries, hit_queries, hit_points)
        result = _build_radius_result(n_queries, n_points, list(hit_queries),
                                      list(hit_points))
        assert result.offsets.dtype == np.intp and result.point_indices.dtype == np.intp
        assert np.array_equal(result.offsets, want_offsets)
        assert np.array_equal(result.point_indices, want_points)
        return result

    def test_scrambled_pairs(self):
        rng = np.random.default_rng(31)
        n_queries, n_points = 300, 5000
        pairs = rng.choice(n_queries * n_points, 20000, replace=False)
        q, p = np.divmod(rng.permutation(pairs), n_points)
        cuts = np.sort(rng.choice(np.arange(1, q.size), 12, replace=False))
        self._check(n_queries, n_points, np.split(q, cuts), np.split(p, cuts))

    def test_empty_batch(self):
        result = _build_radius_result(0, 10, [], [])
        assert result.offsets.tolist() == [0] and result.total_matches == 0
        empty = np.empty(0, dtype=np.intp)
        result = self._check(4, 10, [empty, empty], [empty, empty])
        assert result.offsets.tolist() == [0] * 5

    def test_queries_without_hits(self):
        q = np.array([7, 2, 7, 2, 7], dtype=np.intp)
        p = np.array([9, 4, 0, 1, 3], dtype=np.intp)
        result = self._check(10, 10, [q[:2], q[2:]], [p[:2], p[2:]])
        assert result.counts.tolist() == [0, 0, 2, 0, 0, 0, 0, 3, 0, 0]
        assert result.indices_for(7).tolist() == [0, 3, 9]

    def test_ids_near_2_to_the_31(self):
        n_points = 2 ** 31 + 7
        rng = np.random.default_rng(37)
        q = rng.integers(0, 5000, 4000).astype(np.intp)
        p = rng.integers(2 ** 31 - 5, n_points, 4000).astype(np.intp)
        keep = np.unique(q * n_points + p, return_index=True)[1]
        q, p = q[keep][::-1], p[keep][::-1]
        result = self._check(5000, n_points, [q[:1500], q[1500:]], [p[:1500], p[1500:]])
        assert result.point_indices.max() >= 2 ** 31
