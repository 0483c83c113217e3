"""The level-synchronous traversal over a tree's flat arrays, on degenerate trees.

The batched searches (:mod:`repro.runtime.batch`, :mod:`repro.runtime.bonsai`)
walk :class:`~repro.kdtree.build.TreeArrays` one tree level per NumPy step,
and their leaf pass runs the shared kernels on gathered (query, leaf point)
rows.  These tests pin that design where it is easiest to get wrong:

* the row-wise kernels equal the matrix kernels bit for bit, whatever the
  memory layout of their inputs;
* on a single-point tree, all-duplicate points (the build's sorted-halves
  split), points exactly on a split plane, points exactly at distance ``r``,
  a radius reaching every leaf and empty batches, the batched and per-query
  backends agree on results, ``SearchStats`` (``leaf_visit_counts``
  included) and ``BonsaiStats``;
* batched kNN equals brute force there, and its counters do not depend on
  how a batch is split;
* kNN's pruning bound (the squared distance to a node's bounding box) never
  exceeds the distance to a point in the box, rounding included, its home
  subtree lies on the query's descent path, and it scans a leaf at most
  once per query;
* the leaf pass receives its (query, leaf) pairs in leaf order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import get_backend
from repro.kdtree import SearchStats, build_kdtree
from repro.kdtree.build import NodeLists
from repro.runtime import BatchQueryEngine
from repro.runtime.batch import (
    LEAF_CHUNK_POINTS,
    _home_subtrees,
    radius_leaf_pairs,
    segment_rows,
    traverse_levels,
)
from repro.runtime.kernels import (
    batch_shell_distances,
    pairwise_distances2,
    rowwise_distances2,
    shell_distances,
)

BACKENDS = ("baseline-batched", "bonsai-batched", "baseline-perquery",
            "bonsai-perquery")


def _lattice(n: int) -> np.ndarray:
    axis = np.arange(n, dtype=np.float32)
    return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)


def _world(name: str):
    """``(points, queries, radii)`` of one degenerate world."""
    if name == "single-point":
        points = np.array([[1.5, -2.0, 0.25]], dtype=np.float32)
        queries = np.array([[1.5, -2.0, 0.25], [2.5, -2.0, 0.25], [9.0, 9.0, 9.0]])
        return points, queries, (0.5, 1.0, 20.0)
    if name == "all-duplicates":
        points = np.tile(np.array([[3.0, 1.0, -1.0]], dtype=np.float32), (70, 1))
        queries = np.array([[3.0, 1.0, -1.0], [3.0, 1.0, 0.0], [4.0, 4.0, 4.0]])
        return points, queries, (0.5, 1.0, 5.0)
    if name == "duplicates-and-spread":
        rng = np.random.default_rng(5)
        dup = np.tile(np.array([[0.0, 0.0, 0.0]], dtype=np.float32), (40, 1))
        spread = rng.uniform(-2.0, 2.0, (60, 3)).astype(np.float32)
        points = np.vstack([dup, spread, dup[:9]])
        queries = np.vstack([np.zeros((2, 3)), rng.uniform(-2.0, 2.0, (10, 3))])
        return points, queries, (0.25, 1.0)
    if name == "on-split-planes":
        # Integer lattice: every split value is a lattice coordinate, so
        # points and queries lie exactly on split planes.
        points = _lattice(7)
        queries = np.vstack([_lattice(7)[::11], _lattice(7)[::13] + 0.5])
        return points, queries, (0.5, 1.0, 1.5)
    if name == "exactly-at-r":
        # Lattice neighbours at exactly 1, sqrt(2) and 2 (d2 == r2 exactly).
        points = _lattice(5)
        queries = _lattice(5)[::7].astype(np.float64)
        return points, queries, (1.0, 2.0)
    if name == "radius-reaches-every-leaf":
        rng = np.random.default_rng(11)
        points = rng.uniform(-4.0, 4.0, (300, 3)).astype(np.float32)
        queries = rng.uniform(-5.0, 5.0, (9, 3))
        return points, queries, (40.0,)
    raise KeyError(name)


WORLDS = ("single-point", "all-duplicates", "duplicates-and-spread",
          "on-split-planes", "exactly-at-r", "radius-reaches-every-leaf")


def _search_counts(stats: SearchStats):
    return (stats.queries, stats.leaves_visited, stats.interior_visited,
            stats.points_examined, stats.points_in_radius,
            stats.point_bytes_loaded, stats.leaf_visit_counts)


def _bonsai_counts(stats):
    return (stats.leaf_visits, stats.slices_loaded, stats.compressed_bytes_loaded,
            stats.points_classified, stats.conclusive_in, stats.conclusive_out,
            stats.inconclusive, stats.recompute_bytes_loaded)


def _brute_knn(points: np.ndarray, queries: np.ndarray, k: int):
    points64 = points.astype(np.float64)
    width = min(k, len(points))
    indices = np.empty((len(queries), width), dtype=np.intp)
    distances = np.empty((len(queries), width))
    for row, query in enumerate(queries):
        d2 = pairwise_distances2(points64, query[None, :])[0]
        order = np.lexsort((np.arange(len(points)), d2))[:width]
        indices[row] = order
        distances[row] = np.sqrt(d2[order])
    return indices, distances


# ----------------------------------------------------------------------
# Kernel layout
# ----------------------------------------------------------------------
class TestRowwiseKernels:
    @pytest.fixture(scope="class")
    def pairs(self):
        rng = np.random.default_rng(3)
        points = rng.uniform(-60.0, 60.0, (16, 3)).astype(np.float32)
        queries = rng.uniform(-60.0, 60.0, (500, 3))
        q, p = np.meshgrid(np.arange(500), np.arange(16), indexing="ij")
        return points, queries, q.ravel(), p.ravel()

    def test_rowwise_distances_equal_matrix_kernel(self, pairs):
        points, queries, q, p = pairs
        points64 = points.astype(np.float64)
        matrix = pairwise_distances2(points64, queries)
        rows = rowwise_distances2(queries[q], points64[p])
        assert np.array_equal(rows.view(np.uint64), matrix.ravel().view(np.uint64))

    def test_rowwise_shell_equals_batch_shell(self, pairs):
        points, queries, q, p = pairs
        reduced = points.astype(np.float16).astype(np.float32)
        max_delta = np.abs(reduced) * np.float32(2.0 ** -11)
        d2, eps = batch_shell_distances(reduced, queries, max_delta)
        row_d2, row_eps = shell_distances(queries[q] - reduced[p], max_delta[p])
        assert np.array_equal(row_d2.view(np.uint64), d2.ravel().view(np.uint64))
        assert np.array_equal(row_eps.view(np.uint64), eps.ravel().view(np.uint64))

    def test_coordinate_major_input_is_made_contiguous(self, pairs):
        points, queries, q, p = pairs
        a, b = queries[q], points.astype(np.float64)[p]
        expected = rowwise_distances2(a, b)
        a_cm, b_cm = np.asfortranarray(a), np.asfortranarray(b)
        assert not (a_cm - b_cm).flags.c_contiguous
        got = rowwise_distances2(a_cm, b_cm)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        reduced = b.astype(np.float32)
        want = shell_distances(a - reduced, np.abs(reduced))
        got = shell_distances(a_cm - np.asfortranarray(reduced),
                              np.asfortranarray(np.abs(reduced)))
        for x, y in zip(got, want):
            assert np.array_equal(x.view(np.uint64), y.view(np.uint64))


# ----------------------------------------------------------------------
# Degenerate trees
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=WORLDS)
def world(request):
    points, queries, radii = _world(request.param)
    return build_kdtree(points), points, queries, radii


class TestDegenerateRadius:
    def test_backends_agree_on_hits_and_counters(self, world):
        tree, _, queries, radii = world
        for radius in radii:
            backends = {name: get_backend(name, tree) for name in BACKENDS}
            results = {name: backend.radius_search(queries, radius)
                       for name, backend in backends.items()}
            reference = results["baseline-perquery"]
            for name in BACKENDS:
                assert np.array_equal(results[name].offsets, reference.offsets), name
                assert np.array_equal(results[name].point_indices,
                                      reference.point_indices), name
            # Byte counters differ between the flavours by design (compressed
            # slices vs 16-byte points); within a flavour they are equal.
            for flavor in ("baseline", "bonsai"):
                assert _search_counts(backends[f"{flavor}-batched"].stats) == \
                    _search_counts(backends[f"{flavor}-perquery"].stats), flavor
            assert _bonsai_counts(backends["bonsai-batched"].bonsai_stats) == \
                _bonsai_counts(backends["bonsai-perquery"].bonsai_stats)

    def test_every_leaf_reached_with_a_huge_radius(self):
        points, queries, (radius,) = _world("radius-reaches-every-leaf")
        tree = build_kdtree(points)
        backend = get_backend("baseline-batched", tree)
        result = backend.radius_search(queries, radius)
        assert np.all(result.counts == len(points))
        assert backend.stats.leaf_visit_counts == {
            leaf_id: len(queries) for leaf_id in range(tree.n_leaves)}

    def test_empty_batch(self, world):
        tree, _, _, radii = world
        for name in ("baseline-batched", "bonsai-batched"):
            backend = get_backend(name, tree)
            result = backend.radius_search(np.empty((0, 3)), radii[0])
            assert result.n_queries == 0 and result.total_matches == 0
            assert _search_counts(backend.stats) == _search_counts(SearchStats())


class TestDegenerateKNN:
    @pytest.mark.parametrize("k", [1, 3, 8, 20])
    def test_batched_knn_matches_brute_force(self, world, k):
        tree, points, queries, _ = world
        indices, distances = _brute_knn(points, queries, k)
        for name in ("baseline-batched", "bonsai-batched"):
            got = get_backend(name, tree).knn(queries, k)
            assert np.array_equal(got.indices, indices), name
            assert np.array_equal(got.distances, distances), name

    @pytest.mark.parametrize("k", [1, 5])
    def test_counters_independent_of_batch_split(self, world, k):
        tree, _, queries, _ = world
        whole = SearchStats()
        BatchQueryEngine(tree, whole).knn(queries, k)
        for n_parts in (2, len(queries)):
            merged = SearchStats()
            for part in np.array_split(queries, n_parts):
                stats = SearchStats()
                BatchQueryEngine(tree, stats).knn(part, k)
                merged.merge(stats)
            assert _search_counts(merged) == _search_counts(whole)

    @pytest.mark.parametrize("k", [1, 5])
    def test_each_leaf_scanned_once_per_query(self, world, k):
        """The sweep skips the leaves the home subtree already scanned."""
        tree, _, queries, _ = world
        for query in queries:
            stats = SearchStats()
            BatchQueryEngine(tree, stats).knn(query[None, :], k)
            assert set(stats.leaf_visit_counts.values()) == {1}
            assert stats.leaves_visited == len(stats.leaf_visit_counts)

    @pytest.mark.parametrize("k", [1, 5])
    def test_bound_prunes_leaves(self, k):
        """The home-subtree bound and its per-level tightening skip most leaves."""
        rng = np.random.default_rng(17)
        points = rng.uniform(-10.0, 10.0, (3000, 3)).astype(np.float32)
        tree = build_kdtree(points)
        stats = SearchStats()
        BatchQueryEngine(tree, stats).knn(points[:200], k)
        assert stats.leaves_visited < 200 * tree.n_leaves / 10

    def test_empty_batch(self, world):
        tree, _, _, _ = world
        stats = SearchStats()
        result = BatchQueryEngine(tree, stats).knn(np.empty((0, 3)), 4)
        assert result.indices.shape == (0, min(4, tree.n_points))
        assert _search_counts(stats) == _search_counts(SearchStats())


def _subtree_leaves(arrays, node: int) -> list:
    if arrays.leaf_id[node] >= 0:
        return [int(arrays.leaf_id[node])]
    return (_subtree_leaves(arrays, arrays.left[node])
            + _subtree_leaves(arrays, arrays.right[node]))


class TestKNNBounds:
    @pytest.fixture(scope="class")
    def cloud_tree(self):
        rng = np.random.default_rng(23)
        points = rng.uniform(-5.0, 5.0, (1500, 3)).astype(np.float32)
        queries = np.vstack([points[:40].astype(np.float64),
                             rng.uniform(-6.0, 6.0, (40, 3))])
        return build_kdtree(points), queries

    @pytest.mark.parametrize("name", ["cloud", "on-split-planes", "exactly-at-r"])
    def test_box_distance_never_exceeds_point_distance(self, cloud_tree, name):
        if name == "cloud":
            tree, queries = cloud_tree
        else:
            points, queries, _ = _world(name)
            tree = build_kdtree(points)
        arrays = tree.arrays
        for node in range(arrays.n_nodes):
            leaves = _subtree_leaves(arrays, node)
            ids = arrays.leaf_points[arrays.leaf_starts[leaves[0]]:
                                     arrays.leaf_starts[leaves[-1] + 1]]
            q = np.repeat(queries, len(ids), axis=0)
            p = np.tile(tree.points_f64[ids], (len(queries), 1))
            nearest = np.clip(q, arrays.bbox_min[node], arrays.bbox_max[node])
            assert np.all(rowwise_distances2(q, nearest) <= rowwise_distances2(q, p))

    @pytest.mark.parametrize("max_points,min_points",
                             [(16, 1), (40, 5), (64, 5), (64, 60), (1000, 5)])
    def test_home_subtree_is_the_largest_small_one_on_the_path(
            self, cloud_tree, max_points, min_points):
        tree, queries = cloud_tree
        arrays = tree.arrays

        def size(node):
            leaves = _subtree_leaves(arrays, node)
            return arrays.leaf_starts[leaves[-1] + 1] - arrays.leaf_starts[leaves[0]]

        first, count = _home_subtrees(arrays, queries, max_points, min_points)
        for query, lo, n in zip(queries, first, count):
            node = 0
            while size(node) > max_points and arrays.leaf_id[node] < 0:
                dim = arrays.split_dim[node]
                child = (arrays.left[node] if query[dim] <= arrays.split_value[node]
                         else arrays.right[node])
                if size(child) < min_points:
                    break
                node = child
            assert list(range(lo, lo + n)) == _subtree_leaves(arrays, node)
            assert size(node) >= min_points


class TestSegmentRows:
    def test_segments_longer_than_a_chunk(self):
        sizes = np.array([3, LEAF_CHUNK_POINTS * 2 + 5, 1, LEAF_CHUNK_POINTS + 1, 7])
        first = np.array([100, 0, 50, 40_000, 7])
        chunks = list(segment_rows(first, sizes))
        pairs = np.concatenate([p for p, _ in chunks])
        rows = np.concatenate([r for _, r in chunks])
        assert np.array_equal(pairs, np.repeat(np.arange(len(sizes)), sizes))
        assert np.array_equal(rows, np.concatenate(
            [np.arange(f, f + n) for f, n in zip(first, sizes)]))
        assert all(len(p) for p, _ in chunks)

    def test_knn_with_k_above_a_chunk(self):
        rng = np.random.default_rng(31)
        points = rng.uniform(-1.0, 1.0, (LEAF_CHUNK_POINTS + 400, 3)).astype(np.float32)
        queries = rng.uniform(-1.0, 1.0, (3, 3))
        k = LEAF_CHUNK_POINTS + 100
        indices, distances = _brute_knn(points, queries, k)
        got = BatchQueryEngine(build_kdtree(points)).knn(queries, k)
        assert np.array_equal(got.indices, indices)
        assert np.array_equal(got.distances, distances)


class TestLeafOrder:
    def test_pairs_reach_the_leaf_pass_in_leaf_order(self):
        rng = np.random.default_rng(29)
        points = rng.uniform(-5.0, 5.0, (2000, 3)).astype(np.float32)
        queries = rng.uniform(-5.0, 5.0, (300, 3))
        arrays = build_kdtree(points).arrays
        tau = np.full(len(queries), 1.0)
        for bound in ({"radius": 0.8}, {"tau": tau}):
            levels = list(traverse_levels(arrays, queries, SearchStats(), **bound))
            assert len(levels) > 1
            for _, leaves in levels:
                assert np.all(np.diff(leaves) >= 0)
        _, pair_leaf = radius_leaf_pairs(arrays, queries, 0.8, SearchStats())
        assert np.all(np.diff(pair_leaf) >= 0)


class TestTreeArrays:
    def test_node_graph_is_built_from_the_arrays(self, world):
        """The node lists the per-query walks read are the arrays, converted once."""
        tree, points, _, _ = world
        arrays = tree.arrays
        assert arrays.n_nodes == tree.stats.n_nodes
        assert arrays.n_leaves == tree.n_leaves
        assert sorted(arrays.leaf_points.tolist()) == list(range(len(points)))
        tree.validate()
        nodes = tree.node_lists
        for name in NodeLists._fields:
            assert getattr(nodes, name) == getattr(arrays, name).tolist(), name
        assert tree.node_lists is nodes

    def test_pickled_tree_searches_like_the_original(self):
        import pickle

        points, queries, radii = _world("on-split-planes")
        tree = build_kdtree(points)
        tree.node_lists  # convert the node lists before pickling
        copy = pickle.loads(pickle.dumps(tree))
        hits = get_backend("baseline-perquery", copy).radius_search(queries, radii[0])
        ref = get_backend("baseline-perquery", tree).radius_search(queries, radii[0])
        assert np.array_equal(hits.point_indices, ref.point_indices)
