"""Tests of k-d tree construction and its structural invariants."""

from __future__ import annotations

from dataclasses import fields, replace
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kdtree import (
    DEFAULT_MAX_LEAF_SIZE,
    KDTree,
    KDTreeConfig,
    KDTreeStats,
    build_kdtree,
)
from repro.kdtree.build import TreeArrays
from repro.pointcloud import PointCloud


class TestBuildBasics:
    def test_pcl_default_leaf_size(self):
        assert DEFAULT_MAX_LEAF_SIZE == 15
        assert KDTreeConfig().max_leaf_size == 15

    def test_invalid_leaf_size_rejected(self):
        with pytest.raises(ValueError):
            KDTreeConfig(max_leaf_size=0)

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            build_kdtree(np.empty((0, 3), dtype=np.float32))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            build_kdtree(np.zeros((10, 2), dtype=np.float32))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        points = np.random.default_rng(0).uniform(-1, 1, size=(400, 3))
        points[123, 1] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            build_kdtree(points)
        with pytest.raises(ValueError, match="NaN or infinite"):
            build_kdtree(PointCloud(points.astype(np.float32)))

    def test_accepts_pointcloud_and_array(self, random_cloud):
        from_cloud = build_kdtree(random_cloud)
        from_array = build_kdtree(random_cloud.points)
        assert from_cloud.n_points == from_array.n_points

    def test_single_point(self):
        tree = build_kdtree(np.array([[1.0, 2.0, 3.0]], dtype=np.float32))
        assert tree.n_leaves == 1
        assert tree.arrays.leaf_id.tolist() == [0]  # the root is the leaf
        tree.validate()

    def test_small_cloud_single_leaf(self):
        points = np.random.default_rng(0).uniform(-1, 1, size=(15, 3)).astype(np.float32)
        tree = build_kdtree(points)
        assert tree.n_leaves == 1

    def test_sixteen_points_split(self):
        points = np.random.default_rng(0).uniform(-1, 1, size=(16, 3)).astype(np.float32)
        tree = build_kdtree(points)
        assert tree.n_leaves == 2


class TestInvariants:
    def test_validate_frame_tree(self, frame_tree):
        frame_tree.validate()

    def test_validate_random_tree(self, random_tree):
        random_tree.validate()

    def test_leaf_sizes_bounded(self, frame_tree):
        sizes = frame_tree.arrays.leaf_sizes
        assert sizes.min() >= 1
        assert sizes.max() <= frame_tree.config.max_leaf_size

    def test_all_points_indexed_once(self, frame_tree):
        all_indices = frame_tree.arrays.leaf_points
        assert len(all_indices) == frame_tree.n_points
        assert len(np.unique(all_indices)) == frame_tree.n_points

    def test_leaf_ids_sequential(self, frame_tree):
        """Leaves are numbered in node (preorder) order."""
        leaf_id = frame_tree.arrays.leaf_id
        assert leaf_id[leaf_id >= 0].tolist() == list(range(frame_tree.n_leaves))

    def test_node_counts(self, frame_tree):
        arrays = frame_tree.arrays
        is_leaf = arrays.leaf_id >= 0
        leaves, interior = int(is_leaf.sum()), int((~is_leaf).sum())
        assert leaves == frame_tree.stats.n_leaves == frame_tree.n_leaves
        assert interior == frame_tree.stats.n_interior
        # A full binary tree has exactly leaves - 1 interior nodes.
        assert interior == leaves - 1
        # Every node but the root is the child of exactly one interior node.
        children = np.concatenate([arrays.left[~is_leaf], arrays.right[~is_leaf]])
        assert sorted(children.tolist()) == list(range(1, arrays.n_nodes))

    def test_depth_reasonably_balanced(self, frame_tree):
        """Median splits keep the depth within a small factor of the optimum."""
        optimal = np.ceil(np.log2(frame_tree.n_points / frame_tree.config.max_leaf_size))
        assert frame_tree.depth() <= optimal + 4

    def test_split_dimension_is_widest(self, random_tree):
        arrays = random_tree.arrays
        for node in np.flatnonzero(arrays.leaf_id < 0):
            spread = arrays.bbox_max[node] - arrays.bbox_min[node]
            assert spread[arrays.split_dim[node]] == pytest.approx(spread.max())

    def test_duplicate_points_handled(self):
        points = np.tile(np.array([[1.0, 2.0, 3.0]], dtype=np.float32), (50, 1))
        tree = build_kdtree(points)
        tree.validate()
        assert tree.n_points == 50

    def test_collinear_points_handled(self):
        xs = np.linspace(0, 10, 100, dtype=np.float32)
        points = np.column_stack([xs, np.zeros(100), np.zeros(100)]).astype(np.float32)
        tree = build_kdtree(points)
        tree.validate()

    def test_custom_leaf_size(self, random_cloud):
        tree = build_kdtree(random_cloud, KDTreeConfig(max_leaf_size=5))
        tree.validate()
        assert tree.arrays.leaf_sizes.max() <= 5
        assert tree.n_leaves > build_kdtree(random_cloud).n_leaves

    def test_leaf_points_accessor(self, random_tree):
        """Leaf ``j``'s points are its ``leaf_starts`` slice of ``leaf_points``."""
        arrays = random_tree.arrays
        start, stop = arrays.leaf_starts[:2]
        pts = random_tree.points[arrays.leaf_points[start:stop]]
        node = arrays.leaf_id.tolist().index(0)
        assert pts.shape == (arrays.leaf_sizes[0], 3)
        assert np.all(pts >= arrays.bbox_min[node])
        assert np.all(pts <= arrays.bbox_max[node])


def _corrupted(tree, **changes):
    """A tree over ``tree``'s points whose arrays differ by ``changes``."""
    return KDTree(tree.points, replace(tree.arrays, **changes), tree.config, tree.stats)


class TestValidateFails:
    """Each invariant ``validate()`` checks, broken once."""

    @pytest.fixture()
    def tree(self, random_cloud):
        tree = build_kdtree(random_cloud)
        tree.validate()
        return tree

    def test_oversized_leaf(self, tree):
        starts = tree.arrays.leaf_starts.copy()
        starts[1] = starts[2] - 1  # leaf 0 takes all but one point of leaf 1
        assert starts[1] > tree.config.max_leaf_size
        with pytest.raises(AssertionError, match="oversized leaf"):
            _corrupted(tree, leaf_starts=starts).validate()

    def test_point_in_two_leaves(self, tree):
        leaf_points = tree.arrays.leaf_points.copy()
        leaf_points[-1] = leaf_points[0]  # the last leaf repeats leaf 0's first point
        with pytest.raises(AssertionError, match="two leaves"):
            _corrupted(tree, leaf_points=leaf_points).validate()

    def test_point_in_no_leaf(self, tree):
        starts = tree.arrays.leaf_starts.copy()
        starts[-1] -= 1  # the last leaf drops its last point
        with pytest.raises(AssertionError, match="missing from every leaf"):
            _corrupted(tree, leaf_starts=starts,
                       leaf_points=tree.arrays.leaf_points[:-1]).validate()

    @pytest.mark.parametrize("edge, shift, message", [
        ("bbox_min", 1.0, "below leaf bbox"), ("bbox_max", -1.0, "above leaf bbox")])
    def test_point_outside_its_leaf_box(self, tree, edge, shift, message):
        node = tree.arrays.leaf_id.tolist().index(0)
        box = getattr(tree.arrays, edge).copy()
        box[node] += shift
        with pytest.raises(AssertionError, match=message):
            _corrupted(tree, **{edge: box}).validate()

    @pytest.fixture()
    def nested(self):
        """The root splits on x and each child on y.  The left subtree's
        largest x lies in its left child and the right subtree's smallest x
        in its right child, so a check that reads only one side of a
        subtree misses them."""
        y = np.linspace(0.0, 5.0, 8)
        left_x = [-10.0, -10.6, -10.7, -10.8, -10.6, -10.7, -10.8, -10.9]
        right_x = [10.6, 10.7, 10.8, 10.9, 10.0, 10.6, 10.7, 10.8]
        points = np.zeros((16, 3), dtype=np.float32)
        points[:, 0] = left_x + right_x
        points[:, 1] = np.concatenate([y, y])
        tree = build_kdtree(points, KDTreeConfig(max_leaf_size=4))
        arrays = tree.arrays
        assert arrays.split_dim[[0, 1, arrays.right[0]]].tolist() == [0, 1, 1]
        assert (arrays.split_low[0], arrays.split_high[0]) == (-10.0, 10.0)
        tree.validate()
        return tree

    def test_left_subtree_value_above_split_low(self, nested):
        split_low = nested.arrays.split_low.copy()
        split_low[0] -= 0.25
        with pytest.raises(AssertionError, match="exceeds split_low"):
            _corrupted(nested, split_low=split_low).validate()

    def test_right_subtree_value_below_split_high(self, nested):
        split_high = nested.arrays.split_high.copy()
        split_high[0] += 0.25
        with pytest.raises(AssertionError, match="below split_high"):
            _corrupted(nested, split_high=split_high).validate()


class TestBuildProperty:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_points=st.integers(min_value=1, max_value=400),
        max_leaf_size=st.integers(min_value=1, max_value=16),
        scale=st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariants_hold_for_arbitrary_clouds(self, seed, n_points, max_leaf_size, scale):
        rng = np.random.default_rng(seed)
        points = (rng.normal(0.0, scale, size=(n_points, 3))).astype(np.float32)
        tree = build_kdtree(points, KDTreeConfig(max_leaf_size=max_leaf_size))
        tree.validate()
        assert tree.n_points == n_points
        assert int(tree.arrays.leaf_sizes.sum()) == n_points
        _assert_matches_oracle(points, max_leaf_size)


# ----------------------------------------------------------------------
# The recursive builder: one node per call, ``np.median`` per split.  It is
# the oracle the level-synchronous build must equal field by field.
# ----------------------------------------------------------------------
class _NodeTable:
    """Per-node fields in preorder plus the leaves' point ids, as lists."""

    def __init__(self):
        self.split = []  # (split_dim, split_value, split_low, split_high, left, right)
        self.leaf_id: List[int] = []
        self.bbox_min: List[np.ndarray] = []
        self.bbox_max: List[np.ndarray] = []
        self.leaf_indices: List[np.ndarray] = []

    def add(self, bbox_min: np.ndarray, bbox_max: np.ndarray) -> int:
        self.split.append((0, 0.0, 0.0, 0.0, -1, -1))
        self.leaf_id.append(-1)
        self.bbox_min.append(bbox_min)
        self.bbox_max.append(bbox_max)
        return len(self.leaf_id) - 1

    def arrays(self) -> TreeArrays:
        split_dim, split_value, split_low, split_high, left, right = zip(*self.split)
        starts = np.zeros(len(self.leaf_indices) + 1, dtype=np.int64)
        np.cumsum([len(i) for i in self.leaf_indices], out=starts[1:])
        return TreeArrays(
            split_dim=np.array(split_dim, dtype=np.intp),
            split_value=np.array(split_value, dtype=np.float64),
            split_low=np.array(split_low, dtype=np.float64),
            split_high=np.array(split_high, dtype=np.float64),
            left=np.array(left, dtype=np.intp),
            right=np.array(right, dtype=np.intp),
            leaf_id=np.array(self.leaf_id, dtype=np.intp),
            bbox_min=np.array(self.bbox_min, dtype=np.float64),
            bbox_max=np.array(self.bbox_max, dtype=np.float64),
            leaf_starts=starts,
            leaf_points=np.concatenate(self.leaf_indices),
        )


def _build_recursive(points, indices, max_leaf_size, stats, nodes, depth) -> int:
    stats.max_depth = max(stats.max_depth, depth)
    subset = points[indices].astype(np.float64)
    bbox_min = subset.min(axis=0)
    bbox_max = subset.max(axis=0)
    node_id = nodes.add(bbox_min, bbox_max)

    if indices.shape[0] <= max_leaf_size:
        nodes.leaf_id[node_id] = len(nodes.leaf_indices)
        nodes.leaf_indices.append(indices)
        stats.n_leaves += 1
        return node_id

    spread = bbox_max - bbox_min
    split_dim = int(np.argmax(spread))
    values = subset[:, split_dim]
    split_value = float(np.median(values))

    left_mask = values <= split_value
    if left_mask.all() or not left_mask.any():
        order = np.argsort(values, kind="stable")
        half = indices.shape[0] // 2
        left_idx = indices[order[:half]]
        right_idx = indices[order[half:]]
    else:
        left_idx = indices[left_mask]
        right_idx = indices[~left_mask]

    split_low = float(points[left_idx, split_dim].astype(np.float64).max())
    split_high = float(points[right_idx, split_dim].astype(np.float64).min())
    left = _build_recursive(points, left_idx, max_leaf_size, stats, nodes, depth + 1)
    right = _build_recursive(points, right_idx, max_leaf_size, stats, nodes, depth + 1)
    stats.n_interior += 1
    nodes.split[node_id] = (split_dim, split_value, split_low, split_high, left, right)
    return node_id


def _recursive_oracle(points: np.ndarray, max_leaf_size: int):
    points = np.ascontiguousarray(points, dtype=np.float32)
    stats = KDTreeStats(n_points=points.shape[0])
    nodes = _NodeTable()
    _build_recursive(points, np.arange(points.shape[0], dtype=np.intp), max_leaf_size,
                     stats, nodes, depth=0)
    return nodes.arrays(), stats


def _assert_matches_oracle(points: np.ndarray, max_leaf_size: int) -> None:
    tree = build_kdtree(points, KDTreeConfig(max_leaf_size=max_leaf_size))
    want, want_stats = _recursive_oracle(points, max_leaf_size)
    for field in fields(TreeArrays):
        got, expected = getattr(tree.arrays, field.name), getattr(want, field.name)
        assert got.dtype == expected.dtype, field.name
        assert np.array_equal(got, expected), field.name
    assert tree.stats == want_stats


def _cloud(family: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """A cloud of one of the degenerate families the build must get right."""
    if family == "lattice":
        side = int(np.ceil(n ** (1 / 3)))
        grid = np.stack(np.meshgrid(*[np.arange(side)] * 3, indexing="ij"), -1).reshape(-1, 3)
        return (grid[rng.permutation(len(grid))[:n]] * 0.5).astype(np.float32)
    if family == "duplicates":
        base = rng.normal(0.0, 5.0, size=(max(n // 4, 1), 3))
        return base[rng.integers(len(base), size=n)].astype(np.float32)
    if family == "all-equal":
        return np.tile(rng.normal(size=(1, 3)), (n, 1)).astype(np.float32)
    if family == "coplanar":
        points = rng.uniform(-10.0, 10.0, size=(n, 3))
        points[:, rng.integers(3)] = rng.uniform(-1.0, 1.0)
        return points.astype(np.float32)
    if family == "collinear":
        direction = rng.normal(size=3)
        return (rng.normal(size=3) + rng.uniform(-5, 5, (n, 1)) * direction).astype(np.float32)
    if family == "signed-zeros":
        return rng.choice(np.array([-0.0, 0.0, 1.0, -1.0]), size=(n, 3)).astype(np.float32)
    if family == "close-spreads":
        # y spreads 1 + 1e-8, x exactly 1: equal in float32, apart in float64.
        points = rng.uniform(0.0, 0.5, size=(n, 3))
        points[:, 0] = rng.choice([0.0, 1.0], size=n)
        points[:, 1] = rng.choice([-1e-8, 1.0], size=n)
        return points.astype(np.float32)
    # "on-split-planes": quarter steps, so medians and the midpoints of even
    # medians land exactly on other points' coordinates.
    return (rng.integers(-8, 9, size=(n, 3)) * 0.25).astype(np.float32)


FAMILIES = ["lattice", "duplicates", "all-equal", "coplanar", "collinear",
            "signed-zeros", "close-spreads", "on-split-planes"]


class TestMatchesRecursiveBuild:
    @given(family=st.sampled_from(FAMILIES),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           n_points=st.integers(min_value=1, max_value=300),
           max_leaf_size=st.integers(min_value=1, max_value=16))
    @settings(max_examples=150, deadline=None)
    def test_degenerate_clouds(self, family, seed, n_points, max_leaf_size):
        points = _cloud(family, n_points, np.random.default_rng(seed))
        _assert_matches_oracle(points, max_leaf_size)

    def test_frame(self, filtered_frame):
        _assert_matches_oracle(filtered_frame.points, DEFAULT_MAX_LEAF_SIZE)

    @pytest.mark.parametrize("max_leaf_size", [8, DEFAULT_MAX_LEAF_SIZE])
    def test_100k_point_map(self, max_leaf_size):
        from repro.scenarios import get_scenario
        from repro.scenarios.map_scale import sample_map_cloud

        points = sample_map_cloud(get_scenario("city_block").scene(), 100_000, seed=1)
        _assert_matches_oracle(points, max_leaf_size)
