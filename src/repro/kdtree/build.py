"""K-d tree construction (PCL/FLANN-style).

The builder follows the optimised k-d tree of Friedman/Bentley/Finkel as
implemented by FLANN's single-tree index (the index PCL's ``KdTreeFLANN``
uses, and which Autoware's euclidean cluster relies on):

* points are stored only in leaves, at most ``max_leaf_size`` per leaf
  (PCL's default is 15);
* each interior node splits on the coordinate whose values are most spread
  out within the node's bounding box;
* the split value is the median of that coordinate, so the tree stays
  balanced regardless of point distribution;
* every node records its bounding box, and interior nodes record the edges of
  the two children along the split coordinate (used by the search to bound
  the distance to the not-taken sub-tree).

The build writes the tree as flat arrays (:class:`TreeArrays`): the batched
searches traverse those directly, and the shared-memory store publishes
them.  The :class:`~repro.kdtree.node.InteriorNode` /
:class:`~repro.kdtree.node.LeafNode` object graph the per-query paths walk
is created from the arrays on first access to :attr:`KDTree.root` or
:attr:`KDTree.leaves`.
"""
# repro-lint: disable-file=hygiene-assert-control-flow -- KDTree.validate()
# documents "Raises AssertionError" as its contract; its asserts are the API.

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..pointcloud.cloud import PointCloud
from .node import InteriorNode, LeafNode, Node

__all__ = ["KDTree", "KDTreeConfig", "TreeArrays", "build_kdtree"]

#: PCL's default maximum number of points per leaf.
DEFAULT_MAX_LEAF_SIZE = 15


@dataclass
class KDTreeConfig:
    """Build-time parameters of the k-d tree."""

    max_leaf_size: int = DEFAULT_MAX_LEAF_SIZE

    def __post_init__(self) -> None:
        if self.max_leaf_size < 1:
            raise ValueError("max_leaf_size must be at least 1")


@dataclass
class KDTreeStats:
    """Structural statistics collected while building the tree."""

    n_points: int = 0
    n_leaves: int = 0
    n_interior: int = 0
    max_depth: int = 0

    @property
    def n_nodes(self) -> int:
        """Total number of nodes (leaves plus interior nodes)."""
        return self.n_leaves + self.n_interior


@dataclass(frozen=True, eq=False)
class TreeArrays:
    """A k-d tree as flat arrays: nodes in preorder (the root is node 0).

    Node ``i`` is a leaf when ``leaf_id[i] >= 0``.  Otherwise it splits on
    coordinate ``split_dim[i]`` at ``split_value[i]``; ``split_low[i]`` is
    the largest left-subtree value of that coordinate, ``split_high[i]`` the
    smallest right-subtree value, and ``left[i]`` / ``right[i]`` are the
    children (``-1`` at leaves, where the split fields are zero).  Leaf
    ``j`` owns the point ids ``leaf_points[leaf_starts[j]:leaf_starts[j + 1]]``,
    leaves numbered in build (depth-first, left first) order.
    """

    split_dim: np.ndarray
    split_value: np.ndarray
    split_low: np.ndarray
    split_high: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_id: np.ndarray
    bbox_min: np.ndarray
    bbox_max: np.ndarray
    leaf_starts: np.ndarray
    leaf_points: np.ndarray

    @property
    def n_nodes(self) -> int:
        """Number of nodes (leaves plus interior nodes)."""
        return self.leaf_id.shape[0]

    @property
    def n_leaves(self) -> int:
        """Number of leaves."""
        return self.leaf_starts.shape[0] - 1

    @property
    def leaf_sizes(self) -> np.ndarray:
        """Number of points of every leaf, by leaf id."""
        return np.diff(self.leaf_starts)

    def as_dict(self) -> Dict[str, np.ndarray]:
        """The arrays by field name (no copies)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class KDTree:
    """A leaf-based k-d tree over a fixed set of 3D points.

    ``arrays`` is the tree itself; ``root`` and ``leaves`` are node objects
    created from it on first access (and dropped when the tree is pickled).
    """

    def __init__(self, points: np.ndarray, arrays: TreeArrays,
                 config: KDTreeConfig, stats: KDTreeStats,
                 points_f64: Optional[np.ndarray] = None):
        self._points = points
        self._points_f64 = points_f64
        self.arrays = arrays
        self.config = config
        self.stats = stats
        self._root: Optional[Node] = None
        self._leaves: Optional[List[LeafNode]] = None
        self._compressed_array = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_root"] = state["_leaves"] = None
        return state

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def points(self) -> np.ndarray:
        """The ``(N, 3)`` float32 point array the tree indexes."""
        return self._points

    @property
    def points_f64(self) -> np.ndarray:
        """Float64 view of the point array, converted once and cached.

        Every leaf inspection computes distances in float64; converting the
        float32 storage once per tree (instead of once per leaf visit) removes
        a per-visit copy from the search hot paths.
        """
        if self._points_f64 is None:
            self._points_f64 = self._points.astype(np.float64)
        return self._points_f64

    @property
    def n_points(self) -> int:
        """Number of indexed points."""
        return self._points.shape[0]

    @property
    def root(self) -> Node:
        """The root node of the object graph (created on first access)."""
        if self._root is None:
            self._build_nodes()
        return self._root

    @property
    def leaves(self) -> List[LeafNode]:
        """All leaf nodes in build order (leaf_id order)."""
        if self._leaves is None:
            self._build_nodes()
        return self._leaves

    @property
    def n_leaves(self) -> int:
        """Number of leaf nodes."""
        return self.arrays.n_leaves

    @property
    def compressed_array(self):
        """The K-D Bonsai ``cmprsd_strct_array`` of this tree, if compressed.

        A :class:`~repro.core.compressed_leaf.CompressedStructArray`, set by
        :func:`~repro.core.compressed_leaf.compress_tree`; assigning it also
        gives every leaf node its ``compressed_ref``.
        """
        return self._compressed_array

    @compressed_array.setter
    def compressed_array(self, array) -> None:
        self._compressed_array = array
        if self._leaves is not None:
            for leaf in self._leaves:
                leaf.compressed_ref = array.ref(leaf.leaf_id)

    def _build_nodes(self) -> None:
        """Create the node objects from :attr:`arrays`, children first."""
        arrays = self.arrays
        starts = arrays.leaf_starts.tolist()
        split_dim = arrays.split_dim.tolist()
        split_value = arrays.split_value.tolist()
        split_low = arrays.split_low.tolist()
        split_high = arrays.split_high.tolist()
        left = arrays.left.tolist()
        right = arrays.right.tolist()
        array = self._compressed_array
        nodes: List[Optional[Node]] = [None] * arrays.n_nodes
        leaves: List[Optional[LeafNode]] = [None] * arrays.n_leaves
        for i, leaf_id in reversed(list(enumerate(arrays.leaf_id.tolist()))):
            if leaf_id >= 0:
                leaf = LeafNode(
                    indices=arrays.leaf_points[starts[leaf_id]:starts[leaf_id + 1]],
                    leaf_id=leaf_id,
                    bbox_min=arrays.bbox_min[i],
                    bbox_max=arrays.bbox_max[i],
                    compressed_ref=None if array is None else array.ref(leaf_id),
                )
                nodes[i] = leaves[leaf_id] = leaf
            else:
                nodes[i] = InteriorNode(
                    split_dim=split_dim[i],
                    split_value=split_value[i],
                    split_low=split_low[i],
                    split_high=split_high[i],
                    left=nodes[left[i]],
                    right=nodes[right[i]],
                    bbox_min=arrays.bbox_min[i],
                    bbox_max=arrays.bbox_max[i],
                )
        self._leaves = leaves  # type: ignore[assignment]
        self._root = nodes[0]

    def depth(self) -> int:
        """Maximum depth of the tree (root at depth 0)."""
        return self.stats.max_depth

    def iter_nodes(self) -> Iterator[Node]:
        """Depth-first iteration over all nodes."""
        stack: List[Node] = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.append(node.right)
                stack.append(node.left)

    def leaf_points(self, leaf: LeafNode) -> np.ndarray:
        """The coordinate array of the points stored in ``leaf``."""
        return self._points[leaf.indices]

    def validate(self) -> None:
        """Check the structural invariants of the tree.

        * every point index appears in exactly one leaf;
        * leaves are no larger than ``max_leaf_size``;
        * every leaf point lies inside the leaf's bounding box;
        * for every interior node, left-subtree values along the split
          coordinate are <= ``split_low`` and right-subtree values are >=
          ``split_high``.

        Raises ``AssertionError`` when an invariant is violated (used by the
        test-suite and by property-based tests).
        """
        seen = np.zeros(self.n_points, dtype=bool)
        for leaf in self.leaves:
            assert leaf.n_points <= self.config.max_leaf_size, "oversized leaf"
            assert not np.any(seen[leaf.indices]), "point indexed by two leaves"
            seen[leaf.indices] = True
            pts = self.leaf_points(leaf).astype(np.float64)
            assert np.all(pts >= leaf.bbox_min - 1e-6), "point below leaf bbox"
            assert np.all(pts <= leaf.bbox_max + 1e-6), "point above leaf bbox"
        assert np.all(seen), "point missing from every leaf"

        def check(node: Node) -> Tuple[float, float]:
            if node.is_leaf:
                return 0.0, 0.0
            left_vals = self._subtree_values(node.left, node.split_dim)
            right_vals = self._subtree_values(node.right, node.split_dim)
            assert left_vals.max() <= node.split_low + 1e-6, "left child exceeds split_low"
            assert right_vals.min() >= node.split_high - 1e-6, "right child below split_high"
            check(node.left)
            check(node.right)
            return 0.0, 0.0

        check(self.root)

    def _subtree_values(self, node: Node, dim: int) -> np.ndarray:
        indices: List[np.ndarray] = []
        stack = [node]
        while stack:
            current = stack.pop()
            if current.is_leaf:
                indices.append(current.indices)
            else:
                stack.append(current.left)
                stack.append(current.right)
        return self._points[np.concatenate(indices), dim].astype(np.float64)


def build_kdtree(cloud_or_points, config: Optional[KDTreeConfig] = None) -> KDTree:
    """Build a k-d tree over a :class:`PointCloud` or an ``(N, 3)`` array."""
    config = config or KDTreeConfig()
    if isinstance(cloud_or_points, PointCloud):
        points = cloud_or_points.points
    else:
        points = np.asarray(cloud_or_points, dtype=np.float32)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError("points must form an (N, 3) array")
    if points.shape[0] == 0:
        raise ValueError("cannot build a k-d tree over an empty point set")

    points = np.ascontiguousarray(points, dtype=np.float32)
    stats = KDTreeStats(n_points=points.shape[0])
    nodes = _NodeTable()
    indices = np.arange(points.shape[0], dtype=np.intp)
    _build_recursive(points, indices, config, stats, nodes, depth=0)
    return KDTree(points, nodes.arrays(), config, stats)


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


def _build_recursive(points: np.ndarray, indices: np.ndarray, config: KDTreeConfig,
                     stats: KDTreeStats, nodes: _NodeTable, depth: int) -> int:
    stats.max_depth = max(stats.max_depth, depth)
    subset = points[indices].astype(np.float64)
    bbox_min = subset.min(axis=0)
    bbox_max = subset.max(axis=0)
    node_id = nodes.add(bbox_min, bbox_max)

    if indices.shape[0] <= config.max_leaf_size:
        nodes.leaf_id[node_id] = len(nodes.leaf_indices)
        nodes.leaf_indices.append(indices)
        stats.n_leaves += 1
        return node_id

    spread = bbox_max - bbox_min
    split_dim = int(np.argmax(spread))
    values = subset[:, split_dim]
    split_value = float(np.median(values))

    left_mask = values <= split_value
    # Degenerate splits (all values equal, or the median swallowing every
    # point) are resolved by splitting the sorted order in half, which keeps
    # the recursion making progress.
    if left_mask.all() or not left_mask.any():
        order = np.argsort(values, kind="stable")
        half = indices.shape[0] // 2
        left_idx = indices[order[:half]]
        right_idx = indices[order[half:]]
    else:
        left_idx = indices[left_mask]
        right_idx = indices[~left_mask]

    left_values = points[left_idx, split_dim].astype(np.float64)
    right_values = points[right_idx, split_dim].astype(np.float64)
    split_low = float(left_values.max())
    split_high = float(right_values.min())

    left = _build_recursive(points, left_idx, config, stats, nodes, depth + 1)
    right = _build_recursive(points, right_idx, config, stats, nodes, depth + 1)
    stats.n_interior += 1
    nodes.split[node_id] = (split_dim, split_value, split_low, split_high, left, right)
    return node_id
