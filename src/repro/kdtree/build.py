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

The build runs level by level: one array pass splits every node of a level
(:func:`_build_levels`), with the medians, partitions and node order that
splitting one node at a time gives.  It writes the tree as flat arrays
(:class:`TreeArrays`): the batched searches traverse those one level per
NumPy step, the per-query searches walk them node id by node id, and the
shared-memory store publishes them.
"""
# repro-lint: disable-file=hygiene-assert-control-flow -- KDTree.validate()
# documents "Raises AssertionError" as its contract; its asserts are the API.

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..pointcloud.cloud import PointCloud

__all__ = ["KDTree", "KDTreeConfig", "NodeLists", "TreeArrays", "build_kdtree"]

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


class NodeLists(NamedTuple):
    """The node fields of :class:`TreeArrays` as Python lists.

    The per-query walks step through node ids one at a time, and indexing a
    list is cheaper than reading a NumPy scalar.
    """

    split_dim: List[int]
    split_value: List[float]
    split_low: List[float]
    split_high: List[float]
    left: List[int]
    right: List[int]
    leaf_id: List[int]
    leaf_starts: List[int]


class KDTree:
    """A leaf-based k-d tree over a fixed set of 3D points.

    ``arrays`` is the tree itself.  ``compressed_array`` is the K-D Bonsai
    ``cmprsd_strct_array`` of the tree (a
    :class:`~repro.core.compressed_leaf.CompressedStructArray`), set by
    :func:`~repro.core.compressed_leaf.compress_tree`; ``None`` until then.
    """

    def __init__(self, points: np.ndarray, arrays: TreeArrays,
                 config: KDTreeConfig, stats: KDTreeStats,
                 points_f64: Optional[np.ndarray] = None):
        self._points = points
        self._points_f64 = points_f64
        self.arrays = arrays
        self.config = config
        self.stats = stats
        self.compressed_array = None
        self._node_lists: Optional[NodeLists] = None

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
    def node_lists(self) -> NodeLists:
        """The node fields of :attr:`arrays` as lists, converted once and cached."""
        if self._node_lists is None:
            arrays = self.arrays
            self._node_lists = NodeLists(
                *(getattr(arrays, name).tolist() for name in NodeLists._fields))
        return self._node_lists

    @property
    def n_points(self) -> int:
        """Number of indexed points."""
        return self._points.shape[0]

    @property
    def n_leaves(self) -> int:
        """Number of leaf nodes."""
        return self.arrays.n_leaves

    def depth(self) -> int:
        """Maximum depth of the tree (root at depth 0)."""
        return self.stats.max_depth

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
        arrays = self.arrays
        sizes = arrays.leaf_sizes
        assert np.all(sizes <= self.config.max_leaf_size), "oversized leaf"
        counts = np.bincount(arrays.leaf_points, minlength=self.n_points)
        assert np.all(counts <= 1), "point indexed by two leaves"
        assert np.all(counts >= 1), "point missing from every leaf"

        leaf_nodes = np.flatnonzero(arrays.leaf_id >= 0)
        node_of_leaf = np.empty(arrays.n_leaves, dtype=np.intp)
        node_of_leaf[arrays.leaf_id[leaf_nodes]] = leaf_nodes
        owner = np.repeat(node_of_leaf, sizes)
        pts = self._points[arrays.leaf_points].astype(np.float64)
        assert np.all(pts >= arrays.bbox_min[owner] - 1e-6), "point below leaf bbox"
        assert np.all(pts <= arrays.bbox_max[owner] + 1e-6), "point above leaf bbox"

        # Each subtree's coordinate range, children before parents.
        low = np.empty((arrays.n_nodes, 3))
        high = np.empty((arrays.n_nodes, 3))
        low[node_of_leaf] = np.minimum.reduceat(pts, arrays.leaf_starts[:-1])
        high[node_of_leaf] = np.maximum.reduceat(pts, arrays.leaf_starts[:-1])
        nodes = self.node_lists
        walk, order = [0], []
        while walk:
            node = walk.pop()
            order.append(node)
            if nodes.leaf_id[node] < 0:
                walk += (nodes.left[node], nodes.right[node])
        for node in reversed(order):
            if nodes.leaf_id[node] >= 0:
                continue
            left, right, dim = nodes.left[node], nodes.right[node], nodes.split_dim[node]
            assert high[left, dim] <= nodes.split_low[node] + 1e-6, \
                "left child exceeds split_low"
            assert low[right, dim] >= nodes.split_high[node] - 1e-6, \
                "right child below split_high"
            low[node] = np.minimum(low[left], low[right])
            high[node] = np.maximum(high[left], high[right])


def build_kdtree(cloud_or_points, config: Optional[KDTreeConfig] = None) -> KDTree:
    """Build a k-d tree over a :class:`PointCloud` or an ``(N, 3)`` array.

    Raises ``ValueError`` for an empty or mis-shaped point set and for NaN
    or infinite coordinates.
    """
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
    if not np.isfinite(points).all():
        raise ValueError("cannot build a k-d tree over NaN or infinite points")
    levels, order = _build_levels(points, config.max_leaf_size)
    arrays = _preorder_arrays(levels, order)
    stats = KDTreeStats(n_points=points.shape[0], n_leaves=arrays.n_leaves,
                        n_interior=arrays.n_leaves - 1, max_depth=len(levels) - 1)
    return KDTree(points, arrays, config, stats)


@dataclass
class _Level:
    """The nodes of one tree level, in ``order`` position order.

    Node ``j`` owns ``order[start[j]:start[j] + size[j]]`` and took
    ``turns[j]`` right-child steps from the root.  The split fields list
    the interior nodes (``inner``) only.
    """

    start: np.ndarray
    size: np.ndarray
    turns: np.ndarray
    inner: np.ndarray
    bbox_min: np.ndarray
    bbox_max: np.ndarray
    split_dim: Optional[np.ndarray] = None
    split_value: Optional[np.ndarray] = None
    split_low: Optional[np.ndarray] = None
    split_high: Optional[np.ndarray] = None
    n_left: Optional[np.ndarray] = None


def _build_levels(points: np.ndarray, max_leaf_size: int) -> Tuple[List[_Level], np.ndarray]:
    """Split every node of a level in one array pass, level by level.

    A node is a range of ``order``, which is refined in place: an interior
    node stably partitions its range into the points at or below the
    median of its widest coordinate (left child) and the rest (right
    child), so children stay inside their parent's range and the final
    ``order`` lists the points leaf by leaf in preorder.  When the median
    would leave a side empty, the value-sorted first half goes left.
    """
    xyz = np.ascontiguousarray(points.T)
    order = np.arange(points.shape[0], dtype=np.intp)
    start = np.zeros(1, dtype=np.intp)
    size = np.array([points.shape[0]], dtype=np.intp)
    turns = np.zeros(1, dtype=np.intp)
    levels: List[_Level] = []
    while start.size:
        offsets = np.cumsum(size) - size
        positions = np.repeat(start - offsets, size)
        positions += np.arange(positions.size)
        ids = np.take(order, positions)
        coords = np.take(xyz, ids, axis=1)
        level = _Level(start=start, size=size, turns=turns, inner=size > max_leaf_size,
                       bbox_min=np.minimum.reduceat(coords, offsets, axis=1).T.astype(np.float64),
                       bbox_max=np.maximum.reduceat(coords, offsets, axis=1).T.astype(np.float64))
        levels.append(level)
        if not level.inner.any():
            break
        if not level.inner.all():
            interior = np.repeat(level.inner, size)
            ids, coords = ids[interior], coords[:, interior]
        start, size, turns = _split_level(level, order, ids, coords)
    return levels, order


def _split_level(level: _Level, order: np.ndarray, ids: np.ndarray,
                 coords: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split the interior nodes of ``level``; returns the children's ranges.

    ``ids`` and the ``(3, n)`` ``coords`` are the interior nodes' points in
    ``order`` order.  The median is what ``np.median`` returns: the middle
    value, or the float64 mean of the two middle values.  Each node's
    values are sorted as one integer key: the node, then the float32
    value's order-preserving bits.
    """
    inner = level.inner
    start, size = level.start[inner], level.size[inner]
    offsets = np.cumsum(size) - size
    node = np.repeat(np.arange(size.size), size)
    split_dim = np.argmax(level.bbox_max[inner] - level.bbox_min[inner], axis=1)
    element = np.arange(node.size)
    values = np.take(coords, split_dim[node] * node.size + element)
    keys = _ordered_bits(values.view(np.int32)).astype(np.int64)
    keys += node.astype(np.int64) << 32
    keys.sort()

    def sorted_value(rank: np.ndarray) -> np.ndarray:
        """Each node's ``rank``-th smallest value, as float64."""
        bits = np.take(keys, offsets + rank).astype(np.int32)  # the low 32 bits
        return _ordered_bits(bits).view(np.float32).astype(np.float64)

    upper = sorted_value(size // 2)
    split_value = np.where(size % 2 == 1, upper, (sorted_value(size // 2 - 1) + upper) / 2)
    right = values > np.take(split_value, node)
    n_left = size - np.add.reduceat(right, offsets, dtype=np.intp)
    degenerate = (n_left == 0) | (n_left == size)
    n_left[degenerate] = size[degenerate] // 2

    # Stable partition: a point's slot in its node is its rank among the
    # node's left points, or the left count plus its rank among the right.
    local = element - np.take(offsets, node)
    rights_before = np.cumsum(right) - right
    rights_before -= np.take(rights_before[offsets], node)
    slot = np.where(right, np.take(n_left, node) + rights_before, local - rights_before)
    if degenerate.any():
        members = np.flatnonzero(np.take(degenerate, node))
        ranked = members[np.lexsort((values[members], node[members]))]
        slot[ranked] = local[members]
    slot += np.take(start, node)
    order[slot] = ids

    level.split_dim = split_dim
    level.split_value = split_value
    level.split_low = sorted_value(n_left - 1)
    level.split_high = sorted_value(n_left)
    level.n_left = n_left
    turns = level.turns[inner]
    return (np.column_stack([start, start + n_left]).ravel(),
            np.column_stack([n_left, size - n_left]).ravel(),
            np.column_stack([turns, turns + 1]).ravel())


def _ordered_bits(bits: np.ndarray) -> np.ndarray:
    """Map float32 bit patterns (as int32) to int32 keys in the same order.

    The map is its own inverse: it turns the keys back into bit patterns.
    """
    return bits ^ ((bits >> 31) & 0x7FFFFFFF)


def _preorder_arrays(levels: List[_Level], order: np.ndarray) -> TreeArrays:
    """Number the nodes of ``levels`` in preorder and write the flat arrays.

    The leaves tile ``order`` in preorder, so a node's preorder id is its
    depth (its ancestors) plus the nodes of the subtrees left of its path:
    ``2 * L - turns``, ``L`` the leaves starting before it, each of its
    ``turns`` right-child steps passing one whole left subtree.
    """
    leaf_start = np.sort(np.concatenate([lv.start[~lv.inner] for lv in levels]))
    n_nodes = 2 * leaf_start.size - 1
    split_dim = np.zeros(n_nodes, dtype=np.intp)
    split_value = np.zeros(n_nodes)
    split_low = np.zeros(n_nodes)
    split_high = np.zeros(n_nodes)
    left = np.full(n_nodes, -1, dtype=np.intp)
    right = np.full(n_nodes, -1, dtype=np.intp)
    leaf_id = np.full(n_nodes, -1, dtype=np.intp)
    bbox_min = np.empty((n_nodes, 3))
    bbox_max = np.empty((n_nodes, 3))
    for depth, level in enumerate(levels):
        before = np.searchsorted(leaf_start, level.start)
        node = depth + 2 * before - level.turns
        bbox_min[node] = level.bbox_min
        bbox_max[node] = level.bbox_max
        leaf_id[node[~level.inner]] = before[~level.inner]
        if level.n_left is None:
            continue
        inner = node[level.inner]
        split_dim[inner] = level.split_dim
        split_value[inner] = level.split_value
        split_low[inner] = level.split_low
        split_high[inner] = level.split_high
        left[inner] = inner + 1
        left_leaves = (np.searchsorted(leaf_start, level.start[level.inner] + level.n_left)
                       - before[level.inner])
        right[inner] = inner + 2 * left_leaves
    return TreeArrays(
        split_dim=split_dim, split_value=split_value, split_low=split_low,
        split_high=split_high, left=left, right=right, leaf_id=leaf_id,
        bbox_min=bbox_min, bbox_max=bbox_max,
        leaf_starts=np.append(leaf_start, order.size).astype(np.int64),
        leaf_points=order)
