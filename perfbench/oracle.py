"""Independent references built with scipy, outside every timed interval.

``scipy.spatial.cKDTree`` shares no code with ``repro.kdtree``,
``repro.runtime`` or ``repro.core``:

* radius hits come from ``query_ball_point`` (sorted per query);
* kNN neighbours come from ``query``; distances are recomputed here from
  the coordinates (scipy's own sum order differs from the program's in the
  last bit) and must match exactly, and indices must match except where
  the distance is tied;
* cluster partitions are the connected components of ``query_pairs`` at
  the tolerance, filtered by the size bounds.

Each ``check_*`` returns ``None`` when the program's output matches, or a
one-line description of the first mismatch.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Sequence, Set, Tuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

Partition = Set[Tuple[int, ...]]


class RadiusReference:
    """Expected radius hits as a CSR pair (``offsets``, ``indices``)."""

    def __init__(self, tree: cKDTree, queries: np.ndarray, radius: float):
        hits = tree.query_ball_point(np.asarray(queries, dtype=np.float64),
                                     radius, return_sorted=True)
        counts = np.fromiter((len(h) for h in hits), dtype=np.intp, count=len(hits))
        self.offsets = np.zeros(len(hits) + 1, dtype=np.intp)
        np.cumsum(counts, out=self.offsets[1:])
        self.indices = (np.concatenate([np.asarray(h, dtype=np.intp) for h in hits])
                        if self.offsets[-1] else np.zeros(0, dtype=np.intp))

    def check(self, offsets: np.ndarray, indices: np.ndarray) -> Optional[str]:
        offsets = np.asarray(offsets)
        indices = np.asarray(indices)
        if offsets.shape != self.offsets.shape or not np.array_equal(offsets, self.offsets):
            bad = _first_difference(offsets, self.offsets)
            return f"radius hit counts differ (first at query {bad})"
        if not np.array_equal(indices, self.indices):
            position = _first_difference(indices, self.indices)
            query = int(np.searchsorted(self.offsets, position, side="right") - 1)
            return f"radius hits differ at query {query}"
        return None


class KNNReference:
    """Expected k nearest neighbours: scipy indices plus exact distances."""

    def __init__(self, tree: cKDTree, points: np.ndarray, queries: np.ndarray, k: int):
        self.points = np.asarray(points, dtype=np.float64)
        self.queries = np.asarray(queries, dtype=np.float64)
        width = min(k, len(self.points))
        _, indices = tree.query(self.queries, k=width)
        self.indices = np.asarray(indices, dtype=np.intp).reshape(len(self.queries), width)
        self.distances = self.distances_to(self.indices)

    def distances_to(self, indices: np.ndarray) -> np.ndarray:
        """Euclidean distances from each query to ``indices`` of its row."""
        diffs = self.points[indices] - self.queries[:, None, :]
        return np.sqrt(np.einsum("qkd,qkd->qk", diffs, diffs))

    def check(self, indices: np.ndarray, distances: np.ndarray) -> Optional[str]:
        indices = np.asarray(indices)
        distances = np.asarray(distances)
        if indices.shape != self.indices.shape:
            return f"kNN shape {indices.shape} != {self.indices.shape}"
        if not np.array_equal(distances, self.distances):
            row = int(np.argwhere(distances != self.distances)[0][0])
            return f"kNN distances differ at query {row}"
        if (indices < 0).any() or (indices >= len(self.points)).any():
            return "kNN index out of range"
        if any(len(set(row.tolist())) != len(row) for row in indices):
            return "kNN row repeats an index"
        differs = indices != self.indices
        if differs.any():
            # A different index is only allowed where its true distance ties
            # the reference distance at that rank.
            actual = self.distances_to(np.where(differs, indices, self.indices))
            untied = differs & (actual != self.distances)
            if untied.any():
                row = int(np.argwhere(untied)[0][0])
                return f"kNN index differs at query {row} without a distance tie"
        return None


def cluster_partition(points: np.ndarray, tolerance: float,
                      min_size: int, max_size: int) -> Partition:
    """Euclidean clusters as a set of sorted index tuples."""
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if n == 0:
        return set()
    pairs = cKDTree(points).query_pairs(tolerance, output_type="ndarray")
    graph = coo_matrix((np.ones(len(pairs), dtype=np.int8), (pairs[:, 0], pairs[:, 1])),
                       shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    order = np.argsort(labels, kind="stable")
    bounds = np.flatnonzero(np.diff(labels[order])) + 1
    return {tuple(group.tolist()) for group in np.split(order, bounds)
            if min_size <= len(group) <= max_size}


def check_partition(expected: Partition,
                    clusters: Sequence[Sequence[int]]) -> Optional[str]:
    """Compare clusters (lists of point indices) against ``expected``."""
    actual = [tuple(sorted(int(i) for i in cluster)) for cluster in clusters]
    if len(set(actual)) != len(actual):
        return "a cluster is reported twice"
    missing: FrozenSet = frozenset(expected) - frozenset(actual)
    extra = frozenset(actual) - frozenset(expected)
    if missing or extra:
        return (f"cluster partition differs: {len(missing)} expected clusters "
                f"missing, {len(extra)} unexpected ({len(actual)} vs {len(expected)})")
    return None


def _first_difference(a: np.ndarray, b: np.ndarray) -> int:
    n = min(len(a), len(b))
    differ = np.flatnonzero(a[:n] != b[:n])
    return int(differ[0]) if differ.size else n
