"""Euclidean cluster extraction (the Autoware.ai task the paper evaluates).

The algorithm is the classic PCL ``EuclideanClusterExtraction`` used by
Autoware's lidar_euclidean_cluster_detect node: grow clusters by repeatedly
radius-searching around unprocessed points, then keep clusters whose size
falls within configured bounds.  Radius search dominates its execution time,
which is exactly the property the paper exploits (Figure 2).

The extractor selects its search by execution-backend name
(:mod:`repro.engine`), so the same clustering code runs on top of any named
backend — per-query or batched, baseline 32-bit or K-D Bonsai compressed —
mirroring how the paper's PCL modification is toggled by a boolean flag but
keeping the mode as *data* (an :class:`~repro.engine.execution.ExecutionConfig`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..engine.backends import SearchBackend
from ..engine.execution import ExecutionConfig
from ..kdtree.build import KDTree, KDTreeConfig, build_kdtree
from ..kdtree.layout import (
    INDEX_STRIDE_BYTES,
    POINT_STRIDE_BYTES,
    flag_address,
    point_address,
    queue_address,
)
from ..kdtree.radius_search import MemoryRecorder, SearchStats
from ..pointcloud.cloud import BoundingBox, PointCloud
from ..runtime.batch import BatchRadiusResult

__all__ = ["Cluster", "ClusterConfig", "ClusterResult", "EuclideanClusterExtractor"]


@dataclass
class Cluster:
    """One extracted cluster: point indices plus derived geometry."""

    indices: List[int]
    centroid: np.ndarray
    bbox: BoundingBox

    @property
    def size(self) -> int:
        """Number of points in the cluster."""
        return len(self.indices)


@dataclass
class ClusterConfig:
    """Parameters of euclidean cluster extraction.

    Defaults follow Autoware's euclidean cluster node: clustering tolerance
    (the radius) in the tens of centimetres, and size bounds that discard
    sensor noise and oversized merges.
    """

    tolerance: float = 0.6
    min_cluster_size: int = 5
    max_cluster_size: int = 20000
    max_leaf_size: int = 15


@dataclass
class ClusterResult:
    """Clusters plus the accounting gathered while extracting them."""

    clusters: List[Cluster]
    n_points: int
    search_stats: SearchStats
    tree: KDTree
    #: The Bonsai backend that served the searches (``None`` for baseline
    #: runs); exposes ``bonsai_stats`` and the compression ``report``.
    bonsai: Optional[SearchBackend] = None

    @property
    def n_clusters(self) -> int:
        """Number of clusters that passed the size filters."""
        return len(self.clusters)

    @property
    def labels(self) -> np.ndarray:
        """Per-point cluster label (-1 for unclustered points)."""
        labels = np.full(self.n_points, -1, dtype=np.int64)
        for cluster_id, cluster in enumerate(self.clusters):
            labels[cluster.indices] = cluster_id
        return labels


class EuclideanClusterExtractor:
    """Cluster a point cloud by euclidean proximity over a k-d tree.

    The search backend is selected by :class:`ExecutionConfig`
    (``baseline-batched`` when omitted).  All backends produce identical
    clusters and search statistics.  ``recorder`` attaches a caller's memory
    recorder (a hardware ``execution`` without one records on the Table IV
    machine, or on its ``cache_config``).
    """

    def __init__(self, config: Optional[ClusterConfig] = None, *,
                 recorder: Optional[MemoryRecorder] = None,
                 execution: Optional[ExecutionConfig] = None):
        self.config = config or ClusterConfig()
        self.execution = execution or ExecutionConfig()
        if recorder is None and self.execution.hardware:
            recorder = self.execution.make_recorder()
        self.recorder = recorder

    def extract(self, cloud: PointCloud) -> ClusterResult:
        """Build the tree, grow clusters and return the filtered result.

        Every point of the cloud is searched in one batched radius query
        through the configured backend, and the clusters are the connected
        components of the resulting radius graph.  Only with a memory
        recorder attached do the clusters grow query by query, because the
        trace-driven cache simulation depends on the exact order of the
        recorded memory accesses.  Both paths search every point once, so
        they produce identical clusters and search statistics.
        """
        if cloud.is_empty:
            return ClusterResult(clusters=[], n_points=0, search_stats=SearchStats(),
                                 tree=None)  # type: ignore[arg-type]
        tree = build_kdtree(cloud, KDTreeConfig(max_leaf_size=self.config.max_leaf_size))
        execution = self.execution

        if self.recorder is not None:
            # Recorded (hardware-in-the-loop) extraction: make_backend
            # resolves to the per-query backend of the configured flavour
            # with the recorder attached, so leaf/point loads — including
            # the build-time compression traffic of a fresh Bonsai tree —
            # stream into the cache model.
            backend = execution.make_backend(tree, recorder=self.recorder)
            clusters = self._grow_clusters(cloud, backend.search)
        else:
            backend = execution.make_backend(tree)
            clusters = self._grow_clusters_batched(cloud, backend.radius_search)
        return ClusterResult(
            clusters=clusters,
            n_points=len(cloud),
            search_stats=backend.stats,
            tree=tree,
            bonsai=backend if execution.use_bonsai else None,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _grow_clusters_batched(
            self, cloud: PointCloud,
            batch_search: Callable[[np.ndarray, float], BatchRadiusResult],
    ) -> List[Cluster]:
        """Cluster from one radius graph: a single batched query per cloud.

        Euclidean clusters are the connected components of the fixed-radius
        graph, which do not depend on the search order, so this produces the
        same clusters as the per-query growth.  Every point is searched
        exactly once, so the statistics aggregate identically.
        """
        roots = _component_roots(batch_search(cloud.points, self.config.tolerance))
        # A stable sort by root groups each component's members in
        # ascending order, components in order of their lowest point index.
        members = np.argsort(roots, kind="stable")
        sizes = np.bincount(roots)
        sizes = sizes[sizes > 0]
        ends = np.cumsum(sizes)
        keep = ((sizes >= self.config.min_cluster_size)
                & (sizes <= self.config.max_cluster_size))
        return [_make_cluster(cloud, members[end - size:end].tolist())
                for end, size in zip(ends[keep].tolist(), sizes[keep].tolist())]

    def _grow_clusters(self, cloud: PointCloud,
                       search: Callable[[Sequence[float], float], List[int]]) -> List[Cluster]:
        """Grow clusters query by query, recording the extract kernel's own
        point, flag and queue accesses around each search."""
        n = len(cloud)
        processed = np.zeros(n, dtype=bool)
        clusters: List[Cluster] = []
        tolerance = self.config.tolerance
        recorder = self.recorder

        for seed in range(n):
            if processed[seed]:
                continue
            processed[seed] = True
            members = [seed]
            frontier = deque([seed])
            while frontier:
                current = frontier.popleft()
                # The cluster loop reads the query point from the cloud and
                # its processed flag; these accesses are part of the extract
                # kernel's memory behaviour and keep the point array warm in
                # the baseline configuration.
                recorder.record_load(point_address(current), POINT_STRIDE_BYTES)
                recorder.record_load(flag_address(current), 1)
                neighbors = search(cloud[current], tolerance)
                for neighbor in neighbors:
                    recorder.record_load(flag_address(neighbor), 1)
                    if not processed[neighbor]:
                        processed[neighbor] = True
                        members.append(neighbor)
                        frontier.append(neighbor)
                        recorder.record_store(flag_address(neighbor), 1)
                        recorder.record_store(queue_address(len(frontier)),
                                              INDEX_STRIDE_BYTES)
            if self.config.min_cluster_size <= len(members) <= self.config.max_cluster_size:
                clusters.append(_make_cluster(cloud, sorted(members)))
        return clusters


def _make_cluster(cloud: PointCloud, indices: List[int]) -> Cluster:
    """The cluster of ``indices`` (ascending), its geometry in float64."""
    points = cloud.points[indices].astype(np.float64)
    return Cluster(indices=indices, centroid=points.mean(axis=0),
                   bbox=BoundingBox.from_points(points))


def _component_roots(graph: BatchRadiusResult) -> np.ndarray:
    """The lowest point index of each point's connected component.

    ``graph`` holds every point's radius hits; its edges are read as
    undirected, so a point whose row is empty (it did not even find itself)
    still joins the rows that found it, and a point no edge touches stays a
    singleton.  Min-label hooking with pointer jumping: each round hooks
    every component root onto the smallest root across its edges, then
    shortcuts every point straight to its root and drops the edges that
    now join a component to itself.  Every component that still has an
    edge to another one merges in this round or the next, so the rounds
    grow with the logarithm of the component size, not with its diameter.
    """
    roots = np.arange(graph.n_queries)
    heads = np.repeat(roots, graph.counts)
    tails = graph.point_indices
    while heads.size:
        np.minimum.at(roots, np.maximum(heads, tails), np.minimum(heads, tails))
        jumped = roots[roots]
        while not np.array_equal(jumped, roots):
            roots = jumped
            jumped = roots[roots]
        heads = roots[heads]
        tails = roots[tails]
        linked = heads != tails
        heads = heads[linked]
        tails = tails[linked]
    return roots
