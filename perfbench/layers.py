"""Which public entry point belongs to which layer.

Each target is ``(owner, attribute, span name)``; the span name's prefix is
the layer (the ``repro`` subpackage).  Functions are patched at the module
that *calls* them (``from x import f`` binds ``f`` in the caller), methods
on the class that defines them.
"""

from __future__ import annotations

from typing import List, Tuple

Target = Tuple[object, str, str]


def frame_targets() -> List[Target]:
    """Entry points on the path of one perception frame (all flavours)."""
    from repro.core import bonsai_search
    from repro.engine.backends import (
        BaselineBatchedBackend,
        BaselinePerQueryBackend,
        BonsaiBatchedBackend,
        BonsaiPerQueryBackend,
    )
    from repro.perception import cluster_filter, euclidean_cluster, ndt
    from repro.perception.tracking import ClusterTracker
    from repro.runtime import bonsai as runtime_bonsai
    from repro.workloads import autoware, localization

    return [
        (autoware.EuclideanClusterPipeline, "run_frame", "workloads.run_frame"),
        (localization.NDTLocalizationPipeline, "__init__", "workloads.ndt_map"),
        (autoware, "preprocess_for_clustering", "pointcloud.preprocess"),
        (localization, "preprocess_for_clustering", "pointcloud.preprocess"),
        (localization, "voxel_grid_filter", "pointcloud.preprocess"),
        (euclidean_cluster, "build_kdtree", "kdtree.build"),
        (ndt, "build_kdtree", "kdtree.build"),
        (runtime_bonsai, "compress_tree", "core.compress"),
        (bonsai_search, "compress_tree", "core.compress"),
        (ndt, "compress_tree", "core.compress"),
        (euclidean_cluster.EuclideanClusterExtractor, "extract", "perception.cluster"),
        (autoware, "label_clusters", "perception.label"),
        (cluster_filter, "filter_by_extent", "perception.filter"),
        (ClusterTracker, "update", "perception.track"),
        (localization.NDTLocalizationPipeline, "register_scan", "perception.ndt"),
        (BaselineBatchedBackend, "radius_search", "runtime.radius"),
        (BonsaiBatchedBackend, "radius_search", "runtime.radius"),
        (BaselineBatchedBackend, "knn", "runtime.knn"),
        (BonsaiBatchedBackend, "knn", "runtime.knn"),
        (BaselinePerQueryBackend, "search", "hwmodel.recorded"),
        (BonsaiPerQueryBackend, "search", "hwmodel.recorded"),
    ]


def store_targets() -> List[Target]:
    """The build and compression pass inside ``SharedCloudStore.create``.

    Only these are patched during map-serve set-up: the service's workers
    are forked there and must not inherit any other wrapper.
    """
    from repro.serve import store

    return [
        (store, "build_kdtree", "kdtree.build"),
        (store, "compress_tree", "core.compress"),
    ]


def replay_targets() -> List[Target]:
    """The batched engines behind the in-process replay of served requests."""
    from repro.engine.backends import BaselineBatchedBackend, BonsaiBatchedBackend

    return [
        (BaselineBatchedBackend, "radius_search", "runtime.radius"),
        (BonsaiBatchedBackend, "radius_search", "runtime.radius"),
        (BaselineBatchedBackend, "knn", "runtime.knn"),
        (BonsaiBatchedBackend, "knn", "runtime.knn"),
    ]
