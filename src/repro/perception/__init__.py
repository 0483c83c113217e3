"""Perception / localization workloads built on the k-d tree radius search."""

from .cluster_filter import (
    DetectedObject,
    filter_by_extent,
    label_clusters,
    match_clusters_to_labels,
)
from .euclidean_cluster import Cluster, ClusterConfig, ClusterResult, EuclideanClusterExtractor
from .ndt import NDTConfig, NDTMap, NDTMatcher, NDTResult, VoxelGaussian
from .tracking import ClusterTracker, Track, TrackerConfig

__all__ = [
    "DetectedObject",
    "filter_by_extent",
    "label_clusters",
    "match_clusters_to_labels",
    "Cluster",
    "ClusterConfig",
    "ClusterResult",
    "EuclideanClusterExtractor",
    "NDTConfig",
    "NDTMap",
    "NDTMatcher",
    "NDTResult",
    "VoxelGaussian",
    "ClusterTracker",
    "Track",
    "TrackerConfig",
]
