"""PCL/FLANN-style leaf-based k-d tree with pluggable leaf processing."""

from .build import DEFAULT_MAX_LEAF_SIZE, KDTree, KDTreeConfig, KDTreeStats, build_kdtree
from .knn import nearest_neighbor, nearest_neighbors
from .layout import INDEX_STRIDE_BYTES, NODE_RECORD_BYTES, POINT_STRIDE_BYTES
from .radius_search import (
    Float32LeafInspector,
    LeafInspector,
    RadiusSearcher,
    SearchStats,
    radius_search,
)

__all__ = [
    "DEFAULT_MAX_LEAF_SIZE",
    "KDTree",
    "KDTreeConfig",
    "KDTreeStats",
    "build_kdtree",
    "nearest_neighbor",
    "nearest_neighbors",
    "INDEX_STRIDE_BYTES",
    "NODE_RECORD_BYTES",
    "POINT_STRIDE_BYTES",
    "Float32LeafInspector",
    "LeafInspector",
    "RadiusSearcher",
    "SearchStats",
    "radius_search",
]
