"""Point cloud pre-processing filters.

Autoware's euclidean-cluster node does not feed raw LiDAR returns straight
into clustering: the cloud is cropped, the ground plane is removed, and a
voxel-grid filter thins the data.  These filters are reproduced here so the
workload pipelines exercise the same structure the paper profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .cloud import PointCloud

__all__ = [
    "voxel_ids",
    "voxel_grid_filter",
    "crop_box_filter",
    "remove_ground_plane",
    "range_filter",
    "PreprocessConfig",
    "preprocess_for_clustering",
]


def voxel_ids(points: np.ndarray, size: float) -> np.ndarray:
    """The cubic voxel (edge ``size``) of every point, numbered lexicographically.

    A point's voxel is the floor of its float64 coordinates over ``size``.
    The ids are those ``np.unique(voxels, axis=0, return_inverse=True)``
    gives: voxels in lexicographic (x, y, z) order.  The three integer
    coordinates are sorted as separate keys, so no packed key can overflow
    however fine the voxels or wide the cloud.
    """
    voxels = np.floor(np.asarray(points, dtype=np.float64) / size).astype(np.int64)
    order = np.lexsort(voxels.T[::-1])
    ranked = voxels[order]
    first = np.ones(order.size, dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=first[1:])
    ids = np.empty(order.size, dtype=np.intp)
    ids[order] = np.cumsum(first) - 1
    return ids


def voxel_grid_filter(cloud: PointCloud, leaf_size: float) -> PointCloud:
    """Downsample by keeping one centroid per occupied voxel.

    Matches PCL's ``VoxelGrid`` behaviour: points are bucketed into cubic
    voxels of edge ``leaf_size`` and each occupied voxel contributes the
    centroid of its points.  Centroids come in lexicographic voxel order.
    """
    if leaf_size <= 0.0:
        raise ValueError("leaf_size must be positive")
    if cloud.is_empty:
        return PointCloud(frame_id=cloud.frame_id, timestamp=cloud.timestamp)

    points = cloud.points.astype(np.float64)
    ids = voxel_ids(points, leaf_size)
    counts = np.bincount(ids)
    sums = np.zeros((counts.shape[0], 3), dtype=np.float64)
    np.add.at(sums, ids, points)
    centroids = sums / counts[:, None]
    return PointCloud(centroids.astype(np.float32), cloud.frame_id, cloud.timestamp)


def crop_box_filter(cloud: PointCloud,
                    minimum: Sequence[float],
                    maximum: Sequence[float],
                    negative: bool = False) -> PointCloud:
    """Keep points inside (or outside, if ``negative``) an axis-aligned box."""
    minimum = np.asarray(minimum, dtype=np.float64)
    maximum = np.asarray(maximum, dtype=np.float64)
    if np.any(minimum > maximum):
        raise ValueError("crop box minimum exceeds maximum")
    points = cloud.points.astype(np.float64)
    inside = np.all((points >= minimum) & (points <= maximum), axis=1)
    mask = ~inside if negative else inside
    return PointCloud(cloud.points[mask], cloud.frame_id, cloud.timestamp)


def remove_ground_plane(cloud: PointCloud, ground_z: float = -1.6,
                        tolerance: float = 0.25) -> PointCloud:
    """Drop points within ``tolerance`` of the (known, flat) ground height.

    Autoware uses RANSAC or ray-based ground filters; for the synthetic flat
    scenes the ground height is known, so a height threshold reproduces the
    same effect (removing the dominant connected surface that would otherwise
    merge all clusters).
    """
    points = cloud.points
    keep = points[:, 2] > (ground_z + tolerance)
    return PointCloud(points[keep], cloud.frame_id, cloud.timestamp)


def range_filter(cloud: PointCloud, min_range: float = 0.0,
                 max_range: float = np.inf) -> PointCloud:
    """Keep points whose distance to the origin lies in ``[min_range, max_range]``."""
    if min_range > max_range:
        raise ValueError("min_range exceeds max_range")
    distances = np.linalg.norm(cloud.points.astype(np.float64), axis=1)
    keep = (distances >= min_range) & (distances <= max_range)
    return PointCloud(cloud.points[keep], cloud.frame_id, cloud.timestamp)


@dataclass
class PreprocessConfig:
    """Pre-processing pipeline parameters for the clustering workload."""

    crop_min: Tuple[float, float, float] = (-60.0, -30.0, -2.5)
    crop_max: Tuple[float, float, float] = (60.0, 30.0, 4.0)
    ground_z: float = -1.8
    ground_tolerance: float = 0.3
    voxel_leaf_size: float = 0.3
    min_range: float = 1.0
    max_range: float = 120.0


def preprocess_for_clustering(cloud: PointCloud,
                              config: Optional[PreprocessConfig] = None) -> PointCloud:
    """Apply the Autoware-style pre-processing chain before clustering."""
    config = config or PreprocessConfig()
    out = range_filter(cloud, config.min_range, config.max_range)
    out = crop_box_filter(out, config.crop_min, config.crop_max)
    out = remove_ground_plane(out, config.ground_z, config.ground_tolerance)
    if config.voxel_leaf_size > 0.0:
        out = voxel_grid_filter(out, config.voxel_leaf_size)
    return out
