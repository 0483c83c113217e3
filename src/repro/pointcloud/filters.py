"""Point cloud pre-processing filters.

Autoware's euclidean-cluster node does not feed raw LiDAR returns straight
into clustering: the cloud is cropped, the ground plane is removed, and a
voxel-grid filter thins the data.  These filters are reproduced here so the
workload pipelines exercise the same structure the paper profiles.
"""

from __future__ import annotations

import math
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


def _columns(points) -> np.ndarray:
    """The float64 x, y and z columns of ``(N, 3)`` points as one ``(3, N)`` array.

    Each axis is one contiguous row: NumPy compares and reduces those far
    faster than the 3-wide rows of an ``(N, 3)`` array.  Copies only when
    the points are not already laid out so.
    """
    return np.asarray(np.asarray(points).T, dtype=np.float64, order="C")


def _in_range(columns: np.ndarray, min_range: float, max_range: float) -> np.ndarray:
    """Whether each point's distance to the origin lies in ``[min_range, max_range]``."""
    if min_range > max_range:
        raise ValueError("min_range exceeds max_range")
    x, y, z = columns
    # (x*x + y*y) + z*z is the sum np.linalg.norm(axis=1) takes, bit for bit.
    distances = np.sqrt(x * x + y * y + z * z)
    return (distances >= min_range) & (distances <= max_range)


def _in_box(columns: np.ndarray, minimum: Sequence[float],
            maximum: Sequence[float]) -> np.ndarray:
    """Whether each point lies inside the axis-aligned box (faces included)."""
    # A bound of any length but 1 or 3 is refused, as the (N, 3) compare did.
    minimum = np.broadcast_to(np.asarray(minimum, dtype=np.float64), 3)
    maximum = np.broadcast_to(np.asarray(maximum, dtype=np.float64), 3)
    if np.any(minimum > maximum):
        raise ValueError("crop box minimum exceeds maximum")
    inside = np.ones(columns.shape[1], dtype=bool)
    for column, low, high in zip(columns, minimum, maximum):
        inside &= column >= low
        inside &= column <= high
    return inside


def _above_ground(z: np.ndarray, ground_z: float, tolerance: float) -> np.ndarray:
    """Whether each float32 height ``z`` lies above ``ground_z + tolerance``.

    NumPy compares a Python-float threshold in the column's float32.
    """
    return z > (ground_z + tolerance)


def _take(cloud: PointCloud, keep: np.ndarray) -> PointCloud:
    return PointCloud(np.compress(keep, cloud.points, axis=0), cloud.frame_id, cloud.timestamp)


def voxel_ids(points: np.ndarray, size: float) -> np.ndarray:
    """The cubic voxel (edge ``size``) of every point, numbered lexicographically.

    A point's voxel is the floor of its float64 coordinates over ``size``.
    The ids are those ``np.unique(voxels, axis=0, return_inverse=True)``
    gives: voxels in lexicographic (x, y, z) order.  They come from one
    sort of a packed key, the voxel's offsets from the cloud's lowest voxel
    in mixed radix, whenever the product of the three spans fits in 63 bits;
    finer voxels over a wider cloud sort the three integer coordinates as
    separate keys.  Raises ``ValueError`` for non-finite points and for
    voxel coordinates outside int64.
    """
    columns = _columns(points)
    voxels = np.floor(columns / size)
    ids = np.empty(voxels.shape[1], dtype=np.intp)
    if ids.size == 0:
        return ids
    lowest, highest = voxels.min(axis=1), voxels.max(axis=1)
    if not (np.all(lowest >= -2.0 ** 63) and np.all(highest < 2.0 ** 63)):
        if not np.all(np.isfinite(columns)):
            raise ValueError("voxel_ids needs finite points")
        raise ValueError(f"voxel coordinates of edge {size} exceed int64")
    voxels = voxels.astype(np.int64)
    lowest = [int(v) for v in lowest]
    spans = [int(v) - low + 1 for v, low in zip(highest, lowest)]
    first = np.ones(ids.size, dtype=bool)
    if math.prod(spans) < 2 ** 63:
        # One mixed-radix key of the offsets from the lowest voxel: its
        # order is the lexicographic order of the voxels.
        key = voxels[0] - lowest[0]
        for row, low, span in zip(voxels[1:], lowest[1:], spans[1:]):
            key *= span
            key += row - low
        order = np.argsort(key)
        ranked = key[order]
        np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    else:
        order = np.lexsort(voxels[::-1])
        ranked = voxels[:, order]
        np.any(ranked[:, 1:] != ranked[:, :-1], axis=0, out=first[1:])
    ids[order] = np.cumsum(first) - 1
    return ids


def _centroids(columns: np.ndarray, size: float) -> np.ndarray:
    """The float32 centroid of each occupied voxel, in lexicographic voxel order."""
    ids = voxel_ids(columns.T, size)
    counts = np.bincount(ids)
    centroids = np.empty((counts.size, 3), dtype=np.float32)
    for axis, column in enumerate(columns):
        # bincount adds the weights in point order, as np.add.at does.
        centroids[:, axis] = np.bincount(ids, weights=column) / counts
    return centroids


def voxel_grid_filter(cloud: PointCloud, leaf_size: float) -> PointCloud:
    """Downsample by keeping one centroid per occupied voxel.

    Matches PCL's ``VoxelGrid`` behaviour: points are bucketed into cubic
    voxels of edge ``leaf_size`` and each occupied voxel contributes the
    centroid of its points.  Centroids come in lexicographic voxel order.
    """
    if leaf_size <= 0.0:
        raise ValueError("leaf_size must be positive")
    return PointCloud(_centroids(_columns(cloud.points), leaf_size),
                      cloud.frame_id, cloud.timestamp)


def crop_box_filter(cloud: PointCloud,
                    minimum: Sequence[float],
                    maximum: Sequence[float],
                    negative: bool = False) -> PointCloud:
    """Keep points inside (or outside, if ``negative``) an axis-aligned box.

    A point with a NaN coordinate is neither, so both modes drop it, as
    PCL's CropBox does.
    """
    columns = _columns(cloud.points)
    inside = _in_box(columns, minimum, maximum)
    if negative:
        inside = ~inside & ~np.isnan(columns).any(axis=0)
    return _take(cloud, inside)


def remove_ground_plane(cloud: PointCloud, ground_z: float = -1.6,
                        tolerance: float = 0.25) -> PointCloud:
    """Drop points within ``tolerance`` of the (known, flat) ground height.

    Autoware uses RANSAC or ray-based ground filters; for the synthetic flat
    scenes the ground height is known, so a height threshold reproduces the
    same effect (removing the dominant connected surface that would otherwise
    merge all clusters).
    """
    return _take(cloud, _above_ground(cloud.points[:, 2], ground_z, tolerance))


def range_filter(cloud: PointCloud, min_range: float = 0.0,
                 max_range: float = np.inf) -> PointCloud:
    """Keep points whose distance to the origin lies in ``[min_range, max_range]``."""
    return _take(cloud, _in_range(_columns(cloud.points), min_range, max_range))


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
    """Apply the Autoware-style pre-processing chain before clustering.

    The result is :func:`range_filter`, :func:`crop_box_filter`,
    :func:`remove_ground_plane` and (when ``voxel_leaf_size`` is positive)
    :func:`voxel_grid_filter` applied in turn, bit for bit, but the three
    predicates form one keep-mask over the cloud's float64 columns and the
    kept rows are taken once.  NaN rows fail every predicate, infinite rows
    fail a finite range or box, so neither reaches the voxel grid.
    """
    config = config or PreprocessConfig()
    points = cloud.points
    columns = _columns(points)
    keep = _in_range(columns, config.min_range, config.max_range)
    keep &= _in_box(columns, config.crop_min, config.crop_max)
    keep &= _above_ground(points[:, 2], config.ground_z, config.ground_tolerance)
    if not config.voxel_leaf_size > 0.0:
        return _take(cloud, keep)
    return PointCloud(_centroids(columns.compress(keep, axis=1), config.voxel_leaf_size),
                      cloud.frame_id, cloud.timestamp)
