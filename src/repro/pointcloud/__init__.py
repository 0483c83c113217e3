"""Point cloud substrate: containers, synthetic LiDAR, scenes and filters."""

from .cloud import BoundingBox, PointCloud
from .filters import (
    PreprocessConfig,
    crop_box_filter,
    preprocess_for_clustering,
    range_filter,
    remove_ground_plane,
    voxel_grid_filter,
    voxel_ids,
)
from .io import load_npz, load_pcd, save_npz, save_pcd
from .lidar import HDL64E_RANGE_M, Lidar, LidarConfig
from .scene import Box, Obstacle, Scene, SceneConfig, make_urban_scene
from .sequence import DrivingSequence, SequenceConfig, default_sequence, systematic_subsample

__all__ = [
    "BoundingBox",
    "PointCloud",
    "PreprocessConfig",
    "crop_box_filter",
    "preprocess_for_clustering",
    "range_filter",
    "remove_ground_plane",
    "voxel_grid_filter",
    "voxel_ids",
    "load_npz",
    "load_pcd",
    "save_npz",
    "save_pcd",
    "HDL64E_RANGE_M",
    "Lidar",
    "LidarConfig",
    "Box",
    "Obstacle",
    "Scene",
    "SceneConfig",
    "make_urban_scene",
    "DrivingSequence",
    "SequenceConfig",
    "default_sequence",
    "systematic_subsample",
]
