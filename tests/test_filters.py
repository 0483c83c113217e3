"""Tests of the point cloud pre-processing filters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.pointcloud import (
    PointCloud,
    PreprocessConfig,
    crop_box_filter,
    preprocess_for_clustering,
    range_filter,
    remove_ground_plane,
    voxel_grid_filter,
    voxel_ids,
)


def _unique_voxel_ids(points, size):
    """``np.unique(axis=0)`` over the integer voxels: the oracle of ``voxel_ids``."""
    voxels = np.floor(np.asarray(points, dtype=np.float64) / size).astype(np.int64)
    _, inverse = np.unique(voxels, axis=0, return_inverse=True)
    return inverse.ravel()


class TestVoxelIds:
    def _check(self, points, size):
        ids = voxel_ids(points, size)
        assert ids.dtype == np.intp
        np.testing.assert_array_equal(ids, _unique_voxel_ids(points, size))
        return ids

    def test_lidar_frame(self, lidar_frame):
        for size in (0.3, 0.4, 2.0):
            self._check(lidar_frame.points, size)

    def test_negative_coordinates(self):
        rng = np.random.default_rng(1)
        points = rng.uniform(-3.0, 3.0, size=(500, 3))
        points[:5] = [[-0.0, 0.0, -1e-9], [0.0, -0.0, 1e-9], [-1.0, -1.0, -1.0],
                      [-1.0 + 1e-12, -2.0, 0.0], [-3.0, 3.0, -3.0]]
        ids = self._check(points, 1.0)
        assert ids[0] != ids[1]  # -1e-9 and 1e-9 lie on either side of z = 0

    def test_micrometre_voxels_over_a_100_m_cloud(self):
        rng = np.random.default_rng(2)
        points = rng.uniform(-50.0, 50.0, size=(2000, 3))
        points[1000:1010] = points[0] + rng.uniform(0.0, 1e-7, size=(10, 3))
        ids = self._check(points, 1e-6)
        assert len(np.unique(ids)) < len(points)

    def test_single_point(self):
        np.testing.assert_array_equal(self._check(np.array([[1.5, -2.5, 3.0]]), 0.5), [0])

    def test_voxel_grid_filter_matches_unique_centroids(self, lidar_frame):
        points = lidar_frame.points.astype(np.float64)
        inverse = _unique_voxel_ids(points, 0.3)
        counts = np.bincount(inverse)
        sums = np.zeros((counts.size, 3))
        np.add.at(sums, inverse, points)
        want = (sums / counts[:, None]).astype(np.float32)
        assert voxel_grid_filter(lidar_frame, 0.3).points.tobytes() == want.tobytes()


class TestVoxelGrid:
    def test_single_voxel_collapses_to_centroid(self):
        cloud = PointCloud([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2], [0.3, 0.3, 0.3]])
        out = voxel_grid_filter(cloud, leaf_size=1.0)
        assert len(out) == 1
        np.testing.assert_allclose(out[0], [0.2, 0.2, 0.2], atol=1e-6)

    def test_separate_voxels_preserved(self):
        cloud = PointCloud([[0.1, 0.1, 0.1], [5.0, 5.0, 5.0]])
        out = voxel_grid_filter(cloud, leaf_size=1.0)
        assert len(out) == 2

    def test_reduces_dense_cloud(self, lidar_frame):
        out = voxel_grid_filter(lidar_frame, leaf_size=0.5)
        assert 0 < len(out) < len(lidar_frame)

    def test_empty_cloud(self):
        assert len(voxel_grid_filter(PointCloud(), 0.5)) == 0

    def test_invalid_leaf_size_rejected(self):
        with pytest.raises(ValueError):
            voxel_grid_filter(PointCloud([[0, 0, 0]]), 0.0)

    def test_negative_coordinates_bucketed_correctly(self):
        cloud = PointCloud([[-0.1, -0.1, -0.1], [0.1, 0.1, 0.1]])
        out = voxel_grid_filter(cloud, leaf_size=1.0)
        assert len(out) == 2  # floor() separates the two sides of the origin


class TestCropBox:
    def test_keeps_inside(self):
        cloud = PointCloud([[0, 0, 0], [10, 0, 0]])
        out = crop_box_filter(cloud, [-1, -1, -1], [1, 1, 1])
        assert len(out) == 1

    def test_negative_keeps_outside(self):
        cloud = PointCloud([[0, 0, 0], [10, 0, 0]])
        out = crop_box_filter(cloud, [-1, -1, -1], [1, 1, 1], negative=True)
        assert len(out) == 1
        np.testing.assert_allclose(out[0], [10, 0, 0])

    def test_invalid_box_rejected(self):
        with pytest.raises(ValueError):
            crop_box_filter(PointCloud([[0, 0, 0]]), [1, 1, 1], [0, 0, 0])


class TestGroundRemoval:
    def test_ground_points_removed(self):
        cloud = PointCloud([[0, 0, -1.8], [0, 0, 0.0], [1, 1, -1.75]])
        out = remove_ground_plane(cloud, ground_z=-1.8, tolerance=0.2)
        assert len(out) == 1
        np.testing.assert_allclose(out[0], [0, 0, 0])

    def test_tall_objects_survive(self, lidar_frame):
        out = remove_ground_plane(lidar_frame, ground_z=-1.8, tolerance=0.3)
        assert 0 < len(out) < len(lidar_frame)
        assert out.points[:, 2].min() > -1.5


class TestRangeFilter:
    def test_range_bounds(self):
        cloud = PointCloud([[0.5, 0, 0], [5, 0, 0], [50, 0, 0]])
        out = range_filter(cloud, min_range=1.0, max_range=10.0)
        assert len(out) == 1
        np.testing.assert_allclose(out[0], [5, 0, 0])

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            range_filter(PointCloud([[0, 0, 0]]), min_range=5.0, max_range=1.0)


class TestPreprocessChain:
    def test_pipeline_reduces_points(self, lidar_frame):
        out = preprocess_for_clustering(lidar_frame)
        assert 0 < len(out) < len(lidar_frame)

    def test_pipeline_removes_ground(self, lidar_frame):
        config = PreprocessConfig()
        out = preprocess_for_clustering(lidar_frame, config)
        assert out.points[:, 2].min() > config.ground_z + config.ground_tolerance - 0.05

    def test_pipeline_respects_crop(self, lidar_frame):
        config = PreprocessConfig(crop_min=(-20, -10, -2.5), crop_max=(20, 10, 4.0))
        out = preprocess_for_clustering(lidar_frame, config)
        assert np.abs(out.points[:, 0]).max() <= 20.0 + 1e-3
        assert np.abs(out.points[:, 1]).max() <= 10.0 + 1e-3

    def test_voxel_disabled(self, lidar_frame):
        config = PreprocessConfig(voxel_leaf_size=0.0)
        out_no_voxel = preprocess_for_clustering(lidar_frame, config)
        out_voxel = preprocess_for_clustering(lidar_frame, PreprocessConfig())
        assert len(out_no_voxel) >= len(out_voxel)
