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

    def test_empty(self):
        ids = voxel_ids(np.empty((0, 3)), 0.5)
        assert ids.dtype == np.intp and ids.shape == (0,)

    # Spans (voxel counts per axis) whose product sits at either side of
    # 2**63: below it the ids come from one packed int64 key, at and above
    # it from the three-key lexsort.
    @pytest.mark.parametrize("lowest, spans", [
        ((0, 0, 0), (2**21 - 1, 2**21, 2**21)),        # 2**63 - 2**42
        ((5, -7, 0), (454279, 31252369, 649657)),      # 2**63 - 1
        ((0, -2**63, 0), (1, 2**63 - 1, 1)),           # 2**63 - 1, from int64's minimum
        ((0, 0, 0), (2**21, 2**21, 2**21)),            # 2**63
        ((0, -2**63, 0), (1, 2**63, 1)),               # 2**63 on one axis
        ((-3, 0, 0), (2**21 + 1, 2**21, 2**21)),       # 2**63 + 2**42
    ])
    def test_span_products_either_side_of_2_63(self, lowest, spans):
        rng = np.random.default_rng(7)
        highest = np.array([low + span - 1 for low, span in zip(lowest, spans)], dtype=np.float64)
        lowest = np.array(lowest, dtype=np.float64)
        assert [int(h) - int(low) + 1 for h, low in zip(highest, lowest)] == list(spans)
        inner = np.floor(rng.uniform(lowest, highest, size=(300, 3)))
        inner[100:150] = inner[:50]                        # shared voxels
        inner[150:200, :2] = inner[:50, :2]                # x and y shared, z differs
        points = np.vstack([lowest, highest, inner, [lowest[0], highest[1], lowest[2]]])
        ids = self._check(points, 1.0)
        assert ids[0] == 0 and ids[1] == ids.max()

    def test_voxel_grid_filter_matches_unique_centroids(self, lidar_frame):
        points = lidar_frame.points.astype(np.float64)
        inverse = _unique_voxel_ids(points, 0.3)
        counts = np.bincount(inverse)
        sums = np.zeros((counts.size, 3))
        np.add.at(sums, inverse, points)
        want = (sums / counts[:, None]).astype(np.float32)
        assert voxel_grid_filter(lidar_frame, 0.3).points.tobytes() == want.tobytes()


class TestVoxelIdsRejects:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points(self, bad):
        points = np.zeros((4, 3))
        points[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            voxel_ids(points, 0.5)

    @pytest.mark.parametrize("coordinate", [2.0**63, -2.0**63 - 2048.0, 1e300])
    def test_voxel_coordinates_outside_int64(self, coordinate):
        points = np.array([[0.0, 0.0, 0.0], [0.0, coordinate, 0.0]])
        with pytest.raises(ValueError, match="int64"):
            voxel_ids(points, 1.0)

    def test_far_apart_points_do_not_merge_at_the_origin(self):
        # Their voxels (about 3e30) lie outside int64: cast, both would wrap
        # to INT64_MIN and share one centroid at the origin.
        cloud = PointCloud([[1e30, 0, 0], [-1e30, 0, 0], [1, 1, 1]])
        with pytest.raises(ValueError, match="int64"):
            voxel_grid_filter(cloud, 0.3)


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

    def test_centroid_sums_run_in_point_order(self):
        # In point order the two tiny x values vanish in 0.5 and the sum is
        # 0.5 + 2**-25, whose quarter is a float32 tie (rounded to 0.125);
        # in reverse order they survive and the centroid rounds up.
        tiny = 3 * 2.0**-56
        points = np.array([[0.5, 0.5, 0.5], [tiny, 0.5, 0.5], [tiny, 0.5, 0.5],
                           [2.0**-25, 0.5, 0.5]], dtype=np.float32)
        x = points[:, 0].astype(np.float64)
        assert np.float32((((x[3] + x[2]) + x[1]) + x[0]) / 4) != np.float32(0.125)
        out = voxel_grid_filter(PointCloud(points), 1.0)
        assert out.points.tolist() == [[0.125, 0.5, 0.5]]


class TestCropBox:
    def test_keeps_inside(self):
        cloud = PointCloud([[0, 0, 0], [10, 0, 0]])
        out = crop_box_filter(cloud, [-1, -1, -1], [1, 1, 1])
        assert len(out) == 1

    def test_negative_keeps_outside(self):
        # A NaN point is neither inside nor outside: dropped, as by PCL's CropBox.
        cloud = PointCloud([[0, 0, 0], [10, 0, 0], [np.nan, 0, 0], [0, np.nan, 9]])
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
