"""The one-pass preprocessing chain against the filter-by-filter composition.

``preprocess_for_clustering`` forms one keep-mask from the range, crop-box
and ground predicates and voxelises the kept rows.  The oracle here is the
chain written filter by filter, each filter building its own cloud: the
range from ``np.linalg.norm(axis=1)``, the box from ``np.all`` over the
``(N, 3)`` compares, the ground as a float32 compare, voxel ids from
``np.unique(axis=0)`` and centroid sums from ``np.add.at``.  Every output
must equal it bit for bit, and an input the oracle rejects must be rejected.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.pointcloud import (
    DrivingSequence,
    PointCloud,
    PreprocessConfig,
    crop_box_filter,
    preprocess_for_clustering,
    range_filter,
    remove_ground_plane,
    voxel_grid_filter,
)
from repro.scenarios import get_scenario
from repro.workloads.localization import LocalizationConfig


def _oracle_range(cloud, min_range, max_range):
    if min_range > max_range:
        raise ValueError("min_range exceeds max_range")
    distances = np.linalg.norm(cloud.points.astype(np.float64), axis=1)
    keep = (distances >= min_range) & (distances <= max_range)
    return PointCloud(cloud.points[keep], cloud.frame_id, cloud.timestamp)


def _oracle_crop(cloud, minimum, maximum):
    minimum = np.asarray(minimum, dtype=np.float64)
    maximum = np.asarray(maximum, dtype=np.float64)
    if np.any(minimum > maximum):
        raise ValueError("crop box minimum exceeds maximum")
    points = cloud.points.astype(np.float64)
    inside = np.all((points >= minimum) & (points <= maximum), axis=1)
    return PointCloud(cloud.points[inside], cloud.frame_id, cloud.timestamp)


def _oracle_ground(cloud, ground_z, tolerance):
    keep = cloud.points[:, 2] > (ground_z + tolerance)
    return PointCloud(cloud.points[keep], cloud.frame_id, cloud.timestamp)


def _oracle_voxel_grid(cloud, leaf_size):
    if cloud.is_empty:
        return PointCloud(frame_id=cloud.frame_id, timestamp=cloud.timestamp)
    points = cloud.points.astype(np.float64)
    voxels = np.floor(points / leaf_size).astype(np.int64)
    _, ids = np.unique(voxels, axis=0, return_inverse=True)
    ids = ids.ravel()
    counts = np.bincount(ids)
    sums = np.zeros((counts.size, 3))
    np.add.at(sums, ids, points)
    return PointCloud((sums / counts[:, None]).astype(np.float32),
                      cloud.frame_id, cloud.timestamp)


def _oracle_chain(cloud, config):
    out = _oracle_range(cloud, config.min_range, config.max_range)
    out = _oracle_crop(out, config.crop_min, config.crop_max)
    out = _oracle_ground(out, config.ground_z, config.ground_tolerance)
    if config.voxel_leaf_size > 0.0:
        out = _oracle_voxel_grid(out, config.voxel_leaf_size)
    return out


def _public_chain(cloud, config):
    """The same composition through the public filters."""
    out = range_filter(cloud, config.min_range, config.max_range)
    out = crop_box_filter(out, config.crop_min, config.crop_max)
    out = remove_ground_plane(out, config.ground_z, config.ground_tolerance)
    if config.voxel_leaf_size > 0.0:
        out = voxel_grid_filter(out, config.voxel_leaf_size)
    return out


def _assert_same(got, want):
    assert got.points.dtype == want.points.dtype == np.float32
    assert got.points.shape == want.points.shape
    assert got.points.tobytes() == want.points.tobytes()
    assert (got.frame_id, got.timestamp) == (want.frame_id, want.timestamp)


def _check(cloud, config):
    """The fused chain and the public composition both equal the oracle."""
    want = _oracle_chain(cloud, config)
    _assert_same(preprocess_for_clustering(cloud, config), want)
    _assert_same(_public_chain(cloud, config), want)
    return want


VOXEL_OFF = PreprocessConfig(voxel_leaf_size=0.0)
#: Wide enough that only the predicate under test removes points.
OPEN = PreprocessConfig(crop_min=(-200.0, -200.0, -200.0), crop_max=(200.0, 200.0, 200.0),
                        ground_z=-300.0, ground_tolerance=0.0, min_range=0.0, max_range=300.0)


def _urban_frames(seed, n_frames=3):
    default = get_scenario("urban").sequence(n_frames=n_frames)
    config = replace(default.config, lidar=replace(default.config.lidar, seed=seed))
    sequence = DrivingSequence(config, scene=default.scene)
    return [sequence.frame(i) for i in range(n_frames)]


@pytest.mark.parametrize("seed", [1, 4, 9])
def test_urban_frames(seed):
    localization = LocalizationConfig()
    for cloud in _urban_frames(seed):
        _check(cloud, PreprocessConfig())
        _check(cloud, VOXEL_OFF)
        # The NDT map and scan: the chain, then the scan voxel grid.
        want = _check(cloud, localization.preprocess)
        _assert_same(voxel_grid_filter(preprocess_for_clustering(cloud, localization.preprocess),
                                       localization.scan_voxel_size),
                     _oracle_voxel_grid(want, localization.scan_voxel_size))


def _below(value):
    return np.nextafter(np.float32(value), np.float32(-np.inf))


def _above(value):
    return np.nextafter(np.float32(value), np.float32(np.inf))


@pytest.mark.parametrize("voxel_leaf_size", [0.0, 0.3])
def test_points_exactly_at_the_range_limits(voxel_leaf_size):
    config = replace(OPEN, min_range=1.0, max_range=50.0, voxel_leaf_size=voxel_leaf_size)
    cloud = PointCloud([[1, 0, 0], [0, -1, 0], [0, 0, 1], [0.6, 0.8, 0], [_below(1), 0, 0],
                        [30, 40, 0], [0, -30, 40], [-50, 0, 0], [_above(50), 0, 0],
                        [0, 0, _below(-50)], [10, 10, 10]])
    want = _check(cloud, config)
    if voxel_leaf_size == 0.0:
        assert len(want) == 8  # the limits are inclusive; (0.6, 0.8) in float32 is past 1


@pytest.mark.parametrize("voxel_leaf_size", [0.0, 0.3])
def test_points_on_each_crop_face(voxel_leaf_size):
    config = replace(PreprocessConfig(), ground_z=-10.0, voxel_leaf_size=voxel_leaf_size)
    faces = [[60, 5, 0], [-60, 5, 0], [5, 30, 0], [5, -30, 0], [5, 5, -2.5], [5, 5, 4],
             [60, 30, 4], [-60, -30, -2.5]]
    outside = [[_above(60), 5, 0], [_below(-60), 5, 0], [5, _above(30), 0],
               [5, _below(-30), 0], [5, 5, _below(-2.5)], [5, 5, _above(4)]]
    want = _check(PointCloud(faces + outside), config)
    if voxel_leaf_size == 0.0:
        assert len(want) == len(faces)


def test_ground_threshold_float32_cannot_represent():
    # 0.1 rounds up to float32 0.100000001..., which the float32 compare
    # finds equal to the threshold (dropped) and a float64 compare above it.
    config = replace(OPEN, ground_z=0.1, voxel_leaf_size=0.0)
    at = np.float32(0.1)
    cloud = PointCloud([[5, 0, at], [5, 1, _above(at)], [5, 2, _below(at)], [5, 3, 1.0]])
    want = _check(cloud, config)
    np.testing.assert_array_equal(want.points[:, 1], [1, 3])
    _check(cloud, replace(config, voxel_leaf_size=0.3))
    # The same threshold split between ground_z and tolerance.
    _check(cloud, replace(config, ground_z=0.05, ground_tolerance=0.05))


@pytest.mark.parametrize("voxel_leaf_size", [0.0, 0.3])
def test_signed_zeros(voxel_leaf_size):
    config = replace(OPEN, min_range=1.0, voxel_leaf_size=voxel_leaf_size)
    cloud = PointCloud([[-0.0, 5, -0.0], [0.0, 5, 0.0], [5, -0.0, 1], [-0.0, -0.0, -3],
                        [0.0, 0.0, 0.0], [-0.0, -0.0, -0.0]])
    want = _check(cloud, config)
    if voxel_leaf_size == 0.0:
        assert np.signbit(want.points[0]).tolist() == [True, False, True]


@pytest.mark.parametrize("config", [PreprocessConfig(), VOXEL_OFF], ids=["voxel", "no-voxel"])
def test_non_finite_rows_are_dropped(config):
    cloud = _urban_frames(2, n_frames=1)[0]
    points = cloud.points.copy()
    rows = np.arange(0, len(points), 97)
    for i, row in enumerate(rows):  # every column takes every value in turn
        points[row, i % 3] = (np.nan, np.inf, -np.inf)[i // 3 % 3]
    dirty = PointCloud(points, cloud.frame_id, cloud.timestamp)
    want = _check(dirty, config)
    assert np.isfinite(want.points).all()


def test_infinite_rows_inside_an_infinite_range_and_box():
    config = PreprocessConfig(crop_min=(-np.inf,) * 3, crop_max=(np.inf,) * 3,
                              ground_z=-np.inf, min_range=0.0, max_range=np.inf,
                              voxel_leaf_size=0.0)
    cloud = PointCloud([[np.inf, 0, 0], [1, 2, 3], [0, -np.inf, 5], [np.nan, 0, 0]])
    assert len(_check(cloud, config)) == 3
    # The voxel grid rejects them instead of wrapping them to INT64_MIN.
    with pytest.raises(ValueError, match="finite"):
        preprocess_for_clustering(cloud, replace(config, voxel_leaf_size=0.3))


def test_empty_cloud():
    for config in (PreprocessConfig(), VOXEL_OFF):
        _check(PointCloud(frame_id="empty", timestamp=2.5), config)


@pytest.mark.parametrize("empties", ["range", "box", "ground"])
@pytest.mark.parametrize("voxel_leaf_size", [0.0, 0.3])
def test_each_mask_alone_empties_the_cloud(empties, voxel_leaf_size):
    cloud = PointCloud([[5, 5, 0.5], [-8, 3, 1.5], [20, -4, 3.0]], "lidar", 7.0)
    config = replace(OPEN, voxel_leaf_size=voxel_leaf_size)
    config = replace(config, **{
        "range": {"min_range": 100.0},
        "box": {"crop_min": (-1.0, -1.0, -1.0), "crop_max": (1.0, 1.0, 1.0)},
        "ground": {"ground_z": 3.0},
    }[empties])
    assert len(_check(cloud, config)) == 0


@pytest.mark.parametrize("voxel_leaf_size", [0.0, 0.3, -1.0])
def test_box_at_negative_coordinates(voxel_leaf_size):
    cloud = _urban_frames(3, n_frames=1)[0]
    config = PreprocessConfig(crop_min=(-40.0, -25.0, -2.0), crop_max=(-2.0, -1.5, 3.0),
                              voxel_leaf_size=voxel_leaf_size)
    assert len(_check(cloud, config)) > 0


@pytest.mark.parametrize("config", [
    PreprocessConfig(min_range=10.0, max_range=5.0),
    PreprocessConfig(crop_min=(0.0, 0.0, 0.0), crop_max=(1.0, -1.0, 1.0)),
], ids=["range", "box"])
def test_inverted_limits_are_rejected_on_both_paths(config):
    cloud = PointCloud([[1, 2, 3]])
    with pytest.raises(ValueError):
        _oracle_chain(cloud, config)
    with pytest.raises(ValueError):
        preprocess_for_clustering(cloud, config)
    with pytest.raises(ValueError):
        _public_chain(cloud, config)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 50.0, 1e4])
def test_column_range_is_the_norm_bit_for_bit(scale):
    """range_filter's distance is np.linalg.norm(axis=1) to the last bit: a
    limit placed exactly at a point's norm keeps exactly the points at it."""
    rng = np.random.default_rng(int(scale * 1000))
    points = (rng.standard_normal((2000, 3)) * scale).astype(np.float32)
    points[:4] = [[0, 0, 0], [-0.0, 0, 1e-40], [3, 4, 12], [-scale, scale, -scale]]
    distances = np.linalg.norm(points.astype(np.float64), axis=1)
    x, y, z = points.astype(np.float64).T
    assert np.sqrt(x * x + y * y + z * z).tobytes() == distances.tobytes()
    cloud = PointCloud(points)
    for limit in np.concatenate([distances[:4], rng.choice(distances, 200)]):
        assert range_filter(cloud, limit, limit).points.tobytes() == \
            points[distances == limit].tobytes()
        assert range_filter(cloud, 0.0, limit).points.tobytes() == \
            points[distances <= limit].tobytes()
