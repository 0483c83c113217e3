"""Tests of the simplified NDT registration workload."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ExecutionConfig
from repro.perception import NDTConfig, NDTMap, NDTMatcher
from repro.pointcloud import PointCloud, preprocess_for_clustering, voxel_grid_filter


@pytest.fixture(scope="module")
def structured_map_cloud():
    """A map cloud with enough structure for NDT to localise against."""
    rng = np.random.default_rng(42)
    walls = []
    # Two walls and a line of posts: surfaces with distinct gradients.
    xs = rng.uniform(-30, 30, 2500)
    walls.append(np.column_stack([xs, np.full_like(xs, 8.0) + rng.normal(0, 0.05, xs.size),
                                  rng.uniform(-1.5, 2.0, xs.size)]))
    ys = rng.uniform(-8, 8, 2000)
    walls.append(np.column_stack([np.full_like(ys, 20.0) + rng.normal(0, 0.05, ys.size), ys,
                                  rng.uniform(-1.5, 2.0, ys.size)]))
    posts_x = np.repeat(np.arange(-25, 26, 5.0), 60)
    walls.append(np.column_stack([posts_x + rng.normal(0, 0.03, posts_x.size),
                                  np.full_like(posts_x, -6.0) + rng.normal(0, 0.03, posts_x.size),
                                  rng.uniform(-1.5, 1.5, posts_x.size)]))
    return PointCloud(np.vstack(walls).astype(np.float32))


class TestNDTMap:
    def test_map_builds_voxels(self, structured_map_cloud):
        ndt_map = NDTMap(structured_map_cloud, NDTConfig(voxel_size=2.0))
        assert ndt_map.counts.size > 10
        assert ndt_map.tree.n_points == ndt_map.counts.size

    def test_voxel_gaussians_are_valid(self, structured_map_cloud):
        ndt_map = NDTMap(structured_map_cloud, NDTConfig(voxel_size=2.0))
        assert np.all(ndt_map.counts >= ndt_map.config.min_points_per_voxel)
        assert np.all(np.linalg.eigvalsh(ndt_map.covariances) > 0)
        identity = ndt_map.covariances @ ndt_map.inverse_covariances
        np.testing.assert_allclose(identity, np.broadcast_to(np.eye(3), identity.shape),
                                   atol=1e-6)

    def test_empty_map_rejected(self):
        with pytest.raises(ValueError):
            NDTMap(PointCloud())

    @pytest.mark.parametrize("voxel_size", [0.0, -2.0, np.nan])
    def test_non_positive_or_nan_voxel_size_rejected(self, voxel_size):
        cloud = PointCloud(np.random.default_rng(0).uniform(-5, 5, (500, 3))
                           .astype(np.float32))
        with pytest.raises(ValueError, match="voxel_size"):
            NDTMap(cloud, NDTConfig(voxel_size=voxel_size))

    def test_sparse_map_without_voxels_rejected(self):
        cloud = PointCloud(np.array([[0, 0, 0], [100, 100, 100]], dtype=np.float32))
        with pytest.raises(ValueError):
            NDTMap(cloud, NDTConfig(voxel_size=1.0, min_points_per_voxel=4))


class TestNDTRegistration:
    def test_recovers_small_translation(self, structured_map_cloud):
        ndt_map = NDTMap(structured_map_cloud, NDTConfig(voxel_size=2.0, max_iterations=25,
                                                         max_scan_points=300))
        matcher = NDTMatcher(ndt_map)
        true_offset = np.array([0.4, -0.3, 0.0])
        scan = structured_map_cloud.translated(-true_offset)
        result = matcher.register(scan, initial_translation=(0.0, 0.0, 0.0))
        np.testing.assert_allclose(result.translation[:2], true_offset[:2], atol=0.25)

    def test_identity_registration_stays_near_zero(self, structured_map_cloud):
        ndt_map = NDTMap(structured_map_cloud, NDTConfig(voxel_size=2.0, max_iterations=10,
                                                         max_scan_points=200))
        matcher = NDTMatcher(ndt_map)
        result = matcher.register(structured_map_cloud)
        assert np.linalg.norm(result.translation) < 0.2

    def test_search_stats_accumulate(self, structured_map_cloud):
        ndt_map = NDTMap(structured_map_cloud, NDTConfig(voxel_size=2.0, max_iterations=3,
                                                         max_scan_points=100))
        matcher = NDTMatcher(ndt_map)
        matcher.register(structured_map_cloud)
        stats = matcher.search_stats
        assert stats.queries > 0
        assert stats.points_examined > 0

    def test_bonsai_matcher_gives_same_score_trajectory(self, structured_map_cloud):
        config = NDTConfig(voxel_size=2.0, max_iterations=5, max_scan_points=150)
        ndt_map = NDTMap(structured_map_cloud, config)
        scan = structured_map_cloud.translated([-0.3, 0.2, 0.0])
        baseline = NDTMatcher(ndt_map).register(scan)
        bonsai = NDTMatcher(NDTMap(structured_map_cloud, config),
                            execution=ExecutionConfig(backend="bonsai-batched")).register(scan)
        # Radius search results are identical, so the optimisation trajectory is too.
        np.testing.assert_allclose(bonsai.translation, baseline.translation, atol=1e-9)
        assert bonsai.final_score == pytest.approx(baseline.final_score)

    def test_result_fields(self, structured_map_cloud):
        ndt_map = NDTMap(structured_map_cloud, NDTConfig(voxel_size=2.0, max_iterations=2,
                                                         max_scan_points=80))
        result = NDTMatcher(ndt_map).register(structured_map_cloud)
        assert result.iterations >= 1
        assert result.final_score > 0.0


def _pair_loop_evaluate(matcher, points, translation):
    """The per-pair NDT accumulation, the oracle of ``NDTMatcher._evaluate``."""
    score = 0.0
    gradient = np.zeros(3)
    hessian = np.zeros((3, 3))
    transformed = points + translation
    neighbors = matcher._batch_search(transformed, matcher.config.search_radius)
    for point_index, point in enumerate(transformed):
        for voxel_index in neighbors.indices_for(point_index):
            inverse = matcher.map.inverse_covariances[voxel_index]
            diff = point - matcher.map.means[voxel_index]
            exponent = -0.5 * float(diff @ inverse @ diff)
            weight = float(np.exp(max(exponent, -50.0)))
            score += weight
            grad_term = weight * (inverse @ diff)
            gradient += -grad_term
            hessian += weight * (np.outer(inverse @ diff, inverse @ diff) - inverse)
    return score, gradient, hessian


def _assert_bitwise(got, want):
    assert isinstance(got[0], float)
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    assert got[1].shape == (3,) and got[1].tobytes() == want[1].tobytes()
    assert got[2].shape == (3, 3) and got[2].tobytes() == want[2].tobytes()


#: The last one moves every scan point out of reach of every voxel.
TRANSLATIONS = [(0.0, 0.0, 0.0), (0.4, -0.3, 0.0), (-1.1, 0.7, 0.25),
                (2.0, 2.0, -0.5), (500.0, -500.0, 0.0)]


class TestEvaluateMatchesPairLoop:
    @pytest.mark.parametrize("execution", [
        ExecutionConfig(backend="baseline-batched"),
        ExecutionConfig(backend="bonsai-batched"),
        ExecutionConfig(backend="bonsai-batched", hardware=True),
    ], ids=["baseline-batched", "bonsai-batched", "recorded-bonsai-perquery"])
    def test_score_gradient_hessian_bitwise(self, structured_map_cloud, execution):
        matcher = NDTMatcher(NDTMap(structured_map_cloud, NDTConfig(voxel_size=2.0)),
                             execution=execution)
        points = structured_map_cloud.points[::37].astype(np.float64)
        for translation in TRANSLATIONS:
            translation = np.asarray(translation)
            _assert_bitwise(matcher._evaluate(points, translation),
                            _pair_loop_evaluate(matcher, points, translation))
        score, gradient, hessian = matcher._evaluate(points, translation)
        assert score == 0.0 and not gradient.any() and not hessian.any()

    def test_sums_of_negative_zero_terms_are_positive_zero(self):
        # One voxel; the scan point sits on its mean, so every gradient term
        # is -0.0 and the loop's sum, started from +0.0, is +0.0.
        rng = np.random.default_rng(3)
        cloud = PointCloud(rng.uniform(0.2, 1.8, (20, 3)).astype(np.float32))
        matcher = NDTMatcher(NDTMap(cloud, NDTConfig(voxel_size=2.0)))
        points = matcher.map.means.copy()
        want = _pair_loop_evaluate(matcher, points, np.zeros(3))
        assert np.signbit(want[1]).sum() == 0
        _assert_bitwise(matcher._evaluate(points, np.zeros(3)), want)


def _per_voxel_fit(cloud, config):
    """The per-voxel loop, the oracle of ``NDTMap``'s one-pass voxel fit.

    Returns ``(n_points, mean, covariance, inverse)`` per voxel, voxels in
    order of first appearance.
    """
    points = cloud.points.astype(np.float64)
    keys = np.floor(points / config.voxel_size).astype(np.int64)
    _, inverse = np.unique(keys, axis=0, return_inverse=True)
    buckets = {}
    for index, bucket in enumerate(inverse.ravel().tolist()):
        buckets.setdefault(bucket, []).append(index)
    fitted = []
    for indices in buckets.values():
        if len(indices) < config.min_points_per_voxel:
            continue
        subset = points[indices]
        mean = subset.mean(axis=0)
        centered = subset - mean
        covariance = centered.T @ centered / max(len(indices) - 1, 1)
        eigvals, eigvecs = np.linalg.eigh(covariance)
        floor = max(max(eigvals.max(), 1e-6) * 1e-2, config.min_component_std ** 2)
        eigvals = np.maximum(eigvals, floor)
        covariance = eigvecs @ np.diag(eigvals) @ eigvecs.T
        fitted.append((len(indices), mean, covariance, np.linalg.inv(covariance)))
    return fitted


def _assert_fit_matches_loop(cloud, config) -> NDTMap:
    ndt_map = NDTMap(cloud, config)
    want = _per_voxel_fit(cloud, config)
    assert ndt_map.counts.tolist() == [n for n, _, _, _ in want]
    for name, column in (("means", 1), ("covariances", 2), ("inverse_covariances", 3)):
        got = getattr(ndt_map, name)
        assert got.tobytes() == np.array([fit[column] for fit in want]).tobytes(), name
    return ndt_map


def _voxel_points(rng, corner, n, voxel_size=2.0, flat_axis=None):
    """``n`` points inside the voxel whose lowest corner is ``corner``."""
    points = np.asarray(corner, dtype=np.float64) + rng.uniform(0.05, 0.95, (n, 3)) * voxel_size
    if flat_axis is not None:
        points[:, flat_axis] = corner[flat_axis] + 0.5 * voxel_size
    return points


class TestVoxelFitMatchesPerVoxelLoop:
    def test_urban_frames(self, small_sequence):
        from repro.workloads.pipeline import PipelineRunnerConfig

        localization = PipelineRunnerConfig().localization_config
        for index in range(len(small_sequence)):
            cloud = voxel_grid_filter(
                preprocess_for_clustering(small_sequence.frame(index), localization.preprocess),
                localization.scan_voxel_size)
            _assert_fit_matches_loop(cloud, localization.ndt)

    def test_structured_map(self, structured_map_cloud):
        _assert_fit_matches_loop(structured_map_cloud, NDTConfig(voxel_size=2.0))

    def test_voxel_with_exactly_min_points(self):
        rng = np.random.default_rng(5)
        config = NDTConfig(voxel_size=2.0, min_points_per_voxel=4)
        cloud = PointCloud(np.vstack([
            _voxel_points(rng, (0.0, 0.0, 0.0), 3),
            _voxel_points(rng, (2.0, 0.0, 0.0), 4),
            _voxel_points(rng, (-4.0, 2.0, 0.0), 5),
        ]).astype(np.float32))
        ndt_map = _assert_fit_matches_loop(cloud, config)
        assert ndt_map.counts.tolist() == [4, 5]

    def test_planar_voxel_hits_the_eigenvalue_floor(self):
        rng = np.random.default_rng(6)
        config = NDTConfig(voxel_size=2.0)
        cloud = PointCloud(np.vstack([
            _voxel_points(rng, (0.0, 0.0, 0.0), 30, flat_axis=2),
            _voxel_points(rng, (2.0, 2.0, 0.0), 30),
        ]).astype(np.float32))
        ndt_map = _assert_fit_matches_loop(cloud, config)
        eigvals = np.linalg.eigvalsh(ndt_map.covariances[0])
        assert eigvals.min() == pytest.approx(config.min_component_std ** 2)

    def test_dense_voxel_among_sparse_ones(self):
        rng = np.random.default_rng(7)
        config = NDTConfig(voxel_size=2.0, min_points_per_voxel=4)
        sparse = [_voxel_points(rng, (2.0 * i, 2.0 * j, 0.0), int(rng.integers(3, 8)))
                  for i in range(-6, 6) for j in range(-6, 6) if (i, j) != (1, 1)]
        dense = _voxel_points(rng, (2.0, 2.0, 0.0), 5000)
        points = np.vstack(sparse[:40] + [dense] + sparse[40:])
        cloud = PointCloud(points[rng.permutation(len(points))].astype(np.float32))
        ndt_map = _assert_fit_matches_loop(cloud, config)
        assert ndt_map.counts.max() == 5000
