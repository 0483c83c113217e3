"""Simplified NDT (Normal Distributions Transform) scan registration.

Autoware's localization node (``ndt_matching``) registers each LiDAR scan
against a point cloud map.  Its inner loop radius-searches a k-d tree built
over the map's voxel distributions to find the Gaussians influencing each scan
point — which is why Figure 2 of the paper attributes ~51% of NDT matching to
radius search.

This implementation keeps the structure that matters for the reproduction:

* the map is voxelised and each voxel stores a Gaussian (mean, covariance),
  as in ``pcl::VoxelGridCovariance``;
* a k-d tree is built over the voxel means;
* every optimisation iteration radius-searches that tree once per scan point
  (all scan points of an iteration are issued as one batched query through
  :mod:`repro.runtime`) and scores every (scan point, voxel) pair in one
  array pass;
* a 3-DoF (translation) Newton optimisation maximises the NDT score.

The restriction to translation keeps the optimiser small while leaving the
radius-search workload (the part the paper accelerates) untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.bonsai_search import BonsaiStats
from ..core.compressed_leaf import compress_tree
from ..engine.execution import ExecutionConfig
from ..kdtree.build import KDTree, build_kdtree
from ..kdtree.radius_search import MemoryRecorder, SearchStats
from ..pointcloud.cloud import PointCloud
from ..pointcloud.filters import voxel_ids

__all__ = ["VoxelGaussian", "NDTConfig", "NDTResult", "NDTMap", "NDTMatcher"]


@dataclass(frozen=True)
class VoxelGaussian:
    """Gaussian fitted to the map points falling in one voxel."""

    mean: np.ndarray
    covariance: np.ndarray
    inverse_covariance: np.ndarray
    n_points: int


@dataclass
class NDTConfig:
    """Parameters of the simplified NDT matcher."""

    voxel_size: float = 2.0
    search_radius: float = 2.5
    max_iterations: int = 10
    convergence_translation: float = 1e-3
    min_points_per_voxel: int = 4
    step_damping: float = 0.7
    max_scan_points: int = 400
    outlier_ratio: float = 0.55
    #: Lower bound on the per-axis standard deviation of a voxel Gaussian.
    #: Thin surfaces (walls) otherwise produce nearly singular covariances
    #: whose basin of attraction is narrower than typical odometry error.
    min_component_std: float = 0.2
    #: Maximum translation update per iteration (fraction of the voxel size).
    max_step_fraction: float = 0.25


@dataclass
class NDTResult:
    """Outcome of one registration."""

    translation: np.ndarray
    iterations: int
    converged: bool
    final_score: float
    search_stats: SearchStats


class NDTMap:
    """Voxelised Gaussian map plus a k-d tree over the voxel means."""

    def __init__(self, map_cloud: PointCloud, config: Optional[NDTConfig] = None):
        self.config = config or NDTConfig()
        if map_cloud.is_empty:
            raise ValueError("cannot build an NDT map from an empty cloud")
        #: Per voxel, in order of first appearance in the map cloud: point
        #: counts ``(V,)``, means ``(V, 3)``, covariances and inverse
        #: covariances ``(V, 3, 3)``.  An iteration gathers every pair's
        #: Gaussian from these at once.
        self.counts, self.means, self.covariances = self._fit_voxels(map_cloud)
        if not self.counts.size:
            raise ValueError(
                "no voxel accumulated enough points; decrease min_points_per_voxel "
                "or increase voxel_size"
            )
        self.inverse_covariances = np.linalg.inv(self.covariances)
        self._voxels: Optional[List[VoxelGaussian]] = None
        self.tree: KDTree = build_kdtree(self.means.astype(np.float32))

    @property
    def voxels(self) -> List[VoxelGaussian]:
        """The voxel Gaussians as objects (created on first access)."""
        if self._voxels is None:
            self._voxels = [
                VoxelGaussian(mean=mean, covariance=covariance,
                              inverse_covariance=inverse, n_points=int(count))
                for mean, covariance, inverse, count in zip(
                    self.means, self.covariances, self.inverse_covariances, self.counts)
            ]
        return self._voxels

    def _fit_voxels(self, cloud: PointCloud) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Counts, means and regularised covariances of the occupied voxels.

        Voxels with the same point count are fitted as one ``(G, k, 3)``
        stack with the per-voxel arithmetic: sequential sums
        (``np.add.reduce`` along the points, as ``mean`` does) and one
        matrix product per voxel; the eigen-decomposition, the eigenvalue
        floor and the reconstruction then run once over all voxels.
        """
        config = self.config
        points = cloud.points.astype(np.float64)
        ids = voxel_ids(points, config.voxel_size)
        by_voxel = np.argsort(ids, kind="stable")
        counts = np.bincount(ids)
        starts = np.cumsum(counts) - counts
        # First-appearance order: by each voxel's lowest point index.
        voxels = np.argsort(by_voxel[starts])
        voxels = voxels[counts[voxels] >= config.min_points_per_voxel]
        counts, starts = counts[voxels], starts[voxels]
        means = np.empty((voxels.size, 3))
        covariances = np.empty((voxels.size, 3, 3))
        for size in np.unique(counts).tolist():
            group = np.flatnonzero(counts == size)
            stack = points[by_voxel[starts[group, None] + np.arange(size)]]
            mean = np.add.reduce(stack, axis=1) / size
            centered = stack - mean[:, None, :]
            covariances[group] = centered.transpose(0, 2, 1) @ centered / max(size - 1, 1)
            means[group] = mean
        # Regularise small eigenvalues (as PCL's VoxelGridCovariance does)
        # so the inverse exists and thin surfaces keep a usable basin.
        eigvals, eigvecs = np.linalg.eigh(covariances)
        floor = np.maximum(np.maximum(eigvals.max(axis=1), 1e-6) * 1e-2,
                           config.min_component_std ** 2)
        eigvals = np.maximum(eigvals, floor[:, None])
        covariances = eigvecs @ (eigvals[:, :, None] * np.eye(3)) @ eigvecs.transpose(0, 2, 1)
        return counts, means, covariances


class NDTMatcher:
    """Registers a scan against an :class:`NDTMap` by translation-only NDT.

    The per-iteration neighbour lookup — one radius search per transformed
    scan point — goes through the execution backend selected by
    :class:`~repro.engine.execution.ExecutionConfig` (batched by default).
    All backends return identical results and accumulate identical
    :class:`SearchStats`.

    With a memory ``recorder`` attached (a hardware ``execution`` without
    one records on the Table IV machine, or on its ``cache_config``) the
    recorded per-query backend of the configured flavour is used instead,
    so every map-tree load streams through the trace-driven cache
    simulation (:mod:`repro.hwmodel.cache`); results stay identical — the
    per-query hits are re-sorted by point index, matching the batched
    engine's order, so even the floating-point summation order of the NDT
    score is preserved.
    """

    def __init__(self, ndt_map: NDTMap, *,
                 recorder: Optional[MemoryRecorder] = None,
                 execution: Optional[ExecutionConfig] = None):
        self.map = ndt_map
        self.config = ndt_map.config
        self.execution = execution = execution or ExecutionConfig()
        if recorder is None and execution.hardware:
            recorder = execution.make_recorder()
        self.recorder = recorder
        if recorder is not None:
            if execution.use_bonsai:
                # Compress the map tree *before* attaching the recorder: map
                # preparation is offline (unlike the per-frame clustering
                # trees), so its compression traffic must neither enter the
                # localization trace nor pre-warm the simulated caches.
                if ndt_map.tree.compressed_array is None:
                    compress_tree(ndt_map.tree)
            self._backend = execution.make_backend(ndt_map.tree, recorder=recorder)
        else:
            self._backend = execution.make_backend(ndt_map.tree)
        self._batch_search = self._backend.radius_search
        self._stats = self._backend.stats

    @property
    def search_stats(self) -> SearchStats:
        """Radius-search counters accumulated across registrations."""
        return self._stats

    @property
    def bonsai_stats(self) -> Optional[BonsaiStats]:
        """Compressed-search counters (``None`` in the baseline configuration)."""
        return self._backend.bonsai_stats

    def register(self, scan: PointCloud,
                 initial_translation: Sequence[float] = (0.0, 0.0, 0.0)) -> NDTResult:
        """Estimate the translation aligning ``scan`` onto the map."""
        config = self.config
        translation = np.asarray(initial_translation, dtype=np.float64).copy()
        points = scan.points.astype(np.float64)
        if points.shape[0] > config.max_scan_points:
            step = points.shape[0] // config.max_scan_points
            points = points[::step][: config.max_scan_points]

        score = 0.0
        converged = False
        iterations = 0
        max_step = config.max_step_fraction * config.voxel_size
        for iterations in range(1, config.max_iterations + 1):
            score, gradient, hessian = self._evaluate(points, translation)
            delta = self._ascent_step(gradient, hessian, max_step)
            delta *= config.step_damping
            translation += delta
            if float(np.linalg.norm(delta)) < config.convergence_translation:
                converged = True
                break
        return NDTResult(
            translation=translation,
            iterations=iterations,
            converged=converged,
            final_score=score,
            search_stats=self._stats,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _ascent_step(gradient: np.ndarray, hessian: np.ndarray, max_step: float) -> np.ndarray:
        """Safeguarded Newton step for maximising the NDT score.

        Away from the optimum the Hessian is often indefinite; in that case
        (or when the Newton direction is not an ascent direction) fall back to
        a gradient-ascent step.  Steps are clamped to ``max_step``.
        """
        grad_norm = float(np.linalg.norm(gradient))
        if grad_norm == 0.0:
            return np.zeros(3)
        try:
            delta = np.linalg.solve(hessian - 1e-6 * np.eye(3), -gradient)
        except np.linalg.LinAlgError:
            delta = gradient / grad_norm * max_step
        # The score is maximised: a valid step must have positive projection
        # on the gradient.
        if float(delta @ gradient) <= 0.0 or not np.all(np.isfinite(delta)):
            delta = gradient / grad_norm * max_step
        norm = float(np.linalg.norm(delta))
        if norm > max_step:
            delta = delta / norm * max_step
        return delta

    def _evaluate(self, points: np.ndarray,
                  translation: np.ndarray) -> Tuple[float, np.ndarray, np.ndarray]:
        """NDT score, gradient and Hessian w.r.t. the translation.

        Every (scan point, voxel) pair of the radius result is scored at
        once, and the three sums accumulate in pair order (sequential
        ``np.cumsum``), so they are bitwise what adding the pairs one by one
        gives; ``np.matmul`` keeps the arithmetic of the per-pair products.
        """
        transformed = points + translation
        neighbors = self._batch_search(transformed, self.config.search_radius)
        voxels = neighbors.point_indices
        if voxels.size == 0:
            return 0.0, np.zeros(3), np.zeros((3, 3))
        diff = np.repeat(transformed, neighbors.counts, axis=0)
        diff -= self.map.means[voxels]
        inverse = self.map.inverse_covariances[voxels]
        weight = (diff[:, None, :] @ inverse @ diff[:, :, None])[:, 0, 0]
        weight *= -0.5
        # Clamp to avoid overflow for far-away voxels.
        np.exp(np.maximum(weight, -50.0, out=weight), out=weight)
        pulled = (inverse @ diff[:, :, None])[:, :, 0]
        # weight * (outer(pulled, pulled) - inverse), in the inverses' buffer:
        # -b + a rounds exactly as a - b.
        hessian = np.negative(inverse, out=inverse)
        hessian += pulled[:, :, None] * pulled[:, None, :]
        hessian *= weight[:, None, None]
        pulled *= weight[:, None]
        gradient = np.negative(pulled, out=pulled)
        # Pair by pair, each sum would start from +0.0: adding 0.0 to the last
        # partial sum turns a sum of -0.0 terms only into +0.0 likewise.
        return (float(np.cumsum(weight, out=weight)[-1]),
                np.cumsum(gradient, axis=0, out=gradient)[-1] + 0.0,
                np.cumsum(hessian, axis=0, out=hessian)[-1] + 0.0)
