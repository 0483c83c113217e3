"""The ``frames-bonsai`` workload: one urban LiDAR frame per op, closed loop.

Op ``j`` (``j = k mod N``) runs frame ``j + 1`` through
``EuclideanClusterPipeline.run_frame`` on ``bonsai-batched``, filters the
detections by extent, updates the tracker
(a fresh tracker at every cycle start) and registers the frame against
frame ``j`` with scan-to-scan NDT, using ``PipelineRunner``'s localization
config, the ``ego_position`` ground truth and its initial-guess
perturbation.

The hardware pass (:meth:`FramesWorkload.hardware_op`, traced runs only)
runs frame ``j + 1`` through ``run_frame`` twice in hardware-in-the-loop
mode, once per flavour, and keeps the modelled latency and energy of both.

Every cycle repeats the same ops on the same frames, so the exact counts of
any two cycles must be identical.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from . import inputs, oracle
from .tracing import Patches

BACKEND = "bonsai-batched"
#: The flavours the hardware pass compares, baseline first.
HARDWARE_BACKENDS = ("baseline-batched", "bonsai-batched")


@dataclass
class OpOutcome:
    """Wall time, correctness verdict and exact counts of one op."""

    seconds: float
    error: Optional[str]
    #: Raw LiDAR points consumed (once per flavour) and search queries answered.
    points: int = 0
    queries: int = 0
    counts: Dict[str, float] = field(default_factory=dict)
    #: Cluster extractions the op ran (one per flavour).
    extractions: int = 1


class FramesWorkload:
    """Set-up, references, the op and the hardware pass of ``frames-bonsai``."""

    def __init__(self, seed: int):
        from repro.engine import ExecutionConfig
        from repro.workloads.autoware import EuclideanClusterPipeline, PipelineConfig
        from repro.workloads.pipeline import PipelineRunnerConfig

        self.seed = seed
        self.execution = ExecutionConfig(backend=BACKEND)
        self.hardware_executions = [ExecutionConfig(backend=b, hardware=True)
                                    for b in HARDWARE_BACKENDS]
        self.runner = PipelineRunnerConfig()
        self.pipeline_config = PipelineConfig(simulate_caches=False)
        self.pipeline = EuclideanClusterPipeline(self.pipeline_config)
        self.cycle = inputs.FRAMES_PER_CYCLE
        self.drive: Optional[inputs.Drive] = None
        self.references: List[oracle.Partition] = []
        self.filtered_sizes: List[int] = []
        self.tracker = None
        self._captured: List[object] = []
        self._capture = Patches()

    # ------------------------------------------------------------------
    def setup(self) -> float:
        """Generate the drive's frames; returns the seconds it took."""
        start = time.perf_counter()
        self.drive = inputs.urban_drive(self.seed, self.cycle + 1)
        return time.perf_counter() - start

    def build_references(self) -> None:
        """scipy cluster partitions of every clustered frame (untimed)."""
        from repro.pointcloud.filters import preprocess_for_clustering

        cluster = self.pipeline_config.cluster
        for cloud in self.drive.frames[1:]:
            filtered = preprocess_for_clustering(cloud, self.pipeline_config.preprocess)
            self.filtered_sizes.append(len(filtered))
            self.references.append(oracle.cluster_partition(
                filtered.points, cluster.tolerance,
                cluster.min_cluster_size, cluster.max_cluster_size))

    def __enter__(self) -> "FramesWorkload":
        from repro.perception.euclidean_cluster import EuclideanClusterExtractor

        def capture(extract):
            def capturing(extractor, cloud):
                result = extract(extractor, cloud)
                self._captured.append(result)
                return result
            return capturing

        self._capture.wrap(EuclideanClusterExtractor, "extract", capture)
        return self

    def __exit__(self, *exc) -> None:
        self._capture.undo()

    # ------------------------------------------------------------------
    def op(self, k: int) -> OpOutcome:
        """Run and time op ``k`` (see :meth:`check` for its verdict)."""
        return self._timed(self._perception_op, k % self.cycle)

    def hardware_op(self, j: int) -> OpOutcome:
        """Run and time frame ``j + 1`` through the hardware pass."""
        return self._timed(self._hardware_op, j)

    def check(self, k: int, outcome: OpOutcome) -> None:
        """Set ``outcome.error`` if op ``k``'s clusters miss the reference."""
        if outcome.error is None:
            outcome.error = self._check_clusters(k % self.cycle, outcome.extractions)

    def _timed(self, body, j: int) -> OpOutcome:
        from repro.core.compressed_leaf import compression_pass_count

        self._captured.clear()
        passes = compression_pass_count()
        start = time.perf_counter()
        try:
            measured = body(j)
        except Exception:  # an op that raises is a failed op; the loop goes on
            traceback.print_exc()
            return OpOutcome(time.perf_counter() - start, "exception")
        measured.seconds = time.perf_counter() - start
        measured.points = len(self.drive.frames[j + 1]) * measured.extractions
        measured.counts["core.compress_passes"] = compression_pass_count() - passes
        return measured

    def _perception_op(self, j: int) -> OpOutcome:
        from repro.perception import cluster_filter
        from repro.perception.tracking import ClusterTracker
        from repro.workloads.localization import NDTLocalizationPipeline

        execution = self.execution
        runner = self.runner
        sequence, frames = self.drive.sequence, self.drive.frames
        if j == 0:
            self.tracker = ClusterTracker(runner.tracker)
        cloud = frames[j + 1]
        measurement = self.pipeline.run_frame(cloud, frame_index=j + 1, execution=execution)
        kept = cluster_filter.filter_by_extent(
            measurement.detections, min_extent=runner.min_detection_extent,
            max_extent=runner.max_detection_extent)
        self.tracker.update(kept, timestamp=cloud.timestamp)
        truth = sequence.ego_position(j + 1) - sequence.ego_position(j)
        localization = NDTLocalizationPipeline(
            frames[j], config=runner.localization_config, execution=execution)
        registration = localization.register_scan(
            cloud, scan_index=j,
            initial_translation=truth + np.asarray(runner.initial_translation_error))

        error = None
        if not np.all(np.isfinite(registration.translation)):
            error = "NDT translation is not finite"
        matcher = localization.matcher
        counts = _search_counts([measurement.search_stats, matcher.search_stats],
                                [measurement.bonsai_stats, matcher.bonsai_stats])
        counts.update({
            "perception.clusters": measurement.n_clusters,
            "perception.detections_kept": len(kept),
            "perception.ndt_iterations": registration.iterations,
            "perception.ndt_error_m": float(np.linalg.norm(registration.translation - truth)),
            "core.compressed_bytes": measurement.compressed_total_bytes or 0,
            "core.baseline_bytes": measurement.baseline_point_bytes or 0,
        })
        return OpOutcome(0.0, error, queries=counts["runtime.queries"], counts=counts)

    def _hardware_op(self, j: int) -> OpOutcome:
        cloud = self.drive.frames[j + 1]
        line = self.pipeline_config.cpu.l2.line_size
        measurements = [self.pipeline.run_frame(cloud, frame_index=j + 1, execution=ex)
                        for ex in self.hardware_executions]
        counts = _search_counts([m.search_stats for m in measurements],
                                [m.bonsai_stats for m in measurements])
        counts["perception.clusters"] = sum(m.n_clusters for m in measurements)
        for m in measurements:
            flavour = "bonsai" if m.use_bonsai else "baseline"
            counts.update({
                f"hwmodel.{flavour}_l1_misses": m.hierarchy.l1_misses,
                f"hwmodel.{flavour}_l2_misses": m.hierarchy.l2_misses,
                f"hwmodel.{flavour}_dram_bytes": m.hierarchy.memory_accesses * line,
                f"model.{flavour}_latency_s": m.end_to_end_seconds,
                f"model.{flavour}_energy_j": m.extract.energy_j,
            })
            if m.use_bonsai:
                counts["core.compressed_bytes"] = m.compressed_total_bytes or 0
                counts["core.baseline_bytes"] = m.baseline_point_bytes or 0
        return OpOutcome(0.0, None, queries=counts["runtime.queries"], counts=counts,
                         extractions=len(measurements))

    def _check_clusters(self, j: int, extractions: int) -> Optional[str]:
        if len(self._captured) != extractions:
            return f"expected {extractions} cluster extractions, saw {len(self._captured)}"
        for result in self._captured:
            if result.n_points != self.filtered_sizes[j]:
                return "clustered cloud differs from the reference input"
            problem = oracle.check_partition(
                self.references[j], [c.indices for c in result.clusters])
            if problem:
                return problem
        return None


def _search_counts(search_stats, bonsai_stats) -> Dict[str, float]:
    """Exact ``SearchStats`` / ``BonsaiStats`` sums of one op."""
    counts = {
        "runtime.queries": sum(s.queries for s in search_stats),
        "runtime.leaves_visited": sum(s.leaves_visited for s in search_stats),
        "runtime.points_examined": sum(s.points_examined for s in search_stats),
        "runtime.point_bytes_loaded": sum(s.point_bytes_loaded for s in search_stats),
    }
    present = [b for b in bonsai_stats if b is not None]
    counts.update({
        "core.leaf_visits": sum(b.leaf_visits for b in present),
        "core.compressed_bytes_loaded": sum(b.compressed_bytes_loaded for b in present),
        "core.recompute_bytes_loaded": sum(b.recompute_bytes_loaded for b in present),
        "core.points_classified": sum(b.points_classified for b in present),
        "core.inconclusive": sum(b.inconclusive for b in present),
    })
    return counts
