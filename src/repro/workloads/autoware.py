"""Autoware-like euclidean-cluster pipeline with full cost accounting.

This is the harness the benchmarks drive.  For every LiDAR frame it runs the
same stages Autoware's euclidean-cluster node runs —

1. pre-processing (range/crop filters, ground removal, voxel grid),
2. the *extract kernel*: k-d tree build (+ leaf compression when Bonsai is
   enabled) and the cluster-growing radius searches,
3. labeling (bounding boxes, classes),

— once with the baseline 32-bit search and once with the K-D Bonsai search,
and converts the functional counters into the hardware metrics the paper
reports: instruction/load/store counts, cache accesses and misses (from the
trace-driven cache simulation), execution time, end-to-end latency and
energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..core.bonsai_search import BonsaiStats
from ..engine.execution import ExecutionConfig
from ..hwmodel.cache import HierarchyStats
from ..hwmodel.cpu_config import CPUConfig, TABLE_IV_CPU
from ..hwmodel.energy import EnergyModel, EnergyParameters
from ..hwmodel.timing import KernelMetrics, TimingModel
from ..isa.cost_model import (
    BONSAI_FU_OPS_PER_LEAF_VISIT,
    InstructionBudget,
    estimate_baseline,
    estimate_bonsai,
)
from ..kdtree.radius_search import SearchStats
from ..perception.cluster_filter import DetectedObject, label_clusters
from ..perception.euclidean_cluster import ClusterConfig, EuclideanClusterExtractor
from ..pointcloud.cloud import PointCloud
from ..pointcloud.filters import PreprocessConfig, preprocess_for_clustering

__all__ = [
    "PhaseBudget",
    "PipelineConfig",
    "KernelReport",
    "FrameMeasurement",
    "EuclideanClusterPipeline",
]


@dataclass(frozen=True)
class PhaseBudget:
    """Per-event instruction budgets of the non-search pipeline phases.

    These cover the work that is identical between the baseline and Bonsai
    configurations (pre-processing, tree build, labeling) plus the
    compression overhead that only the Bonsai configuration pays at build
    time.  Values are first-order estimates of the per-point work of the
    corresponding PCL/Autoware code.
    """

    preprocess_per_raw_point: int = 70
    build_per_point_per_level: int = 24
    build_loads_per_point_per_level: int = 2
    label_per_clustered_point: int = 35
    #: Cluster-growing BFS bookkeeping (queue pop, query fetch, loop control)
    #: per radius-search query; identical in both configurations.
    bfs_per_query: int = 30
    bfs_loads_per_query: int = 5
    bfs_stores_per_query: int = 2
    #: BFS bookkeeping per returned neighbour (processed-flag check, queue
    #: push, cluster membership append); identical in both configurations.
    bfs_per_neighbor: int = 12
    bfs_loads_per_neighbor: int = 2
    bfs_stores_per_neighbor: int = 1
    #: Build-time compression: LDSPZPB per point (2 µops) plus amortised
    #: CPRZPB / STZPB work per leaf.
    compress_per_point: int = 6
    compress_per_leaf: int = 24
    #: Fraction of build/preprocess/label memory accesses that miss in L1
    #: (streaming passes over contiguous arrays).
    streaming_l1_miss_fraction: float = 0.06


@dataclass
class PipelineConfig:
    """Configuration of the end-to-end pipeline."""

    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    cpu: CPUConfig = field(default_factory=lambda: TABLE_IV_CPU)
    energy: EnergyParameters = field(default_factory=EnergyParameters)
    instruction_budget: InstructionBudget = field(default_factory=InstructionBudget)
    phase_budget: PhaseBudget = field(default_factory=PhaseBudget)
    #: Whether :meth:`EuclideanClusterPipeline.run_frame` records when the
    #: caller passes no ``execution`` (a passed one decides on its own).
    simulate_caches: bool = True


@dataclass
class KernelReport:
    """Hardware metrics of the extract kernel for one configuration."""

    instructions: int
    loads: int
    stores: int
    l1_accesses: int
    l1_misses: int
    l2_accesses: int
    l2_misses: int
    memory_accesses: int
    cycles: float
    seconds: float
    energy_j: float
    ipc: float

    def as_dict(self) -> Dict[str, float]:
        """Metrics as a plain dictionary (used by the report renderers)."""
        return {
            "execution_time": self.seconds,
            "instructions": self.instructions,
            "loads": self.loads,
            "stores": self.stores,
            "l1_accesses": self.l1_accesses,
            "l1_misses": self.l1_misses,
            "l2_accesses": self.l2_accesses,
            "memory_accesses": self.memory_accesses,
            "energy": self.energy_j,
        }


@dataclass
class FrameMeasurement:
    """Everything measured for one frame under one configuration."""

    frame_index: int
    use_bonsai: bool
    n_raw_points: int
    n_filtered_points: int
    n_clusters: int
    extract: KernelReport
    end_to_end_seconds: float
    search_stats: SearchStats
    bonsai_stats: Optional[BonsaiStats]
    point_bytes_loaded: int
    compressed_total_bytes: Optional[int] = None
    baseline_point_bytes: Optional[int] = None
    #: The labelled detections the node would publish; consumed by the
    #: cluster-filtering and tracking stages of the end-to-end runner.
    detections: List[DetectedObject] = field(default_factory=list)
    #: Raw per-frame cache-hierarchy statistics of the recorded search trace
    #: (``None`` when the frame did not record).
    hierarchy: Optional[HierarchyStats] = None


class EuclideanClusterPipeline:
    """Runs the euclidean-cluster workload with full cost accounting."""

    def __init__(self, config: Optional[PipelineConfig] = None):
        self.config = config or PipelineConfig()
        self.timing = TimingModel(self.config.cpu)
        self.energy = EnergyModel(self.config.energy)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run_frame(self, cloud: PointCloud, frame_index: int = 0, *,
                  execution: Optional[ExecutionConfig] = None) -> FrameMeasurement:
        """Process one raw LiDAR frame and return its measurements.

        ``execution`` selects the search backend and the hardware-recording
        mode; when omitted the frame runs on ``baseline-batched``, recording
        when the config's ``simulate_caches`` is set.  A recording frame
        simulates the config's own machine, ``cpu`` (or the execution's
        ``cache_config``).
        """
        config = self.config
        if execution is None:
            execution = ExecutionConfig(hardware=config.simulate_caches)
        filtered = preprocess_for_clustering(cloud, config.preprocess)
        if filtered.is_empty:
            raise ValueError("pre-processing removed every point; adjust PreprocessConfig")

        recorder = (execution.make_recorder(config.cpu)
                    if execution.hardware else None)
        extractor = EuclideanClusterExtractor(
            config=config.cluster, execution=execution, recorder=recorder,
        )
        result = extractor.extract(filtered)
        detections = label_clusters(filtered, result.clusters)

        search_stats = result.search_stats
        bonsai_stats = result.bonsai.bonsai_stats if result.bonsai is not None else None
        extract_report = self._extract_kernel_report(
            filtered, result.tree.n_leaves, result.tree.depth(), search_stats,
            bonsai_stats, recorder.stats if recorder is not None else None,
        )
        end_to_end = self._end_to_end_seconds(
            cloud, filtered, result, extract_report,
        )
        return FrameMeasurement(
            frame_index=frame_index,
            use_bonsai=execution.use_bonsai,
            n_raw_points=len(cloud),
            n_filtered_points=len(filtered),
            n_clusters=result.n_clusters,
            extract=extract_report,
            end_to_end_seconds=end_to_end,
            search_stats=search_stats,
            bonsai_stats=bonsai_stats,
            point_bytes_loaded=search_stats.point_bytes_loaded,
            compressed_total_bytes=(
                result.bonsai.report.compressed_bytes
                if result.bonsai is not None and result.bonsai.report is not None else None
            ),
            baseline_point_bytes=(
                result.bonsai.report.baseline_bytes
                if result.bonsai is not None and result.bonsai.report is not None else None
            ),
            detections=detections,
            hierarchy=recorder.stats if recorder is not None else None,
        )

    def run_frames(self, clouds: Iterable[PointCloud], *,
                   execution: Optional[ExecutionConfig] = None,
                   ) -> List[FrameMeasurement]:
        """Process several frames; frame indices follow iteration order."""
        return [self.run_frame(cloud, frame_index=i, execution=execution)
                for i, cloud in enumerate(clouds)]

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------
    def _extract_kernel_report(self, filtered: PointCloud, n_leaves: int, depth: int,
                               search_stats: SearchStats,
                               bonsai_stats: Optional[BonsaiStats],
                               hierarchy: Optional[HierarchyStats]) -> KernelReport:
        """The extract kernel's metrics; ``bonsai_stats`` is ``None`` on a
        baseline frame and set on a Bonsai one."""
        budget = self.config.instruction_budget
        phase = self.config.phase_budget
        n_points = len(filtered)
        levels = max(depth, 1)

        # Search component (differs between the configurations).
        if bonsai_stats is not None:
            search_estimate = estimate_bonsai(search_stats, bonsai_stats, budget)
        else:
            search_estimate = estimate_baseline(search_stats, budget)

        # Tree build (identical in both configurations).
        build_instructions = n_points * levels * phase.build_per_point_per_level
        build_loads = n_points * levels * phase.build_loads_per_point_per_level
        build_stores = n_points * levels

        # Cluster-growing BFS bookkeeping (identical in both configurations).
        n_queries = search_stats.queries
        n_neighbors = search_stats.points_in_radius
        bfs_instructions = (
            n_queries * phase.bfs_per_query + n_neighbors * phase.bfs_per_neighbor
        )
        bfs_loads = (
            n_queries * phase.bfs_loads_per_query
            + n_neighbors * phase.bfs_loads_per_neighbor
        )
        bfs_stores = (
            n_queries * phase.bfs_stores_per_query
            + n_neighbors * phase.bfs_stores_per_neighbor
        )

        # Build-time compression overhead (Bonsai only).
        compress_instructions = 0
        compress_stores = 0
        if bonsai_stats is not None:
            compress_instructions = (
                n_points * phase.compress_per_point + n_leaves * phase.compress_per_leaf
            )
            compress_stores = n_leaves * 4  # STZPB slices, ~4 per leaf

        instructions = (
            search_estimate.instructions + build_instructions + bfs_instructions
            + compress_instructions
        )
        loads = search_estimate.loads + build_loads + bfs_loads
        stores = search_estimate.stores + build_stores + bfs_stores + compress_stores

        # Cache statistics: the search accesses come from the trace-driven
        # simulation; the build's streaming accesses are added analytically
        # and identically for both configurations.
        build_accesses = build_loads + build_stores
        build_misses = int(build_accesses * phase.streaming_l1_miss_fraction)
        if hierarchy is not None:
            l1_accesses = hierarchy.l1_accesses + build_accesses
            l1_misses = hierarchy.l1_misses + build_misses
            l2_accesses = hierarchy.l2_accesses + build_misses
            l2_misses = hierarchy.l2_misses + int(build_misses * 0.3)
            memory_accesses = hierarchy.memory_accesses + int(build_misses * 0.3)
        else:
            l1_accesses = loads + stores
            l1_misses = int(l1_accesses * phase.streaming_l1_miss_fraction)
            l2_accesses = l1_misses
            l2_misses = int(l1_misses * 0.3)
            memory_accesses = l2_misses

        metrics = KernelMetrics(
            instructions=instructions,
            loads=loads,
            stores=stores,
            l1_accesses=l1_accesses,
            l1_misses=l1_misses,
            l2_accesses=l2_accesses,
            l2_misses=l2_misses,
            memory_accesses=memory_accesses,
        )
        cycles = self.timing.cycles(metrics)
        seconds = self.timing.seconds(metrics)
        bonsai_fu_ops = 0
        if bonsai_stats is not None:
            bonsai_fu_ops = bonsai_stats.leaf_visits * BONSAI_FU_OPS_PER_LEAF_VISIT
        energy = self.energy.estimate(metrics, seconds, bonsai_fu_ops).total_j
        return KernelReport(
            instructions=instructions,
            loads=loads,
            stores=stores,
            l1_accesses=l1_accesses,
            l1_misses=l1_misses,
            l2_accesses=l2_accesses,
            l2_misses=l2_misses,
            memory_accesses=memory_accesses,
            cycles=cycles,
            seconds=seconds,
            energy_j=energy,
            ipc=self.timing.ipc(metrics),
        )

    def _end_to_end_seconds(self, raw: PointCloud, filtered: PointCloud, result,
                            extract: KernelReport) -> float:
        """End-to-end node latency: pre-processing + extract kernel + labeling."""
        phase = self.config.phase_budget
        clustered_points = sum(cluster.size for cluster in result.clusters)
        other_instructions = (
            len(raw) * phase.preprocess_per_raw_point
            + clustered_points * phase.label_per_clustered_point
        )
        other_metrics = KernelMetrics(
            instructions=other_instructions,
            loads=other_instructions // 4,
            stores=other_instructions // 8,
            l1_accesses=other_instructions // 3,
            l1_misses=int(other_instructions // 3 * phase.streaming_l1_miss_fraction),
            l2_accesses=int(other_instructions // 3 * phase.streaming_l1_miss_fraction),
            l2_misses=int(other_instructions // 3 * phase.streaming_l1_miss_fraction * 0.3),
            memory_accesses=int(other_instructions // 3 * phase.streaming_l1_miss_fraction * 0.3),
        )
        return extract.seconds + self.timing.seconds(other_metrics)
