"""Execution-share profiling (Figure 2 of the paper).

Figure 2 motivates the work by showing that radius search accounts for ~61%
of Autoware's euclidean cluster task and ~51% of NDT matching.  The profiler
here reproduces that measurement on the synthetic workloads: it runs each
pipeline with the baseline search, converts the per-phase functional counters
into cycle estimates with the shared instruction budgets and timing model,
and reports the fraction of cycles spent inside radius search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..hwmodel.timing import KernelMetrics, TimingModel
from ..isa.cost_model import InstructionBudget, estimate_baseline
from ..perception.euclidean_cluster import ClusterConfig, EuclideanClusterExtractor
from ..perception.ndt import NDTConfig, NDTMap, NDTMatcher
from ..pointcloud.cloud import PointCloud
from ..pointcloud.filters import PreprocessConfig, preprocess_for_clustering
from .autoware import PhaseBudget
from .localization import NDTPhaseBudget

__all__ = ["ExecutionShare", "profile_euclidean_cluster", "profile_ndt_matching"]


@dataclass
class ExecutionShare:
    """Cycle share of radius search within a task."""

    task: str
    radius_search_cycles: float
    other_cycles: float

    @property
    def total_cycles(self) -> float:
        """Total cycles of the task."""
        return self.radius_search_cycles + self.other_cycles

    @property
    def radius_search_share(self) -> float:
        """Fraction of cycles spent in radius search."""
        if self.total_cycles == 0:
            return 0.0
        return self.radius_search_cycles / self.total_cycles


def _cycles_from_instructions(timing: TimingModel, instructions: int,
                              miss_fraction: float = 0.06) -> float:
    """Cycle estimate of a streaming phase characterised by instruction count."""
    accesses = instructions // 3
    misses = int(accesses * miss_fraction)
    metrics = KernelMetrics(
        instructions=instructions,
        loads=instructions // 4,
        stores=instructions // 8,
        l1_accesses=accesses,
        l1_misses=misses,
        l2_accesses=misses,
        l2_misses=int(misses * 0.3),
        memory_accesses=int(misses * 0.3),
    )
    return timing.cycles(metrics)


def _search_cycles(timing: TimingModel, stats, budget: InstructionBudget,
                   miss_fraction: float = 0.12) -> float:
    """Cycle estimate of the radius-search portion from its functional counters."""
    estimate = estimate_baseline(stats, budget)
    accesses = estimate.loads + estimate.stores
    misses = int(accesses * miss_fraction)
    metrics = KernelMetrics(
        instructions=estimate.instructions,
        loads=estimate.loads,
        stores=estimate.stores,
        l1_accesses=accesses,
        l1_misses=misses,
        l2_accesses=misses,
        l2_misses=int(misses * 0.3),
        memory_accesses=int(misses * 0.3),
    )
    return timing.cycles(metrics)


def profile_euclidean_cluster(cloud: PointCloud,
                              preprocess: Optional[PreprocessConfig] = None,
                              cluster: Optional[ClusterConfig] = None,
                              budget: InstructionBudget = InstructionBudget(),
                              phase: PhaseBudget = PhaseBudget()) -> ExecutionShare:
    """Radius-search share of the euclidean-cluster task for one frame."""
    timing = TimingModel()
    filtered = preprocess_for_clustering(cloud, preprocess)
    extractor = EuclideanClusterExtractor(config=cluster)
    result = extractor.extract(filtered)

    search_cycles = _search_cycles(timing, result.search_stats, budget)
    levels = max(result.tree.depth(), 1)
    clustered_points = sum(c.size for c in result.clusters)
    other_instructions = (
        len(cloud) * phase.preprocess_per_raw_point
        + len(filtered) * levels * phase.build_per_point_per_level
        + clustered_points * phase.label_per_clustered_point
    )
    other_cycles = _cycles_from_instructions(timing, other_instructions)
    return ExecutionShare(
        task="Euclidean Cluster (Segmentation)",
        radius_search_cycles=search_cycles,
        other_cycles=other_cycles,
    )


def profile_ndt_matching(scan: PointCloud, map_cloud: PointCloud,
                         config: Optional[NDTConfig] = None,
                         budget: InstructionBudget = InstructionBudget()) -> ExecutionShare:
    """Radius-search share of the NDT-matching task for one scan registration."""
    timing = TimingModel()
    config = config or NDTConfig()
    ndt_map = NDTMap(map_cloud, config)
    matcher = NDTMatcher(ndt_map)
    result = matcher.register(scan, initial_translation=(0.4, 0.2, 0.0))

    search_cycles = _search_cycles(timing, result.search_stats, budget)

    # Non-search NDT work: voxel Gaussian fits (once per map build) and the
    # score/gradient/Hessian contributions (per point-voxel pair per
    # iteration), at the localization workload's instruction budgets.
    phase = NDTPhaseBudget()
    n_scan_points = min(len(scan), config.max_scan_points)
    other_instructions = (
        result.search_stats.points_in_radius * phase.per_pair
        + n_scan_points * result.iterations * phase.per_point_per_iteration
        + ndt_map.counts.size * phase.per_voxel_fit
        + result.iterations * phase.per_iteration_solve
    )
    other_cycles = _cycles_from_instructions(timing, other_instructions)
    return ExecutionShare(
        task="NDT Matching (Localization)",
        radius_search_cycles=search_cycles,
        other_cycles=other_cycles,
    )
