"""NDT localization workload with cost accounting.

The paper evaluates K-D Bonsai on the euclidean-cluster task but points out
(Section V-A) that other Autoware algorithms — notably the NDT localization
node — are equally subject to the optimisation because they spend half of
their time in k-d tree radius search (Figure 2).  This module mirrors
:mod:`repro.workloads.autoware` for the localization pipeline: it registers
consecutive scans against a map with the simplified NDT matcher, once with
the baseline radius search and once with the Bonsai compressed search, and
converts the functional counters into the same first-order hardware metrics,
so the expected benefit on the second workload can be quantified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..core.bonsai_search import BonsaiStats
from ..engine.execution import ExecutionConfig
from ..hwmodel.cpu_config import CPUConfig, TABLE_IV_CPU
from ..hwmodel.energy import EnergyModel, EnergyParameters
from ..hwmodel.timing import KernelMetrics, TimingModel
from ..isa.cost_model import (
    BONSAI_FU_OPS_PER_LEAF_VISIT,
    InstructionBudget,
    estimate_baseline,
    estimate_bonsai,
)
from ..perception.ndt import NDTConfig, NDTMap, NDTMatcher
from ..pointcloud.cloud import PointCloud
from ..pointcloud.filters import PreprocessConfig, preprocess_for_clustering, voxel_grid_filter

__all__ = ["NDTPhaseBudget", "LocalizationConfig", "RegistrationMeasurement",
           "NDTLocalizationPipeline"]


@dataclass(frozen=True)
class NDTPhaseBudget:
    """Instruction budgets of the non-search NDT work (identical in both modes)."""

    #: Score/gradient/Hessian contribution per (scan point, neighbour voxel) pair.
    per_pair: int = 160
    #: Transform + loop bookkeeping per scan point per iteration.
    per_point_per_iteration: int = 40
    #: Covariance accumulation + eigen-decomposition share per map voxel (map build).
    per_voxel_fit: int = 90
    #: 3x3 Newton solve per iteration.
    per_iteration_solve: int = 600
    #: Fraction of the streaming accesses that miss in L1.
    streaming_l1_miss_fraction: float = 0.06


@dataclass
class LocalizationConfig:
    """Configuration of the localization workload."""

    ndt: NDTConfig = field(default_factory=lambda: NDTConfig(
        voxel_size=2.0, max_iterations=10, max_scan_points=250))
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    scan_voxel_size: float = 0.4
    cpu: CPUConfig = field(default_factory=lambda: TABLE_IV_CPU)
    energy: EnergyParameters = field(default_factory=EnergyParameters)
    instruction_budget: InstructionBudget = field(default_factory=InstructionBudget)
    phase_budget: NDTPhaseBudget = field(default_factory=NDTPhaseBudget)


@dataclass
class RegistrationMeasurement:
    """Cost metrics of registering one scan against the map."""

    scan_index: int
    use_bonsai: bool
    translation: np.ndarray
    iterations: int
    instructions: int
    loads: int
    stores: int
    point_bytes_loaded: int
    seconds: float
    energy_j: float


class NDTLocalizationPipeline:
    """Registers a sequence of scans against a fixed map, with cost accounting.

    ``execution`` selects the search backend (``baseline-batched`` when
    omitted).  A hardware ``execution`` records the map searches on this
    workload's own machine, ``config.cpu`` (or the execution's
    ``cache_config``); the recorder is :attr:`recorder` (``None`` when not
    recording).
    """

    def __init__(self, map_cloud: PointCloud, config: Optional[LocalizationConfig] = None,
                 *, execution: Optional[ExecutionConfig] = None):
        self.config = config or LocalizationConfig()
        self.execution = execution = execution or ExecutionConfig()
        self.timing = TimingModel(self.config.cpu)
        self.energy = EnergyModel(self.config.energy)
        map_filtered = voxel_grid_filter(
            preprocess_for_clustering(map_cloud, self.config.preprocess),
            self.config.scan_voxel_size,
        )
        self.map = NDTMap(map_filtered, self.config.ndt)
        # With a memory recorder the matcher takes the per-query search path
        # and streams every map-tree access through the trace-driven cache
        # simulation (the map build itself is offline and not recorded).
        self.recorder = (execution.make_recorder(self.config.cpu)
                         if execution.hardware else None)
        self.matcher = NDTMatcher(self.map, execution=execution,
                                  recorder=self.recorder)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def register_scan(self, scan: PointCloud, scan_index: int = 0,
                      initial_translation: Sequence[float] = (0.0, 0.0, 0.0),
                      ) -> RegistrationMeasurement:
        """Register one raw scan; returns its cost measurement."""
        filtered = voxel_grid_filter(
            preprocess_for_clustering(scan, self.config.preprocess),
            self.config.scan_voxel_size,
        )
        stats_before = self._snapshot_stats()
        result = self.matcher.register(filtered, initial_translation=initial_translation)
        search_stats, bonsai_stats = self._delta_stats(stats_before)

        estimate = (
            estimate_bonsai(search_stats, bonsai_stats, self.config.instruction_budget)
            if self.execution.use_bonsai and bonsai_stats is not None
            else estimate_baseline(search_stats, self.config.instruction_budget)
        )
        phase = self.config.phase_budget
        n_scan_points = min(len(filtered), self.config.ndt.max_scan_points)
        other_instructions = (
            search_stats.points_in_radius * phase.per_pair
            + n_scan_points * result.iterations * phase.per_point_per_iteration
            + result.iterations * phase.per_iteration_solve
        )
        instructions = estimate.instructions + other_instructions
        loads = estimate.loads + other_instructions // 4
        stores = estimate.stores + other_instructions // 10

        accesses = loads + stores
        misses = int(accesses * phase.streaming_l1_miss_fraction)
        metrics = KernelMetrics(
            instructions=instructions,
            loads=loads,
            stores=stores,
            l1_accesses=accesses,
            l1_misses=misses,
            l2_accesses=misses,
            l2_misses=int(misses * 0.3),
            memory_accesses=int(misses * 0.3),
        )
        seconds = self.timing.seconds(metrics)
        bonsai_fu_ops = (bonsai_stats.leaf_visits * BONSAI_FU_OPS_PER_LEAF_VISIT
                         if bonsai_stats is not None else 0)
        energy = self.energy.estimate(metrics, seconds, bonsai_fu_ops).total_j
        return RegistrationMeasurement(
            scan_index=scan_index,
            use_bonsai=self.execution.use_bonsai,
            translation=result.translation,
            iterations=result.iterations,
            instructions=instructions,
            loads=loads,
            stores=stores,
            point_bytes_loaded=search_stats.point_bytes_loaded,
            seconds=seconds,
            energy_j=energy,
        )

    def register_sequence(self, scans: Sequence[PointCloud],
                          initial_translations: Optional[Sequence[Sequence[float]]] = None,
                          ) -> List[RegistrationMeasurement]:
        """Register several scans, returning one measurement per scan."""
        measurements = []
        for index, scan in enumerate(scans):
            initial = (initial_translations[index]
                       if initial_translations is not None else (0.0, 0.0, 0.0))
            measurements.append(self.register_scan(scan, index, initial))
        return measurements

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _snapshot_stats(self):
        stats = self.matcher.search_stats
        search_copy = (stats.queries, stats.leaves_visited, stats.interior_visited,
                       stats.points_examined, stats.points_in_radius,
                       stats.point_bytes_loaded)
        if self.execution.use_bonsai:
            b = self.matcher.bonsai_stats
            bonsai_copy = (b.leaf_visits, b.slices_loaded, b.compressed_bytes_loaded,
                           b.points_classified, b.conclusive_in, b.conclusive_out,
                           b.inconclusive, b.recompute_bytes_loaded)
        else:
            bonsai_copy = None
        return search_copy, bonsai_copy

    def _delta_stats(self, before):
        from ..kdtree.radius_search import SearchStats

        search_before, bonsai_before = before
        stats = self.matcher.search_stats
        search_delta = SearchStats(
            queries=stats.queries - search_before[0],
            leaves_visited=stats.leaves_visited - search_before[1],
            interior_visited=stats.interior_visited - search_before[2],
            points_examined=stats.points_examined - search_before[3],
            points_in_radius=stats.points_in_radius - search_before[4],
            point_bytes_loaded=stats.point_bytes_loaded - search_before[5],
        )
        if bonsai_before is None:
            return search_delta, None
        b = self.matcher.bonsai_stats
        bonsai_delta = BonsaiStats(
            leaf_visits=b.leaf_visits - bonsai_before[0],
            slices_loaded=b.slices_loaded - bonsai_before[1],
            compressed_bytes_loaded=b.compressed_bytes_loaded - bonsai_before[2],
            points_classified=b.points_classified - bonsai_before[3],
            conclusive_in=b.conclusive_in - bonsai_before[4],
            conclusive_out=b.conclusive_out - bonsai_before[5],
            inconclusive=b.inconclusive - bonsai_before[6],
            recompute_bytes_loaded=b.recompute_bytes_loaded - bonsai_before[7],
        )
        return search_delta, bonsai_delta
