"""End-to-end perception pipeline runner over the scenario library.

The paper evaluates individual kernels; a deployed stack chains them.  This
module runs the *whole* perception path over a multi-frame
:class:`~repro.pointcloud.sequence.DrivingSequence` — systematic frame
sub-sampling, per-frame pre-processing, k-d tree build, euclidean clustering
(through the batched query engine of :mod:`repro.runtime`), cluster
filtering, frame-to-frame tracking, and NDT localization against the first
frame — and folds every stage's functional counters, hardware-model metrics
and outcomes into one structured :class:`PipelineRunResult`.

The result's :meth:`PipelineRunResult.metrics` dictionary is deterministic
for a fixed scenario/seed/sensor configuration, which is what the
golden-metric regression harness (``tests/test_golden_pipeline.py``) locks
down: a perf refactor that changes *any* stage's behaviour — cluster counts,
search counters, localization error — trips the snapshot comparison.

The execution mode — which search backend serves the stages, and whether
they run through the hardware models — is carried as data:
``PipelineRunnerConfig(execution=ExecutionConfig(backend=<name>,
hardware=...))``, with backend names resolved by
:func:`repro.engine.get_backend`.

**Hardware-in-the-loop mode** (``ExecutionConfig(hardware=True)``)
additionally routes the clustering and localization search stages through
the recorded per-query backend, so every tree access streams through the
trace-driven cache simulation of :mod:`repro.hwmodel`.  Functional outcomes
are identical to the default batched path (the per-query and batched
searches return the same results and the per-query hits are re-sorted into
the batched order); on top of them the result carries per-stage
:class:`~repro.hwmodel.report.StageHardwareReport` objects — miss ratios,
bytes moved per hierarchy level, cycle and energy estimates — surfaced under
the ``"hardware"`` key of :meth:`PipelineRunResult.metrics` and locked down
by the golden snapshots of ``tests/test_golden_hardware.py``.

Example
-------
>>> from repro.workloads import ExecutionConfig, PipelineRunner
>>> result = PipelineRunner.from_scenario(          # doctest: +SKIP
...     "tunnel", n_frames=4,
...     execution=ExecutionConfig(backend="bonsai-batched")).run()
>>> result.metrics()["clusters_total"]              # doctest: +SKIP
42
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.bonsai_search import BonsaiStats
from ..engine.execution import ExecutionConfig
from ..hwmodel.cache import HierarchyStats
from ..hwmodel.energy import EnergyModel
from ..hwmodel.report import StageHardwareReport
from ..hwmodel.timing import TimingModel
from ..isa.cost_model import BONSAI_FU_OPS_PER_LEAF_VISIT
from ..kdtree.radius_search import SearchStats
from ..perception.cluster_filter import filter_by_extent
from ..perception.tracking import ClusterTracker, TrackerConfig
from ..perception.ndt import NDTConfig
from ..pointcloud.sequence import DrivingSequence, systematic_subsample
from .autoware import EuclideanClusterPipeline, FrameMeasurement, PipelineConfig
from .localization import LocalizationConfig, NDTLocalizationPipeline

__all__ = [
    "PipelineRunnerConfig",
    "FrameRecord",
    "LocalizationReport",
    "PipelineRunResult",
    "PipelineRunner",
    "FrameFold",
]


def _default_localization_config() -> LocalizationConfig:
    # Coarser voxels and a lower occupancy threshold than the map-scale
    # defaults, so localization stays solvable on the sparse worlds
    # (rural roads) as well as the dense ones.
    return LocalizationConfig(
        ndt=NDTConfig(voxel_size=3.0, min_points_per_voxel=2,
                      max_iterations=10, max_scan_points=250),
    )


@dataclass
class PipelineRunnerConfig:
    """Configuration of the end-to-end runner.

    The execution mode — which search backend serves the clustering and
    localization stages, and whether the searches run through the
    trace-driven hardware models — is one value, ``execution``
    (:class:`~repro.engine.execution.ExecutionConfig`).  The pre-engine
    boolean pair (``PipelineRunnerConfig(use_bonsai=..., hardware=...)``)
    went through its deprecation cycle and has been removed; spell the mode
    as ``execution=ExecutionConfig(backend=<name>, hardware=...)``.
    """

    #: The execution mode (backend name, hardware switch, cache geometry).
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    #: Process only the first ``n_frames`` frames (``None``: the whole sequence).
    n_frames: Optional[int] = None
    #: ``(n_samples, sample_length)`` systematic frame sub-sampling applied to
    #: the selected frames (``None``: process every selected frame).
    subsample: Optional[Tuple[int, int]] = None
    #: Euclidean-cluster pipeline configuration.  Every frame runs with
    #: ``execution``, so its ``simulate_caches`` default is not consulted:
    #: ``execution.hardware`` alone decides whether the frames record.
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    #: Detection-extent bounds of the cluster-filtering stage.
    min_detection_extent: float = 0.2
    max_detection_extent: float = 18.0
    #: Tracker parameters (gating sized for inter-frame actor motion).
    tracker: TrackerConfig = field(default_factory=lambda: TrackerConfig(
        gating_distance=3.0, confirmation_hits=2))
    #: Run the NDT localization stage (first selected frame becomes the map).
    localization: bool = True
    localization_config: LocalizationConfig = field(
        default_factory=_default_localization_config)
    #: Cap on the number of scans registered during localization.
    max_localization_scans: int = 4
    #: Odometry-style perturbation added to the ground-truth initial guess.
    initial_translation_error: Tuple[float, float, float] = (0.3, 0.2, 0.0)


@dataclass
class FrameRecord:
    """Per-frame outcome of the clustering/filtering/tracking stages."""

    frame_index: int
    n_raw_points: int
    n_filtered_points: int
    n_clusters: int
    n_detections_kept: int
    n_confirmed_tracks: int
    model_extract_seconds: float
    model_end_to_end_seconds: float


@dataclass
class LocalizationReport:
    """Outcome and cost of the NDT localization stage."""

    n_scans: int
    mean_error_m: float
    max_error_m: float
    iterations_total: int
    instructions_total: int
    point_bytes_loaded: int
    model_seconds_total: float
    energy_j_total: float


@dataclass
class PipelineRunResult:
    """Structured result of one end-to-end run."""

    scenario: str
    use_bonsai: bool
    frame_indices: List[int]
    frames: List[FrameRecord]
    #: Aggregated radius-search counters of the clustering stage.
    cluster_search: SearchStats
    #: Aggregated compressed-search counters (Bonsai runs only).
    cluster_bonsai: Optional[BonsaiStats]
    #: Histogram of confirmed-track labels at the end of the run.
    track_labels: Dict[str, int]
    tracks_spawned: int
    confirmed_tracks_final: int
    localization: Optional[LocalizationReport]
    #: Wall-clock seconds per stage (measured, excluded from golden metrics).
    stage_seconds: Dict[str, float]
    #: The underlying per-frame measurements (hardware-model reports).
    measurements: List[FrameMeasurement] = field(default_factory=list, repr=False)
    #: Per-stage trace-driven hardware reports (hardware-in-the-loop runs only).
    hardware_stages: Optional[Dict[str, StageHardwareReport]] = None
    #: Name of the execution backend that served the run's searches.
    #: Deliberately *not* part of :meth:`metrics` — the golden snapshots key
    #: runs by backend through their filenames already.
    backend: str = "baseline-batched"

    def metrics(self) -> Dict[str, object]:
        """Deterministic, JSON-serialisable metrics for golden snapshots.

        Wall-clock stage timings are deliberately excluded — everything in
        the dictionary is a function of the scenario, seeds and
        configuration only.
        """
        frames = self.frames
        search = self.cluster_search
        out: Dict[str, object] = {
            "scenario": self.scenario,
            "use_bonsai": self.use_bonsai,
            "n_frames": len(frames),
            "frame_indices": list(self.frame_indices),
            "raw_points_total": sum(f.n_raw_points for f in frames),
            "filtered_points_total": sum(f.n_filtered_points for f in frames),
            "clusters_total": sum(f.n_clusters for f in frames),
            "detections_kept_total": sum(f.n_detections_kept for f in frames),
            "confirmed_tracks_final": self.confirmed_tracks_final,
            "tracks_spawned": self.tracks_spawned,
            "track_labels": dict(sorted(self.track_labels.items())),
            "cluster_search": {
                "queries": search.queries,
                "leaves_visited": search.leaves_visited,
                "interior_visited": search.interior_visited,
                "points_examined": search.points_examined,
                "points_in_radius": search.points_in_radius,
                "point_bytes_loaded": search.point_bytes_loaded,
            },
            "model": {
                "extract_seconds_total": sum(f.model_extract_seconds for f in frames),
                "end_to_end_seconds_total": sum(
                    f.model_end_to_end_seconds for f in frames),
                "extract_instructions_total": sum(
                    m.extract.instructions for m in self.measurements),
                "extract_energy_j_total": sum(
                    m.extract.energy_j for m in self.measurements),
            },
        }
        if self.cluster_bonsai is not None:
            b = self.cluster_bonsai
            out["cluster_bonsai"] = {
                "leaf_visits": b.leaf_visits,
                "compressed_bytes_loaded": b.compressed_bytes_loaded,
                "points_classified": b.points_classified,
                "conclusive_in": b.conclusive_in,
                "conclusive_out": b.conclusive_out,
                "inconclusive": b.inconclusive,
                "recompute_bytes_loaded": b.recompute_bytes_loaded,
            }
        if self.localization is not None:
            loc = self.localization
            out["localization"] = {
                "n_scans": loc.n_scans,
                "mean_error_m": loc.mean_error_m,
                "max_error_m": loc.max_error_m,
                "iterations_total": loc.iterations_total,
                "instructions_total": loc.instructions_total,
                "point_bytes_loaded": loc.point_bytes_loaded,
                "model_seconds_total": loc.model_seconds_total,
                "energy_j_total": loc.energy_j_total,
            }
        if self.hardware_stages is not None:
            out["hardware"] = {
                name: self.hardware_stages[name].as_metrics()
                for name in sorted(self.hardware_stages)
            }
        return out


class FrameFold:
    """Order-sensitive accumulation of per-frame clustering results.

    The per-frame *stage* work (frame generation + clustering) is a pure
    function of the frame index, so it can run out of order or in parallel;
    everything stateful — extent filtering feeding the tracker, the
    tracker's own update, the commutative-but-ordered statistics merges and
    the record lists — lives here and must be fed **strictly in frame-index
    order**.  Both the serial :class:`PipelineRunner` and the streaming
    :class:`~repro.serve.streaming.StreamingPipelineRunner` fold through
    this one code path, which is what makes their metrics bitwise
    identical.
    """

    def __init__(self, config: PipelineRunnerConfig, execution: ExecutionConfig):
        self.config = config
        self.tracker = ClusterTracker(config.tracker)
        self.cluster_search = SearchStats()
        self.cluster_bonsai = BonsaiStats() if execution.use_bonsai else None
        self.frames: List[FrameRecord] = []
        self.measurements: List[FrameMeasurement] = []

    def fold(self, index: int, cloud, measurement: FrameMeasurement) -> float:
        """Fold one frame's stage output; returns the tracker wall-time."""
        config = self.config
        kept = filter_by_extent(
            measurement.detections,
            min_extent=config.min_detection_extent,
            max_extent=config.max_detection_extent,
        )
        start = time.perf_counter()
        confirmed = self.tracker.update(kept, timestamp=cloud.timestamp)
        track_s = time.perf_counter() - start

        self.cluster_search.merge(measurement.search_stats)
        if self.cluster_bonsai is not None and measurement.bonsai_stats is not None:
            self.cluster_bonsai.merge(measurement.bonsai_stats)
        self.measurements.append(measurement)
        self.frames.append(FrameRecord(
            frame_index=index,
            n_raw_points=measurement.n_raw_points,
            n_filtered_points=measurement.n_filtered_points,
            n_clusters=measurement.n_clusters,
            n_detections_kept=len(kept),
            n_confirmed_tracks=len(confirmed),
            model_extract_seconds=measurement.extract.seconds,
            model_end_to_end_seconds=measurement.end_to_end_seconds,
        ))
        return track_s


class PipelineRunner:
    """Chains the full perception path over one driving sequence.

    Stages (in order): systematic frame sub-sampling → per-frame
    pre-processing + k-d tree build + euclidean clustering (batched engine,
    baseline or Bonsai) → cluster filtering by extent → greedy
    nearest-neighbour tracking → NDT localization of the later frames
    against the first frame's map.
    """

    def __init__(self, sequence: DrivingSequence, scenario: str = "custom",
                 config: Optional[PipelineRunnerConfig] = None):
        self.sequence = sequence
        self.scenario = scenario
        self.config = config or PipelineRunnerConfig()

    @classmethod
    def from_scenario(cls, name: str, config: Optional[PipelineRunnerConfig] = None,
                      n_frames: Optional[int] = None, seed: Optional[int] = None,
                      n_beams: Optional[int] = None,
                      n_azimuth_steps: Optional[int] = None,
                      execution: Optional[ExecutionConfig] = None) -> "PipelineRunner":
        """Build a runner for a registered scenario (see :mod:`repro.scenarios`).

        The execution mode resolves in precedence order: the explicit
        ``execution`` argument, then the caller's ``config.execution``, then
        the scenario's own execution default (``spec.execution``), then the
        global default.  Scenario ``pipeline_overrides`` apply only when the
        caller passes no explicit ``config`` (an explicit config is taken
        verbatim).
        """
        from ..scenarios import get_scenario

        spec = get_scenario(name)
        sequence = spec.sequence(n_frames=n_frames, seed=seed, n_beams=n_beams,
                                 n_azimuth_steps=n_azimuth_steps)
        if config is None:
            overrides = dict(spec.pipeline_overrides or {})
            if spec.execution is not None and "execution" not in overrides:
                overrides["execution"] = spec.execution
            config = PipelineRunnerConfig(**overrides)
        if execution is not None:
            # Never mutate the caller's config: one config object must be
            # reusable for a baseline-then-Bonsai comparison.
            config = replace(config, execution=execution)
        return cls(sequence, scenario=name, config=config)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> PipelineRunResult:
        """Run every stage and return the structured result."""
        config = self.config
        stage_seconds: Dict[str, float] = {}

        indices = self._select_frames()
        start = time.perf_counter()
        clouds = [self.sequence.frame(i) for i in indices]
        stage_seconds["generate"] = time.perf_counter() - start

        cluster_pipeline = EuclideanClusterPipeline(config.pipeline)
        fold = FrameFold(config, config.execution)

        cluster_s = 0.0
        track_s = 0.0
        for index, cloud in zip(indices, clouds):
            start = time.perf_counter()
            measurement = cluster_pipeline.run_frame(
                cloud, frame_index=index, execution=config.execution)
            cluster_s += time.perf_counter() - start
            track_s += fold.fold(index, cloud, measurement)
        stage_seconds["cluster"] = cluster_s
        stage_seconds["track"] = track_s

        return self._finish(indices, clouds, fold, stage_seconds)

    def _finish(self, indices: Sequence[int], clouds: Sequence, fold: FrameFold,
                stage_seconds: Dict[str, float]) -> PipelineRunResult:
        """The serial tail every runner shares: localization + assembly."""
        config = self.config
        execution = config.execution
        localization = None
        localization_pipeline = None
        if config.localization and len(indices) >= 2:
            start = time.perf_counter()
            localization, localization_pipeline = self._run_localization(indices, clouds)
            stage_seconds["localize"] = time.perf_counter() - start

        track_labels: Dict[str, int] = {}
        for track in fold.tracker.confirmed_tracks:
            track_labels[track.label] = track_labels.get(track.label, 0) + 1

        hardware_stages = None
        if execution.hardware:
            hardware_stages = self._hardware_stages(
                fold.measurements, fold.cluster_bonsai, localization,
                localization_pipeline)

        return PipelineRunResult(
            scenario=self.scenario,
            use_bonsai=execution.use_bonsai,
            frame_indices=list(indices),
            frames=fold.frames,
            cluster_search=fold.cluster_search,
            cluster_bonsai=fold.cluster_bonsai,
            track_labels=track_labels,
            tracks_spawned=fold.tracker.tracks_spawned,
            confirmed_tracks_final=len(fold.tracker.confirmed_tracks),
            localization=localization,
            stage_seconds=stage_seconds,
            measurements=fold.measurements,
            hardware_stages=hardware_stages,
            backend=execution.backend,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _select_frames(self) -> List[int]:
        n_available = len(self.sequence)
        n_frames = n_available if self.config.n_frames is None else min(
            self.config.n_frames, n_available)
        if self.config.subsample is None:
            return list(range(n_frames))
        n_samples, sample_length = self.config.subsample
        return systematic_subsample(n_frames, n_samples, sample_length)

    def _run_localization(
            self, indices: Sequence[int], clouds: Sequence,
    ) -> Tuple[LocalizationReport, NDTLocalizationPipeline]:
        """Register later frames against the first frame's NDT map.

        The ground-truth relative translation between frame ``i`` and the
        map frame is the ego displacement the sequence generator applied;
        the initial guess perturbs it like an odometry prior would.  In
        hardware mode the localization workload records its map-tree
        searches on its own machine (``localization_config.cpu``, unless the
        execution pins a ``cache_config``) — it matches the clustering
        machine under the Table IV defaults.
        """
        config = self.config
        n_scans = min(len(indices) - 1, config.max_localization_scans)
        scan_indices = list(indices[1:1 + n_scans])
        map_index = indices[0]
        map_position = self.sequence.ego_position(map_index)
        perturbation = np.asarray(config.initial_translation_error, dtype=np.float64)

        pipeline = NDTLocalizationPipeline(
            clouds[0], config=config.localization_config,
            execution=config.execution)
        errors: List[float] = []
        iterations = 0
        instructions = 0
        bytes_loaded = 0
        seconds = 0.0
        energy = 0.0
        for scan_number, frame_index in enumerate(scan_indices):
            truth = self.sequence.ego_position(frame_index) - map_position
            measurement = pipeline.register_scan(
                clouds[1 + scan_number], scan_index=scan_number,
                initial_translation=truth + perturbation)
            errors.append(float(np.linalg.norm(measurement.translation - truth)))
            iterations += measurement.iterations
            instructions += measurement.instructions
            bytes_loaded += measurement.point_bytes_loaded
            seconds += measurement.seconds
            energy += measurement.energy_j
        report = LocalizationReport(
            n_scans=len(scan_indices),
            mean_error_m=float(np.mean(errors)) if errors else 0.0,
            max_error_m=float(np.max(errors)) if errors else 0.0,
            iterations_total=iterations,
            instructions_total=instructions,
            point_bytes_loaded=bytes_loaded,
            model_seconds_total=seconds,
            energy_j_total=energy,
        )
        return report, pipeline

    def _hardware_stages(
            self, measurements: List[FrameMeasurement],
            cluster_bonsai: Optional[BonsaiStats],
            localization: Optional[LocalizationReport],
            localization_pipeline: Optional[NDTLocalizationPipeline],
    ) -> Dict[str, StageHardwareReport]:
        """Fold the recorded traces into per-stage hardware reports.

        Both stages go through the same :meth:`StageHardwareReport.from_trace`
        path: access/miss counts come from the recorded trace (exact), and
        the instruction estimates feed each stage's own timing/energy models
        (clustering: ``pipeline_config``; localization:
        ``localization_config`` — identical Table IV machines by default),
        so the per-stage cycle and energy figures are directly comparable.
        """
        cluster_trace = HierarchyStats()
        for measurement in measurements:
            if measurement.hierarchy is not None:
                cluster_trace.merge(measurement.hierarchy)
        cluster_fu_ops = (cluster_bonsai.leaf_visits * BONSAI_FU_OPS_PER_LEAF_VISIT
                          if cluster_bonsai is not None else 0)
        pipeline_config = self.config.pipeline
        stages = {
            "clustering": StageHardwareReport.from_trace(
                "clustering", cluster_trace,
                instructions=sum(m.extract.instructions for m in measurements),
                timing=TimingModel(pipeline_config.cpu),
                energy=EnergyModel(pipeline_config.energy),
                bonsai_fu_ops=cluster_fu_ops,
                l1_line_size=pipeline_config.cpu.l1d.line_size,
                l2_line_size=pipeline_config.cpu.l2.line_size),
        }
        if localization is not None:
            localization_fu_ops = 0
            bonsai_stats = localization_pipeline.matcher.bonsai_stats
            if bonsai_stats is not None:
                localization_fu_ops = (
                    bonsai_stats.leaf_visits * BONSAI_FU_OPS_PER_LEAF_VISIT)
            localization_config = self.config.localization_config
            stages["localization"] = StageHardwareReport.from_trace(
                "localization", localization_pipeline.recorder.stats,
                instructions=localization.instructions_total,
                timing=TimingModel(localization_config.cpu),
                energy=EnergyModel(localization_config.energy),
                bonsai_fu_ops=localization_fu_ops,
                l1_line_size=localization_config.cpu.l1d.line_size,
                l2_line_size=localization_config.cpu.l2.line_size)
        return stages
