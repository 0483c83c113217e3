"""Tests of the hardware-in-the-loop pipeline mode and its building blocks.

The golden snapshots (``test_golden_hardware.py``) pin exact values per
scenario; this file tests the machinery itself: the recorder-path NDT
matcher, the per-stage report construction, and the runner's ``hardware``
flag semantics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hwmodel import (
    EnergyModel,
    HierarchyRecorder,
    HierarchyStats,
    StageHardwareReport,
    TimingModel,
)
from repro.perception.ndt import NDTConfig, NDTMap, NDTMatcher
from repro.pointcloud.filters import voxel_grid_filter
from repro.workloads import ExecutionConfig, PipelineRunner, PipelineRunnerConfig

PRESET = dict(n_frames=3, seed=7, n_beams=14, n_azimuth_steps=120)


@pytest.fixture(scope="module")
def ndt_map(small_sequence):
    cloud = voxel_grid_filter(small_sequence.frame(0), 0.4)
    return NDTMap(cloud, NDTConfig(voxel_size=3.0, min_points_per_voxel=2,
                                   max_scan_points=120))


class TestNDTRecorderPath:
    """The recorder-path matcher must reproduce the batched matcher exactly."""

    @pytest.mark.parametrize("use_bonsai", [False, True])
    def test_registration_identical(self, ndt_map, small_sequence, use_bonsai):
        scan = voxel_grid_filter(small_sequence.frame(1), 0.4)
        execution = ExecutionConfig(
            backend="bonsai-batched" if use_bonsai else "baseline-batched")
        batched = NDTMatcher(ndt_map, execution=execution)
        recorded = NDTMatcher(ndt_map, execution=execution,
                              recorder=HierarchyRecorder())
        a = batched.register(scan, initial_translation=(0.3, 0.2, 0.0))
        b = recorded.register(scan, initial_translation=(0.3, 0.2, 0.0))
        assert a.iterations == b.iterations
        assert a.converged == b.converged
        # Same hits in the same (index-sorted) order => bitwise-equal floats.
        np.testing.assert_array_equal(a.translation, b.translation)
        assert a.final_score == b.final_score

    def test_search_stats_aggregate_identically(self, ndt_map, small_sequence):
        scan = voxel_grid_filter(small_sequence.frame(1), 0.4)
        batched = NDTMatcher(ndt_map)
        recorded = NDTMatcher(ndt_map, recorder=HierarchyRecorder())
        batched.register(scan)
        recorded.register(scan)
        for name in ("queries", "leaves_visited", "points_examined",
                     "points_in_radius", "point_bytes_loaded"):
            assert getattr(recorded.search_stats, name) == \
                getattr(batched.search_stats, name), name

    def test_recorder_sees_the_traffic(self, ndt_map, small_sequence):
        scan = voxel_grid_filter(small_sequence.frame(1), 0.4)
        recorder = HierarchyRecorder()
        NDTMatcher(ndt_map, recorder=recorder).register(scan)
        assert recorder.stats.loads > 0
        assert recorder.stats.l1_accesses > 0
        assert recorder.stats.bytes_loaded > 0


class TestStageHardwareReport:
    def test_from_trace_and_ratios(self):
        stats = HierarchyStats(l1_accesses=100, l1_misses=10, l2_accesses=10,
                               l2_misses=4, memory_accesses=4, loads=90,
                               stores=10, bytes_loaded=900, bytes_stored=100)
        report = StageHardwareReport.from_trace(
            "stage", stats, instructions=1000,
            timing=TimingModel(), energy=EnergyModel())
        assert report.l1_miss_ratio == pytest.approx(0.1)
        assert report.l2_miss_ratio == pytest.approx(0.4)
        assert report.l2_to_l1_bytes == 10 * 64
        assert report.dram_to_l2_bytes == 4 * 64
        assert report.cycles > 0 and report.seconds > 0 and report.energy_j > 0

    def test_empty_trace(self):
        report = StageHardwareReport.from_trace(
            "idle", HierarchyStats(), instructions=0,
            timing=TimingModel(), energy=EnergyModel())
        assert report.l1_miss_ratio == 0.0
        assert report.l2_miss_ratio == 0.0
        assert report.cycles == 0.0
        assert report.energy_j == 0.0

    def test_distinct_line_sizes_per_level(self):
        stats = HierarchyStats(l1_accesses=10, l1_misses=3, l2_accesses=3,
                               l2_misses=2, memory_accesses=2, loads=10,
                               bytes_loaded=100)
        report = StageHardwareReport.from_trace(
            "s", stats, 100, TimingModel(), EnergyModel(),
            l1_line_size=32, l2_line_size=128)
        assert report.l2_to_l1_bytes == 3 * 32
        assert report.dram_to_l2_bytes == 2 * 128

    def test_as_metrics_roundtrips_fields(self):
        stats = HierarchyStats(l1_accesses=2, l1_misses=1, l2_accesses=1,
                               l2_misses=1, memory_accesses=1, loads=2,
                               bytes_loaded=32)
        metrics = StageHardwareReport.from_trace(
            "s", stats, 10, TimingModel(), EnergyModel()).as_metrics()
        assert metrics["l1_accesses"] == 2
        assert metrics["l1_miss_ratio"] == 0.5
        assert metrics["dram_to_l2_bytes"] == 64


class TestHardwareRunnerFlag:
    def test_off_by_default_no_hardware_key(self):
        result = PipelineRunner.from_scenario("urban", **PRESET).run()
        assert result.hardware_stages is None
        assert "hardware" not in result.metrics()

    def test_from_scenario_hardware_override(self):
        config = PipelineRunnerConfig(execution=ExecutionConfig(hardware=True))
        runner = PipelineRunner.from_scenario("urban", config=config, **PRESET)
        assert runner.config is config
        assert runner.config.execution.hardware is True
        assert PipelineRunnerConfig().execution.hardware is False

    def test_hardware_stage_structure(self):
        config = PipelineRunnerConfig(execution=ExecutionConfig(hardware=True))
        result = PipelineRunner.from_scenario("urban", config=config, **PRESET).run()
        assert set(result.hardware_stages) == {"clustering", "localization"}
        metrics = result.metrics()["hardware"]
        for stage in ("clustering", "localization"):
            assert metrics[stage]["l1_accesses"] > 0
            assert metrics[stage]["bytes_loaded"] > 0
        # Per-frame traces were preserved for downstream analysis.
        assert all(m.hierarchy is not None for m in result.measurements)

    def test_no_localization_no_stage(self):
        config = PipelineRunnerConfig(execution=ExecutionConfig(hardware=True),
                                      localization=False)
        result = PipelineRunner.from_scenario("urban", config=config, **PRESET).run()
        assert set(result.hardware_stages) == {"clustering"}

    def test_localization_stage_uses_its_own_machine_config(self):
        """A custom localization cache geometry must govern that stage's
        trace and line-fill conversion (not the clustering machine's)."""
        from repro.hwmodel import CacheConfig, CPUConfig
        from repro.workloads.localization import LocalizationConfig
        from repro.workloads.pipeline import _default_localization_config

        wide_l2 = CacheConfig(size_bytes=1024 * 1024, associativity=16,
                              line_size=128, name="L2")
        custom = LocalizationConfig(
            ndt=_default_localization_config().ndt,
            cpu=CPUConfig(l2=wide_l2))
        config = PipelineRunnerConfig(execution=ExecutionConfig(hardware=True),
                                      localization_config=custom)
        result = PipelineRunner.from_scenario("urban", config=config, **PRESET).run()
        loc = result.hardware_stages["localization"]
        assert loc.dram_to_l2_bytes == loc.memory_accesses * 128
        cluster = result.hardware_stages["clustering"]
        assert cluster.dram_to_l2_bytes == cluster.memory_accesses * 64

    def test_batched_mode_records_no_hierarchy(self):
        result = PipelineRunner.from_scenario("urban", **PRESET).run()
        assert all(m.hierarchy is None for m in result.measurements)
