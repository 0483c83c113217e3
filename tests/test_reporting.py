"""Edge-case tests of the analysis table renderers and comparison aggregates.

``test_analysis.py`` exercises the renderers on full pipeline output; this
file locks down the edges the benchmarks never hit: empty inputs, single
rows, zero baselines, and the hardware-matrix renderer.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    BoxPlotStats,
    ComparisonSummary,
    MetricComparison,
    compare_measurements,
    render_boxplot_figure,
    render_fig9a,
    render_fig9b,
    render_fig10,
    render_hw_matrix,
    render_table,
)
from repro.analysis.hw_sweep import (
    HardwareScenarioRun,
    HardwareSweepResult,
)
from repro.workloads import EuclideanClusterPipeline, ExecutionConfig


def _stage(bytes_loaded=1000, cycles=100.0, energy=1.0, l1=0.01, dram=64):
    return {
        "l1_miss_ratio": l1,
        "bytes_loaded": bytes_loaded,
        "dram_to_l2_bytes": dram,
        "cycles": cycles,
        "energy_j": energy,
    }


def _sweep(baseline_stage, bonsai_stage):
    runs = [
        HardwareScenarioRun("world", "baseline",
                            {"hardware": {"clustering": baseline_stage}}),
        HardwareScenarioRun("world", "bonsai",
                            {"hardware": {"clustering": bonsai_stage}}),
    ]
    return HardwareSweepResult(runs=runs, n_frames=1, n_beams=8, n_azimuth_steps=60)


class TestRenderTable:
    def test_no_rows_renders_headers_only(self):
        text = render_table(("a", "b"), [])
        lines = text.splitlines()
        assert len(lines) == 2  # header + separator, no data rows
        assert lines[0].startswith("a")

    def test_single_row(self):
        text = render_table(("metric", "value"), [("x", 1)], title="T")
        lines = text.splitlines()
        assert len(lines) == 4
        assert "x" in lines[3] and "1" in lines[3]

    def test_wide_cell_expands_column(self):
        text = render_table(("a",), [("wider-than-header",)])
        header, separator, row = text.splitlines()
        assert len(header) == len(separator) == len(row)


class TestMetricComparisonEdges:
    def test_zero_baseline_reports_zero_change(self):
        assert MetricComparison("m", baseline=0.0, bonsai=5.0).relative_change == 0.0

    def test_reduction_is_negative(self):
        assert MetricComparison("m", 10.0, 7.0).relative_change == pytest.approx(-0.3)


class TestCompareMeasurementsEdges:
    def test_empty_inputs_rejected(self):
        # Distribution statistics are undefined over zero frames; the
        # aggregate refuses instead of emitting NaNs.
        with pytest.raises(ValueError):
            compare_measurements([], [])

    def test_single_frame_pair(self, lidar_frame):
        pipeline = EuclideanClusterPipeline()
        baseline = [pipeline.run_frame(
            lidar_frame, execution=ExecutionConfig(hardware=True))]
        bonsai = [pipeline.run_frame(
            lidar_frame, execution=ExecutionConfig(backend="bonsai-batched", hardware=True))]
        summary = compare_measurements(baseline, bonsai)
        assert summary.latency_baseline.n == 1
        assert summary.latency_baseline.mean == summary.latency_baseline.p99
        assert 0.0 < summary.bytes_fraction < 1.0
        # Single-row summaries must render without errors.
        assert "Figure 9a" in render_fig9a(summary)
        assert "Figure 10" in render_fig10(summary)
        text = render_boxplot_figure(
            "Figure 11", summary.latency_baseline, summary.latency_bonsai,
            summary.latency_improvements, unit=" s")
        assert "Mean improvement" in text


class TestRenderFig9bEdges:
    def test_zero_baseline_bytes(self):
        stats = BoxPlotStats.from_values("x", [1.0])
        summary = ComparisonSummary(
            fig9a={}, fig10={}, latency_baseline=stats, latency_bonsai=stats,
            latency_improvements={"mean_reduction": 0.0, "p99_reduction": 0.0},
            energy_baseline=stats, energy_bonsai=stats,
            energy_improvements={"mean_reduction": 0.0, "p99_reduction": 0.0},
            bytes_baseline=0, bytes_bonsai=0,
            inconclusive_rate=0.0, mean_visits_per_leaf=0.0)
        assert summary.bytes_fraction == 1.0
        assert "100.00%" in render_fig9b(summary)


class TestRenderHwMatrix:
    def test_single_scenario_single_stage(self):
        sweep = _sweep(_stage(bytes_loaded=1000, cycles=100.0, energy=2.0),
                       _stage(bytes_loaded=600, cycles=80.0, energy=1.5))
        text = render_hw_matrix(sweep)
        assert "Hardware scenario matrix" in text
        assert "world" in text and "clustering" in text
        assert "-40.00%" in text  # byte change
        assert "-20.00%" in text  # cycle change
        assert "-25.00%" in text  # energy change

    def test_zero_baseline_values(self):
        sweep = _sweep(_stage(bytes_loaded=0, cycles=0.0, energy=0.0, dram=0),
                       _stage(bytes_loaded=0, cycles=0.0, energy=0.0, dram=0))
        text = render_hw_matrix(sweep)
        assert "+0.00%" in text  # all changes report zero, no division error

    def test_pair_missing_mode_raises(self):
        sweep = HardwareSweepResult(
            runs=[HardwareScenarioRun("world", "baseline", {"hardware": {}})],
            n_frames=1, n_beams=8, n_azimuth_steps=60)
        with pytest.raises(KeyError, match="missing modes"):
            sweep.pair("world")

    def test_as_dict_structure(self):
        sweep = _sweep(_stage(bytes_loaded=1000), _stage(bytes_loaded=600))
        data = sweep.as_dict()
        assert data["preset"] == {"n_frames": 1, "n_beams": 8,
                                  "n_azimuth_steps": 60}
        assert set(data["scenarios"]) == {"world"}
        assert set(data["scenarios"]["world"]) == {"baseline", "bonsai"}
        assert (data["scenarios"]["world"]["bonsai"]["hardware"]["clustering"]
                ["bytes_loaded"]) == 600
        # The report must be JSON-serialisable as promised.
        import json
        assert json.loads(json.dumps(data)) == data
