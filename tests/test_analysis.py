"""Tests of the analysis layer: Table I metrics, box plots, comparisons, reports."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    BoxPlotStats,
    ClassificationErrorStats,
    FormatErrorInspector,
    classification_error,
    compare_distributions,
    compare_measurements,
    render_boxplot_figure,
    render_fig2,
    render_fig9a,
    render_fig9b,
    render_fig10,
    render_table,
    render_table1,
    render_table5,
    table1_classification_errors,
)
from repro.core.floatfmt import BFLOAT16, FLOAT16, FLOAT24
from repro.hwmodel import TABLE_V, estimate_bonsai_area
from repro.kdtree import SearchStats, build_kdtree, radius_search
from repro.pointcloud import DrivingSequence, LidarConfig, SceneConfig, SequenceConfig
from repro.workloads import (EuclideanClusterPipeline, ExecutionConfig,
                             profile_euclidean_cluster)


class TestClassificationError:
    def test_baseline_results_preserved(self, frame_tree, filtered_frame):
        inspector = FormatErrorInspector(FLOAT16)
        stats = SearchStats()
        query = filtered_frame[0]
        got = radius_search(frame_tree, query, 0.6, inspector=inspector, stats=stats)
        assert sorted(got) == sorted(radius_search(frame_tree, query, 0.6))

    def test_error_rate_small_for_fp16(self, frame_tree, filtered_frame):
        queries = [filtered_frame[i] for i in range(0, len(filtered_frame), 23)]
        stats = classification_error(frame_tree, queries, 0.6, FLOAT16)
        assert stats.classifications > 1000
        assert stats.error_rate < 0.01

    def test_table1_ordering_matches_paper(self, frame_tree, filtered_frame):
        """Table I: float24 < fp16 < bfloat16 in classification error."""
        queries = [filtered_frame[i] for i in range(0, len(filtered_frame), 17)]
        errors = table1_classification_errors(frame_tree, queries, 0.6)
        assert errors["float24"].error_rate <= errors["ieee_fp16"].error_rate
        assert errors["ieee_fp16"].error_rate <= errors["bfloat16"].error_rate

    def test_error_components_sum(self, frame_tree, filtered_frame):
        queries = [filtered_frame[i] for i in range(0, len(filtered_frame), 31)]
        stats = classification_error(frame_tree, queries, 0.6, BFLOAT16)
        assert stats.false_in + stats.false_out == stats.misclassified

    def test_inspector_reused_across_trees(self):
        """One inspector over two trees tallies what two fresh ones do."""
        rng = np.random.default_rng(5)
        trees = [build_kdtree(rng.uniform(-4.0, 4.0, (200, 3)).astype(np.float32) + offset)
                 for offset in (np.float32(0.0), np.float32(1000.5))]
        shared = FormatErrorInspector(FLOAT16)
        fresh_total = ClassificationErrorStats(FLOAT16.name)
        for tree in trees:
            fresh = FormatErrorInspector(FLOAT16)
            for query in tree.points[:25].astype(np.float64):
                for inspector in (shared, fresh):
                    radius_search(tree, query, 0.8, inspector=inspector)
            fresh_total.merge(fresh.stats)
        assert shared.stats == fresh_total
        assert fresh_total.misclassified > 0

    def test_merge(self):
        a = ClassificationErrorStats("ieee_fp16", classifications=10, misclassified=1)
        b = ClassificationErrorStats("ieee_fp16", classifications=20, misclassified=3)
        a.merge(b)
        assert a.classifications == 30
        assert a.misclassified == 4
        with pytest.raises(ValueError):
            a.merge(ClassificationErrorStats("bfloat16"))

    def test_empty_error_rate(self):
        assert ClassificationErrorStats("ieee_fp16").error_rate == 0.0


class TestBoxPlot:
    def test_summary_statistics(self):
        stats = BoxPlotStats.from_values("x", [1.0, 2.0, 3.0, 4.0, 100.0])
        assert stats.n == 5
        assert stats.mean == pytest.approx(22.0)
        assert stats.median == 3.0
        assert stats.minimum == 1.0
        assert stats.maximum == 100.0
        assert stats.q1 <= stats.median <= stats.q3 <= stats.p99 <= stats.maximum

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BoxPlotStats.from_values("x", [])

    def test_ascii_box_renders(self):
        stats = BoxPlotStats.from_values("x", list(np.linspace(0, 10, 50)))
        box = stats.ascii_box(0.0, 10.0, width=40)
        assert len(box) == 40
        assert "o" in box and "=" in box

    def test_ascii_box_invalid_axis(self):
        stats = BoxPlotStats.from_values("x", [1.0, 2.0])
        with pytest.raises(ValueError):
            stats.ascii_box(5.0, 5.0)

    def test_compare_distributions_improvement(self):
        baseline = [10.0, 11.0, 12.0, 13.0]
        improved = [9.0, 10.0, 10.5, 11.5]
        result = compare_distributions(baseline, improved)
        assert result["mean_reduction"] > 0
        assert result["p99_reduction"] > 0


class TestCompareMeasurements:
    @pytest.fixture(scope="class")
    def summary(self):
        sequence = DrivingSequence(SequenceConfig(
            n_frames=2, scene=SceneConfig(seed=8),
            lidar=LidarConfig(n_beams=16, n_azimuth_steps=180, seed=80)))
        pipeline = EuclideanClusterPipeline()
        clouds = [sequence.frame(i) for i in range(2)]
        baseline = pipeline.run_frames(clouds, execution=ExecutionConfig(hardware=True))
        bonsai = pipeline.run_frames(
            clouds, execution=ExecutionConfig(backend="bonsai-batched", hardware=True))
        return compare_measurements(baseline, bonsai)

    def test_fig9a_directions(self, summary):
        assert summary.fig9a["loads"].relative_change < 0
        assert summary.fig9a["instructions"].relative_change < 0
        assert summary.fig9a["execution_time"].relative_change < 0

    def test_fig9b_fraction(self, summary):
        assert 0.2 < summary.bytes_fraction < 0.6

    def test_latency_and_energy_improve(self, summary):
        assert summary.latency_improvements["mean_reduction"] > 0
        assert summary.energy_improvements["mean_reduction"] > 0

    def test_inconclusive_rate_small(self, summary):
        assert 0.0 <= summary.inconclusive_rate < 0.02

    def test_mean_visits_per_leaf_positive(self, summary):
        assert summary.mean_visits_per_leaf > 1.0

    def test_mismatched_lengths_rejected(self, summary):
        from repro.analysis.compare import compare_measurements as cmp
        with pytest.raises(ValueError):
            cmp([], [None])  # type: ignore[list-item]

    def test_renderers_produce_text(self, summary):
        assert "Figure 9a" in render_fig9a(summary, {"loads": -0.23})
        assert "Figure 9b" in render_fig9b(summary)
        assert "Figure 10" in render_fig10(summary)
        text = render_boxplot_figure("Figure 11", summary.latency_baseline,
                                     summary.latency_bonsai,
                                     summary.latency_improvements, 0.0926, " s")
        assert "Mean improvement" in text


class TestRenderers:
    def test_render_table_alignment(self):
        text = render_table(("a", "bb"), [("1", "2"), ("333", "4")], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert all(len(line) == len(lines[1]) for line in lines[1:])

    def test_render_table1(self, frame_tree, filtered_frame):
        queries = [filtered_frame[i] for i in range(0, len(filtered_frame), 201)]
        errors = table1_classification_errors(frame_tree, queries, 0.6, [FLOAT16])
        text = render_table1(errors, {"ieee_fp16": 0.00076})
        assert "Table I" in text
        assert "ieee_fp16" in text

    def test_render_fig2(self, lidar_frame):
        share = profile_euclidean_cluster(lidar_frame)
        text = render_fig2([share], {share.task: 0.61})
        assert "Figure 2" in text
        assert "61.00%" in text

    def test_render_table5(self):
        text = render_table5(estimate_bonsai_area(), TABLE_V)
        assert "Table V" in text
        assert "0.0511" in text


class TestHardwareSweepResultModes:
    """A sweep result pairs the baseline run with the Bonsai run."""

    @staticmethod
    def _result():
        from repro.analysis.hw_sweep import (
            SWEEP_BACKENDS, SWEEP_MODES, HardwareScenarioRun, HardwareSweepResult)

        runs = [
            HardwareScenarioRun(scenario="urban", mode=mode,
                                metrics={"backend": backend}, backend=backend)
            for backend, mode in zip(SWEEP_BACKENDS, SWEEP_MODES)
        ]
        return HardwareSweepResult(runs=runs, n_frames=1, n_beams=8,
                                   n_azimuth_steps=64)

    def test_default_backends_keep_short_labels(self):
        result = self._result()
        baseline, bonsai = result.pair("urban")
        assert (baseline.mode, bonsai.mode) == ("baseline", "bonsai")
        assert (baseline.backend, bonsai.backend) == (
            "baseline-batched", "bonsai-batched")
        assert set(result.as_dict()["scenarios"]["urban"]) == {
            "baseline", "bonsai"}
