"""Tests of the workload pipelines: euclidean-cluster harness, profiling, sub-sampling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.pointcloud import (
    DrivingSequence,
    LidarConfig,
    SceneConfig,
    SequenceConfig,
)
from repro.workloads import (
    EuclideanClusterPipeline,
    ExecutionConfig,
    PipelineConfig,
    evaluate_subsampling,
    measure_sequence,
    profile_euclidean_cluster,
    profile_ndt_matching,
)


@pytest.fixture(scope="module")
def tiny_sequence():
    """A very small sequence so pipeline tests stay quick."""
    return DrivingSequence(SequenceConfig(
        n_frames=4,
        scene=SceneConfig(seed=3),
        lidar=LidarConfig(n_beams=16, n_azimuth_steps=180, seed=31),
    ))


@pytest.fixture(scope="module")
def pipeline():
    return EuclideanClusterPipeline()


@pytest.fixture(scope="module")
def baseline_and_bonsai(tiny_sequence, pipeline):
    clouds = [tiny_sequence.frame(i) for i in range(2)]
    baseline = pipeline.run_frames(clouds, execution=ExecutionConfig(hardware=True))
    bonsai = pipeline.run_frames(
        clouds, execution=ExecutionConfig(backend="bonsai-batched", hardware=True))
    return baseline, bonsai


class TestPipeline:
    def test_frame_measurement_fields(self, baseline_and_bonsai):
        baseline, bonsai = baseline_and_bonsai
        m = baseline[0]
        assert m.n_raw_points > m.n_filtered_points > 0
        assert m.n_clusters > 0
        assert m.extract.instructions > 0
        assert m.extract.seconds > 0
        assert m.end_to_end_seconds > m.extract.seconds
        assert m.extract.energy_j > 0
        assert baseline[0].bonsai_stats is None
        assert bonsai[0].bonsai_stats is not None

    def test_bonsai_reduces_first_order_metrics(self, baseline_and_bonsai):
        """Figure 9a directions on the extract kernel."""
        baseline, bonsai = baseline_and_bonsai
        for base, new in zip(baseline, bonsai):
            assert new.extract.loads < base.extract.loads
            assert new.extract.instructions < base.extract.instructions
            assert new.extract.seconds < base.extract.seconds
            assert new.extract.energy_j < base.extract.energy_j
            assert new.end_to_end_seconds < base.end_to_end_seconds

    def test_bonsai_reduces_point_bytes(self, baseline_and_bonsai):
        """Figure 9b direction: far fewer bytes to fetch leaf points."""
        baseline, bonsai = baseline_and_bonsai
        for base, new in zip(baseline, bonsai):
            assert new.point_bytes_loaded < 0.6 * base.point_bytes_loaded

    def test_cluster_count_identical_between_configs(self, baseline_and_bonsai):
        baseline, bonsai = baseline_and_bonsai
        for base, new in zip(baseline, bonsai):
            assert base.n_clusters == new.n_clusters

    def test_compression_report_attached(self, baseline_and_bonsai):
        _, bonsai = baseline_and_bonsai
        assert bonsai[0].compressed_total_bytes is not None
        assert bonsai[0].baseline_point_bytes is not None
        assert bonsai[0].compressed_total_bytes < bonsai[0].baseline_point_bytes

    def test_cache_simulation_can_be_disabled(self, tiny_sequence):
        pipeline = EuclideanClusterPipeline(PipelineConfig(simulate_caches=False))
        measurement = pipeline.run_frame(tiny_sequence.frame(0))
        assert measurement.extract.l1_accesses > 0

    def test_run_frames_indices(self, tiny_sequence, pipeline):
        clouds = [tiny_sequence.frame(i) for i in range(2)]
        measurements = pipeline.run_frames(clouds)
        assert [m.frame_index for m in measurements] == [0, 1]


class TestProfiles:
    def test_euclidean_cluster_share_dominant(self, tiny_sequence):
        """Figure 2: radius search dominates the euclidean-cluster task (~61%)."""
        share = profile_euclidean_cluster(tiny_sequence.frame(0))
        assert 0.35 < share.radius_search_share < 0.9
        assert share.total_cycles > 0

    def test_ndt_share_significant(self, tiny_sequence):
        """Figure 2: radius search is ~51% of NDT matching."""
        map_cloud = tiny_sequence.frame(0)
        scan = tiny_sequence.frame(1)
        share = profile_ndt_matching(scan, map_cloud)
        assert 0.25 < share.radius_search_share < 0.9

    def test_share_fields(self, tiny_sequence):
        share = profile_euclidean_cluster(tiny_sequence.frame(0))
        assert share.task.startswith("Euclidean")
        assert share.radius_search_cycles + share.other_cycles == share.total_cycles


class TestSubsampling:
    def test_measure_sequence_subset(self, tiny_sequence, pipeline):
        measurements = measure_sequence(tiny_sequence, indices=[0, 2], pipeline=pipeline)
        assert [m.frame_index for m in measurements] == [0, 2]

    def test_subsampling_errors_are_small(self, tiny_sequence, pipeline):
        """Table III: systematic sub-sampling tracks the full-sequence metrics."""
        errors = evaluate_subsampling(tiny_sequence, n_samples=2, sample_length=1,
                                      pipeline=pipeline)
        assert errors.n_full_frames == len(tiny_sequence)
        assert errors.n_sampled_frames == 2
        assert 0.0 <= errors.latency_mean_error < 0.25
        assert 0.0 <= errors.ipc_relative_error < 0.25
        assert 0.0 <= errors.l1_miss_ratio_difference < 0.05
        rows = errors.as_rows()
        assert len(rows) == 4


class TestPipelineRunner:
    """Unit behaviour of the end-to-end runner (golden tests cover outcomes)."""

    @pytest.fixture(scope="class")
    def result(self):
        from repro.workloads import PipelineRunner

        return PipelineRunner.from_scenario(
            "urban", n_frames=3, seed=3, n_beams=14, n_azimuth_steps=120).run()

    def test_one_record_per_selected_frame(self, result):
        assert [f.frame_index for f in result.frames] == result.frame_indices
        assert len(result.measurements) == len(result.frames)

    def test_detections_flow_into_tracking(self, result):
        assert all(f.n_detections_kept <= f.n_clusters for f in result.frames)
        assert result.confirmed_tracks_final == result.frames[-1].n_confirmed_tracks
        assert sum(result.track_labels.values()) == result.confirmed_tracks_final

    def test_search_stats_aggregate_over_frames(self, result):
        total_queries = sum(m.search_stats.queries for m in result.measurements)
        assert result.cluster_search.queries == total_queries
        # Every filtered point is searched exactly once by cluster growth.
        assert total_queries == sum(f.n_filtered_points for f in result.frames)

    def test_localization_against_ground_truth(self, result):
        assert result.localization is not None
        assert result.localization.n_scans == 2
        assert 0.0 <= result.localization.mean_error_m \
            <= result.localization.max_error_m < 2.0
        assert result.localization.iterations_total >= 2

    def test_metrics_are_json_serialisable_and_stage_free(self, result):
        import json

        metrics = json.loads(json.dumps(result.metrics()))
        assert "stage_seconds" not in metrics  # wall clock never in golden data
        assert metrics["scenario"] == "urban"
        assert metrics["cluster_search"]["queries"] == result.cluster_search.queries

    def test_n_frames_caps_at_sequence_length(self):
        from repro.workloads import PipelineRunner, PipelineRunnerConfig

        config = PipelineRunnerConfig(n_frames=99, localization=False)
        runner = PipelineRunner.from_scenario(
            "urban", config=config, n_frames=2, n_beams=10, n_azimuth_steps=72)
        assert runner._select_frames() == [0, 1]

    def test_subsample_selects_systematic_windows(self):
        from repro.workloads import PipelineRunner, PipelineRunnerConfig

        config = PipelineRunnerConfig(subsample=(2, 1), localization=False)
        runner = PipelineRunner.from_scenario(
            "urban", config=config, n_frames=6, n_beams=10, n_azimuth_steps=72)
        assert runner._select_frames() == [0, 3]

    def test_stage_seconds_time_every_stage(self, result):
        # Only measured stages are reported; none is pinned at zero.
        assert list(result.stage_seconds) == ["generate", "cluster", "track",
                                              "localize"]
        assert all(seconds > 0.0 for seconds in result.stage_seconds.values())

    def test_bonsai_runner_collects_bonsai_stats(self):
        from repro.workloads import PipelineRunner, PipelineRunnerConfig

        config = PipelineRunnerConfig(
            execution=ExecutionConfig(backend="bonsai-batched"))
        result = PipelineRunner.from_scenario(
            "urban", config=config, n_frames=2, seed=3, n_beams=12,
            n_azimuth_steps=90).run()
        assert result.cluster_bonsai is not None
        assert result.cluster_bonsai.leaf_visits > 0
        assert result.metrics()["cluster_bonsai"]["points_classified"] > 0
