"""Tests of the cluster tracker (frame-to-frame association)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.perception import ClusterTracker, TrackerConfig
from repro.perception.cluster_filter import DetectedObject
from repro.pointcloud.cloud import BoundingBox


def _detection(cluster_id: int, center, label: str = "vehicle",
               size=(4.0, 2.0, 1.6)) -> DetectedObject:
    center = np.asarray(center, dtype=np.float64)
    half = 0.5 * np.asarray(size, dtype=np.float64)
    return DetectedObject(
        cluster_id=cluster_id,
        centroid=center,
        bbox=BoundingBox(center - half, center + half),
        n_points=50,
        label=label,
    )


def _pair_loop_associate(tracker, detections, dt):
    """The scalar pair loop, the oracle of ``ClusterTracker._associate``."""
    if not detections or not tracker._tracks:
        return []
    candidates = []
    for track_id, track in tracker._tracks.items():
        predicted = track.predict(dt)
        for detection_index, detection in enumerate(detections):
            distance = float(np.linalg.norm(predicted - detection.centroid))
            if distance <= tracker.config.gating_distance:
                candidates.append((distance, track_id, detection_index))
    candidates.sort()
    assignments = []
    used_tracks, used_detections = set(), set()
    for _, track_id, detection_index in candidates:
        if track_id in used_tracks or detection_index in used_detections:
            continue
        assignments.append((track_id, detection_index))
        used_tracks.add(track_id)
        used_detections.add(detection_index)
    return assignments


class TestAssociateMatchesPairLoop:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_frames(self, seed):
        """Noisy and lattice centroids (distance ties), float32 and float64."""
        rng = np.random.default_rng(seed)
        tracker = ClusterTracker(TrackerConfig(gating_distance=float(rng.uniform(0.5, 4.0)),
                                               max_misses=2))
        dtype = np.float32 if seed % 2 else np.float64
        for step in range(8):
            n = int(rng.integers(0, 40))
            if seed % 3 == 0:
                centers = rng.integers(-4, 5, size=(n, 3)) * 0.5
            else:
                centers = rng.normal(0.0, 8.0, size=(n, 3))
            detections = [_detection(i, c.astype(dtype)) for i, c in enumerate(centers)]
            dt = 0.1 * (step % 3)
            assert tracker._associate(detections, dt) == _pair_loop_associate(
                tracker, detections, dt)
            tracker.update(detections, timestamp=0.1 * step)

    def test_gate_sees_the_pair_loop_distance(self):
        """Detections within an ulp or two of the gate, one at a time."""
        rng = np.random.default_rng(11)
        tracker = ClusterTracker(TrackerConfig(gating_distance=2.0, confirmation_hits=1))
        origin = np.array([0.3, -0.2, 0.1])
        tracker.update([_detection(0, origin)], timestamp=0.0)
        directions = rng.normal(size=(400, 3))
        centers = origin + 2.0 * directions / np.linalg.norm(directions, axis=1, keepdims=True)
        associated = 0
        for center in centers:
            detections = [_detection(0, center)]
            assignments = tracker._associate(detections, 0.0)
            assert assignments == _pair_loop_associate(tracker, detections, 0.0)
            associated += len(assignments)
        assert 0 < associated < len(centers)

    def test_detection_exactly_at_the_gate(self):
        tracker = ClusterTracker(TrackerConfig(gating_distance=2.0, confirmation_hits=1))
        tracker.update([_detection(0, (0, 0, 0)), _detection(1, (10, 0, 0))], timestamp=0.0)
        detections = [_detection(0, (10.0, 2.0, 0.0)), _detection(1, (2.0, 0.0, 0.0)),
                      _detection(2, (0.0, 1.2, 1.6))]
        assignments = tracker._associate(detections, 0.0)
        assert assignments == _pair_loop_associate(tracker, detections, 0.0)
        assert (0, 1) in assignments and (1, 0) in assignments


class TestTrackLifecycle:
    def test_new_detections_spawn_tentative_tracks(self):
        tracker = ClusterTracker()
        confirmed = tracker.update([_detection(0, (10, 0, 0))], timestamp=0.0)
        assert confirmed == []
        assert len(tracker.tracks) == 1
        assert not tracker.tracks[0].confirmed

    def test_track_confirmed_after_enough_hits(self):
        tracker = ClusterTracker(TrackerConfig(confirmation_hits=2))
        tracker.update([_detection(0, (10, 0, 0))], timestamp=0.0)
        confirmed = tracker.update([_detection(0, (10.1, 0, 0))], timestamp=0.1)
        assert len(confirmed) == 1
        assert confirmed[0].hits == 2

    def test_track_dropped_after_misses(self):
        tracker = ClusterTracker(TrackerConfig(max_misses=2))
        tracker.update([_detection(0, (10, 0, 0))], timestamp=0.0)
        for step in range(1, 4):
            tracker.update([], timestamp=0.1 * step)
        assert tracker.tracks == []

    def test_track_survives_single_miss(self):
        tracker = ClusterTracker(TrackerConfig(confirmation_hits=1, max_misses=2))
        tracker.update([_detection(0, (10, 0, 0))], timestamp=0.0)
        tracker.update([], timestamp=0.1)
        confirmed = tracker.update([_detection(0, (10.2, 0, 0))], timestamp=0.2)
        assert len(confirmed) == 1
        assert len(tracker.tracks) == 1

    def test_track_ids_are_stable_and_unique(self):
        tracker = ClusterTracker(TrackerConfig(confirmation_hits=1))
        tracker.update([_detection(0, (0, 0, 0)), _detection(1, (20, 0, 0))], timestamp=0.0)
        ids_first = sorted(t.track_id for t in tracker.tracks)
        tracker.update([_detection(0, (0.2, 0, 0)), _detection(1, (20.2, 0, 0))],
                       timestamp=0.1)
        ids_second = sorted(t.track_id for t in tracker.tracks)
        assert ids_first == ids_second
        assert len(set(ids_first)) == 2


class TestAssociation:
    def test_detections_associated_to_nearest_track(self):
        tracker = ClusterTracker(TrackerConfig(confirmation_hits=1))
        tracker.update([_detection(0, (0, 0, 0)), _detection(1, (10, 0, 0))], timestamp=0.0)
        tracker.update([_detection(0, (0.3, 0, 0)), _detection(1, (10.3, 0, 0))],
                       timestamp=0.1)
        centroids = sorted(t.centroid[0] for t in tracker.tracks)
        assert centroids == pytest.approx([0.3, 10.3])
        assert len(tracker.tracks) == 2

    def test_gating_prevents_wild_association(self):
        tracker = ClusterTracker(TrackerConfig(gating_distance=1.0, confirmation_hits=1))
        tracker.update([_detection(0, (0, 0, 0))], timestamp=0.0)
        tracker.update([_detection(0, (30, 0, 0))], timestamp=0.1)
        # The far detection spawns a new track instead of teleporting the old one.
        assert len(tracker.tracks) == 2

    def test_each_detection_used_once(self):
        tracker = ClusterTracker(TrackerConfig(confirmation_hits=1, gating_distance=5.0))
        tracker.update([_detection(0, (0, 0, 0)), _detection(1, (1.0, 0, 0))], timestamp=0.0)
        tracker.update([_detection(0, (0.5, 0, 0))], timestamp=0.1)
        hit_counts = sorted(t.hits for t in tracker.tracks)
        assert hit_counts == [1, 2]


class TestVelocityEstimation:
    def test_constant_velocity_recovered(self):
        tracker = ClusterTracker(TrackerConfig(confirmation_hits=1, velocity_smoothing=1.0))
        speed = 5.0
        dt = 0.1
        for step in range(5):
            tracker.update([_detection(0, (speed * dt * step, 0, 0))], timestamp=dt * step)
        track = tracker.tracks[0]
        assert track.velocity[0] == pytest.approx(speed, rel=0.05)
        assert track.speed == pytest.approx(speed, rel=0.05)

    def test_prediction_follows_velocity(self):
        tracker = ClusterTracker(TrackerConfig(confirmation_hits=1, velocity_smoothing=1.0))
        tracker.update([_detection(0, (0, 0, 0))], timestamp=0.0)
        tracker.update([_detection(0, (1.0, 0, 0))], timestamp=1.0)
        track = tracker.tracks[0]
        assert track.predict(1.0)[0] == pytest.approx(2.0, rel=0.05)

    def test_stationary_object_near_zero_velocity(self):
        tracker = ClusterTracker(TrackerConfig(confirmation_hits=1))
        for step in range(4):
            tracker.update([_detection(0, (10.0, 5.0, 0.0))], timestamp=0.1 * step)
        assert tracker.tracks[0].speed < 1e-9


class TestBoundaryBehaviour:
    """Threshold semantics at exactly the configured boundary values."""

    def test_detection_at_exact_gating_distance_is_associated(self):
        tracker = ClusterTracker(TrackerConfig(gating_distance=2.0, confirmation_hits=1))
        tracker.update([_detection(0, (0, 0, 0))], timestamp=0.0)
        tracker.update([_detection(0, (2.0, 0, 0))], timestamp=0.1)
        assert len(tracker.tracks) == 1
        assert tracker.tracks[0].hits == 2

    def test_detection_just_beyond_gate_spawns_new_track(self):
        tracker = ClusterTracker(TrackerConfig(gating_distance=2.0, confirmation_hits=1))
        tracker.update([_detection(0, (0, 0, 0))], timestamp=0.0)
        tracker.update([_detection(0, (2.0 + 1e-6, 0, 0))], timestamp=0.1)
        assert len(tracker.tracks) == 2

    def test_confirmation_exactly_at_threshold(self):
        tracker = ClusterTracker(TrackerConfig(confirmation_hits=3))
        tracker.update([_detection(0, (0, 0, 0))], timestamp=0.0)
        tracker.update([_detection(0, (0.1, 0, 0))], timestamp=0.1)
        assert not tracker.tracks[0].confirmed  # 2 hits < 3
        confirmed = tracker.update([_detection(0, (0.2, 0, 0))], timestamp=0.2)
        assert len(confirmed) == 1  # exactly 3 hits

    def test_confirmation_hits_of_one_confirms_at_spawn(self):
        tracker = ClusterTracker(TrackerConfig(confirmation_hits=1))
        confirmed = tracker.update([_detection(0, (0, 0, 0))], timestamp=0.0)
        assert len(confirmed) == 1

    def test_track_survives_exactly_max_misses(self):
        tracker = ClusterTracker(TrackerConfig(confirmation_hits=1, max_misses=2))
        tracker.update([_detection(0, (0, 0, 0))], timestamp=0.0)
        tracker.update([], timestamp=0.1)
        tracker.update([], timestamp=0.2)
        assert len(tracker.tracks) == 1  # misses == max_misses: still alive
        tracker.update([], timestamp=0.3)
        assert tracker.tracks == []  # misses > max_misses: dropped

    def test_same_timestamp_update_is_safe(self):
        tracker = ClusterTracker(TrackerConfig(confirmation_hits=1, velocity_smoothing=1.0))
        tracker.update([_detection(0, (0, 0, 0))], timestamp=1.0)
        tracker.update([_detection(0, (0.5, 0, 0))], timestamp=1.0)
        track = tracker.tracks[0]
        assert track.hits == 2
        assert track.speed == 0.0  # dt == 0: velocity untouched, no div-by-zero

    def test_out_of_order_timestamp_clamps_dt(self):
        tracker = ClusterTracker(TrackerConfig(confirmation_hits=1, velocity_smoothing=1.0))
        tracker.update([_detection(0, (0, 0, 0))], timestamp=1.0)
        tracker.update([_detection(0, (0.1, 0, 0))], timestamp=0.5)
        assert np.all(np.isfinite(tracker.tracks[0].velocity))
        assert tracker.tracks[0].speed == 0.0

    def test_tracks_spawned_counts_dropped_tracks(self):
        tracker = ClusterTracker(TrackerConfig(confirmation_hits=1, max_misses=0))
        tracker.update([_detection(0, (0, 0, 0))], timestamp=0.0)
        tracker.update([], timestamp=0.1)  # dropped immediately
        tracker.update([_detection(0, (50, 0, 0))], timestamp=0.2)
        assert tracker.tracks_spawned == 2
        assert len(tracker.tracks) == 1


class TestOnClusteringOutput:
    def test_tracking_over_synthetic_sequence(self, small_sequence):
        """End-to-end: cluster each frame, track detections across frames."""
        from repro.engine import ExecutionConfig
        from repro.perception import ClusterConfig, EuclideanClusterExtractor, label_clusters
        from repro.pointcloud import preprocess_for_clustering

        tracker = ClusterTracker(TrackerConfig(gating_distance=3.0, confirmation_hits=2))
        extractor = EuclideanClusterExtractor(
            ClusterConfig(tolerance=0.6, min_cluster_size=5),
            execution=ExecutionConfig(backend="bonsai-batched"))
        confirmed_history = []
        for index in range(len(small_sequence)):
            cloud = preprocess_for_clustering(small_sequence.frame(index))
            result = extractor.extract(cloud)
            detections = label_clusters(cloud, result.clusters)
            confirmed = tracker.update(detections, timestamp=index * 0.1)
            confirmed_history.append(len(confirmed))
        # After the first couple of frames, persistent scene objects are tracked.
        assert confirmed_history[-1] > 0
        assert max(t.age for t in tracker.tracks) >= 2

    def test_tracking_through_pipeline_runner_scenarios(self):
        """Association across frames on a scenario with slow-moving actors."""
        from repro.workloads import PipelineRunner, PipelineRunnerConfig

        config = PipelineRunnerConfig(localization=False)
        result = PipelineRunner.from_scenario(
            "parking_lot", config=config, n_frames=4,
            n_beams=14, n_azimuth_steps=120).run()
        # Persistent parked vehicles must survive association across frames.
        assert result.confirmed_tracks_final > 0
        assert result.tracks_spawned >= result.confirmed_tracks_final
        assert "vehicle" in result.track_labels
        # Track counts per frame are monotone-ish: confirmations need 2 hits,
        # so frame 0 can have none and later frames must have some.
        assert result.frames[0].n_confirmed_tracks == 0
        assert result.frames[-1].n_confirmed_tracks > 0
