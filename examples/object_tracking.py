#!/usr/bin/env python
"""Perception scenario: detect and track objects across a driving sequence.

The euclidean-cluster node the paper accelerates feeds a tracker in a real
perception stack.  This example runs the full chain on the synthetic sequence
— pre-processing, K-D Bonsai clustering, labeling, frame-to-frame tracking —
and prints the confirmed tracks with their estimated velocities, showing how
the compressed radius search slots into a complete perception pipeline
without changing its outputs.

Run with:  python examples/object_tracking.py [n_frames]
"""

from __future__ import annotations

import sys

import numpy as np

from repro.engine import ExecutionConfig
from repro.perception import (
    ClusterConfig,
    ClusterTracker,
    EuclideanClusterExtractor,
    TrackerConfig,
    label_clusters,
)
from repro.pointcloud import default_sequence, preprocess_for_clustering


def main() -> None:
    n_frames = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    sequence = default_sequence(n_frames=n_frames)
    frame_dt = 1.0 / sequence.config.frame_rate_hz

    extractor = EuclideanClusterExtractor(
        ClusterConfig(tolerance=0.6, min_cluster_size=5),
        execution=ExecutionConfig(backend="bonsai-batched"),
    )
    tracker = ClusterTracker(TrackerConfig(gating_distance=3.0, confirmation_hits=2))

    total_recomputed = 0
    total_classified = 0
    for frame_index in range(n_frames):
        cloud = preprocess_for_clustering(sequence.frame(frame_index))
        result = extractor.extract(cloud)
        detections = label_clusters(cloud, result.clusters)
        confirmed = tracker.update(detections, timestamp=frame_index * frame_dt)
        stats = result.bonsai.bonsai_stats
        total_recomputed += stats.inconclusive
        total_classified += stats.points_classified
        print(f"frame {frame_index}: {len(cloud):5d} points, "
              f"{result.n_clusters:3d} clusters, {len(confirmed):3d} confirmed tracks")

    print("\n=== Confirmed tracks after the sequence ===")
    for track in sorted(tracker.confirmed_tracks, key=lambda t: t.track_id):
        position = np.round(track.centroid, 1)
        print(f"  track {track.track_id:3d}: {track.label:10s} at {position}, "
              f"speed {track.speed:4.1f} m/s, age {track.age} frames, "
              f"{track.hits} hits")

    # The tracker consumed detections produced by the compressed search; the
    # shell guarantees they are identical to the 32-bit baseline's.
    rate = total_recomputed / total_classified if total_classified else 0.0
    print(f"\nClassifications recomputed in 32-bit across the sequence: {rate:.2%} "
          f"(paper reports 0.37%)")


if __name__ == "__main__":
    main()
