#!/usr/bin/env python
"""Object detection scenario: euclidean clustering over a driving sequence.

This is the workload the paper evaluates (Autoware.ai's euclidean-cluster
node).  The example processes a few frames of a synthetic driving sequence
twice — with the baseline 32-bit radius search and with the K-D Bonsai
compressed search — and reports the detections plus the hardware metrics the
paper's Figures 9, 11 and 12 are built from.

Run with:  python examples/euclidean_cluster_pipeline.py [n_frames]
"""

from __future__ import annotations

import sys

from repro.analysis import compare_measurements, render_fig9a, render_fig9b
from repro.engine import ExecutionConfig
from repro.perception import ClusterConfig, EuclideanClusterExtractor, label_clusters
from repro.perception.cluster_filter import match_clusters_to_labels
from repro.pointcloud import default_sequence, preprocess_for_clustering
from repro.workloads import EuclideanClusterPipeline

PAPER_FIG9A = {
    "execution_time": -0.12,
    "instructions": -0.16,
    "loads": -0.23,
    "stores": -0.18,
    "l1_accesses": -0.14,
    "l1_misses": 0.08,
}


def describe_detections(sequence, frame_index: int) -> None:
    """Run one frame through clustering + labeling and print the detections."""
    cloud = preprocess_for_clustering(sequence.frame(frame_index))
    extractor = EuclideanClusterExtractor(ClusterConfig(tolerance=0.6, min_cluster_size=5),
                                          execution=ExecutionConfig(backend="bonsai-batched"))
    result = extractor.extract(cloud)
    detections = label_clusters(cloud, result.clusters)
    histogram = match_clusters_to_labels(detections)
    print(f"Frame {frame_index}: {len(cloud)} points -> {result.n_clusters} clusters "
          f"({', '.join(f'{count} {label}' for label, count in sorted(histogram.items()))})")


def main() -> None:
    n_frames = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    sequence = default_sequence(n_frames=n_frames)

    print("=== Detections (K-D Bonsai search) ===")
    for frame_index in range(min(n_frames, 3)):
        describe_detections(sequence, frame_index)

    print("\n=== Baseline vs Bonsai hardware metrics ===")
    pipeline = EuclideanClusterPipeline()
    clouds = [sequence.frame(i) for i in range(n_frames)]
    baseline = pipeline.run_frames(clouds, execution=ExecutionConfig(hardware=True))
    bonsai = pipeline.run_frames(
        clouds, execution=ExecutionConfig(backend="bonsai-batched", hardware=True))
    summary = compare_measurements(baseline, bonsai)

    print(render_fig9a(summary, PAPER_FIG9A))
    print()
    print(render_fig9b(summary))
    print()
    print(f"End-to-end latency improvement: "
          f"{summary.latency_improvements['mean_reduction']:.1%} mean, "
          f"{summary.latency_improvements['p99_reduction']:.1%} p99 "
          f"(paper: 9.26% / 12.19%)")
    print(f"Extract-kernel energy improvement: "
          f"{summary.energy_improvements['mean_reduction']:.1%} (paper: 10.84%)")
    print(f"Classifications recomputed in 32-bit: {summary.inconclusive_rate:.2%} "
          f"(paper: 0.37%)")


if __name__ == "__main__":
    main()
