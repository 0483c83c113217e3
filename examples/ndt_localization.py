#!/usr/bin/env python
"""Localization scenario: NDT scan registration on top of k-d tree radius search.

The paper motivates K-D Bonsai with two Autoware tasks: euclidean clustering
(perception) and NDT matching (localization) — Figure 2 shows both spend half
or more of their time in radius search.  This example registers consecutive
synthetic LiDAR scans against a map built from the first frame, using the
simplified NDT matcher, and shows that swapping the baseline radius search
for the Bonsai compressed search leaves the estimated trajectory unchanged
while cutting the bytes fetched from the map tree.

Run with:  python examples/ndt_localization.py
"""

from __future__ import annotations

import numpy as np

from repro.engine import ExecutionConfig
from repro.perception import NDTConfig, NDTMap, NDTMatcher
from repro.pointcloud import default_sequence, preprocess_for_clustering, voxel_grid_filter
from repro.workloads import profile_ndt_matching


def main() -> None:
    sequence = default_sequence(n_frames=4)
    ego_speed = sequence.config.ego_speed_mps
    frame_dt = 1.0 / sequence.config.frame_rate_hz

    # The map: the first frame, down-sampled, expressed in the frame-0 pose.
    map_cloud = voxel_grid_filter(preprocess_for_clustering(sequence.frame(0)), 0.4)
    config = NDTConfig(voxel_size=2.0, search_radius=2.5, max_iterations=15,
                       max_scan_points=250)
    ndt_map = NDTMap(map_cloud, config)
    print(f"NDT map: {len(map_cloud)} points -> {len(ndt_map.voxels)} voxel Gaussians")

    for execution in (ExecutionConfig(), ExecutionConfig(backend="bonsai-batched")):
        matcher = NDTMatcher(NDTMap(map_cloud, config), execution=execution)
        label = "Bonsai-extensions" if execution.use_bonsai else "Baseline"
        print(f"\n=== {label} radius search ===")
        for frame_index in range(1, len(sequence)):
            scan = voxel_grid_filter(preprocess_for_clustering(sequence.frame(frame_index)), 0.4)
            # The vehicle moved forward; scans are in the sensor frame, so the
            # registration must recover the ego displacement along +x.
            expected_dx = ego_speed * frame_dt * frame_index
            result = matcher.register(scan, initial_translation=(expected_dx - 0.4, 0.0, 0.0))
            estimated = result.translation
            error = abs(estimated[0] - expected_dx)
            print(f"  frame {frame_index}: expected dx={expected_dx:5.2f} m, "
                  f"estimated dx={estimated[0]:5.2f} m (|error| {error:4.2f} m, "
                  f"{result.iterations} iterations)")
        stats = matcher.search_stats
        print(f"  radius searches: {stats.queries}, points examined: {stats.points_examined}, "
              f"bytes for leaf points: {stats.point_bytes_loaded / 1e3:.1f} kB")

    share = profile_ndt_matching(sequence.frame(1), map_cloud, config)
    print(f"\nRadius-search share of NDT matching: {share.radius_search_share:.0%} "
          f"(paper Figure 2: 51%)")


if __name__ == "__main__":
    main()
