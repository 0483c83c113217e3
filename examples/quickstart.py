#!/usr/bin/env python
"""Quickstart: compress a k-d tree and run a guaranteed-accuracy radius search.

This example walks through the core K-D Bonsai flow on a synthetic LiDAR
frame:

1. generate a point cloud with the synthetic HDL-64E model;
2. pre-process it the way Autoware's euclidean-cluster node does;
3. index it once with :class:`repro.PointCloudIndex` and look at the
   compression opportunity (sign/exponent sharing over IEEE fp16
   coordinates);
4. run one radius-search batch through each of the two *named execution
   backends* — the 32-bit baseline and the compressed (Bonsai) search — and
   verify the results are identical while the compressed backend loads far
   fewer bytes.

Backends are selected by registry name (``repro.backend_names()``); no
concrete search class is imported here.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import PointCloudIndex, backend_names
from repro.core import leaf_similarity
from repro.pointcloud import default_sequence, preprocess_for_clustering


def main() -> None:
    # 1. A synthetic LiDAR frame (urban scene, bounded ~120 m sensor range).
    sequence = default_sequence(n_frames=1)
    raw = sequence.frame(0)
    print(f"Raw LiDAR frame:        {len(raw):6d} points, "
          f"max range {raw.max_range():.1f} m")

    # 2. Autoware-style pre-processing (crop, ground removal, voxel filter).
    cloud = preprocess_for_clustering(raw)
    print(f"After pre-processing:   {len(cloud):6d} points")

    # 3. Index the cloud once (15 points per leaf, PCL default) and look at
    #    the compression opportunity the paper identifies in Section III-A.
    with PointCloudIndex(cloud) as index:
        similarity = leaf_similarity(index.tree)
        print(f"K-d tree:               {index.n_leaves} leaves, depth {index.tree.depth()}")
        print("Leaves sharing <sign, exponent> per coordinate: "
              + ", ".join(f"{coord}={rate:.0%}" for coord, rate in similarity.share_rates.items()))
        print(f"Registered backends:    {', '.join(backend_names())}")

        # 4. Search through two named backends.  The first Bonsai query triggers
        #    the lazy leaf compression (what the Bonsai-extensions do at tree
        #    build time); results are guaranteed identical to the baseline.
        baseline = index.backend("baseline-batched")
        bonsai = index.backend("bonsai-batched")
        print(f"Compressed leaf bytes:  {index.compression_report.compressed_bytes} "
              f"({index.compression_report.compression_ratio:.0%} of the 32-bit baseline)")

        radius = 0.6
        queries = cloud.points[::10]
        expected = baseline.radius_search(queries, radius).as_lists()
        compressed = bonsai.radius_search(queries, radius).as_lists()
        mismatches = sum(int(a != b) for a, b in zip(expected, compressed))

        print(f"Radius searches:        {baseline.stats.queries} queries, radius {radius} m")
        print(f"Result mismatches:      {mismatches} (guaranteed 0 by the shell test)")
        print(f"Bytes to fetch points:  baseline {baseline.stats.point_bytes_loaded / 1e6:.2f} MB, "
              f"Bonsai {bonsai.stats.point_bytes_loaded / 1e6:.2f} MB")
        print(f"Recomputed in 32-bit:   {bonsai.bonsai_stats.inconclusive_rate:.2%} "
              f"of classifications (paper reports 0.37%)")


if __name__ == "__main__":
    main()
