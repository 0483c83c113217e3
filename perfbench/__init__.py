"""The repository benchmark: end-to-end and per-layer performance.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from the repository root and prints, as
the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics named in ``BENCHMARK.json``; with
``--trace 1`` they are the per-layer metrics, measured by span wrappers
that this package installs around each layer's public entry points.

Modules
-------
``stats``      percentiles, the tail-percentile rule, quartile spreads.
``tracing``    in-memory spans, attribute patching, self-time accounting.
``layers``     which public entry point belongs to which layer.
``inputs``     seeded input generation (frames, map cloud, request streams).
``oracle``     scipy-based references for radius, kNN and cluster results.
``frames``     the ``frames-bonsai`` workload (one LiDAR frame per op).
``mapserve``   the ``map-serve`` workload (two closed-loop clients).
``memory``     the program's memory, read from ``/proc``.
``report``     metric tables, machine context and the exact-count check.
``run``        the command line: one workload, one seed, one result line.
``steadiness`` one run per seed and the quartile spread of every metric.

``workloads.json`` records, per workload, its loop type, client count, seed
argument and the layers it stresses and bypasses; its why-sentence is in
``BENCHMARK.json``.
"""
