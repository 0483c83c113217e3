"""Command-line interface for the K-D Bonsai reproduction.

The CLI exposes the most common flows without writing Python:

``python -m repro generate``
    Generate synthetic LiDAR frames and write them as PCD or NPZ files.
``python -m repro compress-stats``
    Report the compression opportunity (sign/exponent sharing, compressed
    footprint, recompute rate) of one frame.
``python -m repro cluster``
    Run euclidean clustering on one frame through a named execution backend
    (``--backend``) and print the detections.
``python -m repro compare``
    Run the baseline-vs-Bonsai pipeline over a few frames and print the
    Figure 9/11/12-style summary.
``python -m repro batch-sweep``
    Run a batched radius/kNN query sweep over one frame through a named
    execution backend (``--backend``, from the :mod:`repro.engine` registry)
    and report throughput, search statistics and — with ``--compare-loop`` —
    the speed-up over the per-query backend of the same flavour.
``python -m repro scenarios list``
    Enumerate the registered scenario worlds (:mod:`repro.scenarios`).
``python -m repro pipeline --scenario <name>``
    Run the end-to-end perception pipeline (clustering → filtering →
    tracking → NDT localization) over a scenario sequence and print the
    per-stage report.  ``--backend`` selects the execution backend by name;
    with ``--hardware`` the search stages run through the trace-driven
    cache/timing/energy models (:mod:`repro.hwmodel`) and the per-stage
    hardware report (miss ratios, bytes per level, cycles, energy) is
    printed as well.
``python -m repro hw-sweep``
    Run the hardware-in-the-loop scenario matrix — every selected world ×
    execution backend through the trace-driven models — across ``--jobs``
    worker processes with a deterministic merge, and print the matrix.
    With ``--cache-geometry`` (repeatable) the matrix is re-run per named
    L1/L2 geometry variation and the cache-sensitivity table is printed
    instead (see ``docs/PERFORMANCE.md`` for how to read it).  With
    ``--tile-size`` the sweep switches to map scale: one sharded index
    (:class:`~repro.engine.sharded.ShardedPointCloudIndex`) over a
    1M+-point map cloud, probed in recorded mode across the L2-size cut,
    printing the map-scale sensitivity table.
``python -m repro campaign``
    Run a differential-testing campaign (:mod:`repro.campaign`):
    ``--budget`` seed-derived randomized worlds, each fired at every
    selected backend (plus recorded hardware backends), results and
    statistics diffed pairwise, divergences shrunk to minimal pytest
    reproducers.  Writes a JSON manifest under ``--out-dir`` and exits
    non-zero when any divergence was found.
``python -m repro lint``
    Run the project-native static analyzer (:mod:`repro.lint`) over the
    given paths (default ``src``): determinism, resource-lifecycle and
    multiprocessing-safety rules, with inline suppressions and an optional
    ``--baseline`` of grandfathered findings.  Exits non-zero on any new
    unsuppressed finding.  ``docs/LINT.md`` catalogs the rules.
``python -m repro trends record|report|dashboard``
    Golden-metric trend tracking (:mod:`repro.trends`): ``record`` merges
    on-disk artifacts (golden snapshots, campaign manifests) into a
    per-family JSONL store; ``report`` runs the baseline-vs-head
    regression detector and exits non-zero on flagged drift; ``dashboard``
    renders the byte-deterministic static HTML explorer.  The benchmark
    scripts record their regenerated matrices into the same store when
    ``REPRO_TRENDS_DIR`` is set (see ``docs/TRENDS.md``).

Scenario names, backend names, cache-geometry names and lint-rule names in
``--help`` output come straight from their registries (:mod:`repro.scenarios`,
:mod:`repro.engine`, :mod:`repro.analysis.cache_sweep`, :mod:`repro.lint`),
so the listings never drift from the code.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

__all__ = ["build_parser", "main"]


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (worker/job counts)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser.

    Scenario-, backend- and geometry-taking commands pull the available
    names from their registries at parser-build time, so ``--help`` always
    lists exactly the registered scenarios, execution backends and cache
    geometries — there is no hand-maintained list to drift.
    """
    from .analysis.cache_sweep import geometry_names
    from .engine import backend_names
    from .scenarios import scenario_names

    registered = ", ".join(scenario_names())
    backends = backend_names()
    geometries = geometry_names()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="K-D Bonsai reproduction command-line interface",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="generate synthetic LiDAR frames and write them to disk")
    generate.add_argument("--frames", type=int, default=3, help="number of frames")
    generate.add_argument("--output-dir", type=Path, default=Path("frames"),
                          help="directory to write frames into")
    generate.add_argument("--format", choices=("pcd", "npz"), default="pcd",
                          help="output file format")
    generate.add_argument("--seed", type=int, default=7, help="scene random seed")

    compress = subparsers.add_parser(
        "compress-stats", help="report the compression opportunity of one frame")
    compress.add_argument("--frame", type=int, default=0, help="frame index")
    compress.add_argument("--seed", type=int, default=7, help="scene random seed")
    compress.add_argument("--radius", type=float, default=0.6, help="search radius [m]")

    cluster = subparsers.add_parser(
        "cluster", help="run euclidean clustering on one synthetic frame")
    cluster.add_argument("--frame", type=int, default=0, help="frame index")
    cluster.add_argument("--seed", type=int, default=7, help="scene random seed")
    cluster.add_argument("--tolerance", type=float, default=0.6,
                         help="clustering tolerance (radius) [m]")
    cluster.add_argument("--backend", choices=backends, default="baseline-batched",
                         help="execution backend serving the clustering searches "
                              "(default: baseline-batched)")

    compare = subparsers.add_parser(
        "compare", help="baseline vs Bonsai summary over a few frames")
    compare.add_argument("--frames", type=int, default=4, help="number of frames")
    compare.add_argument("--seed", type=int, default=7, help="scene random seed")

    sweep = subparsers.add_parser(
        "batch-sweep", help="run a batched query sweep through the vectorised engine")
    sweep.add_argument("--frame", type=int, default=0, help="frame index")
    sweep.add_argument("--seed", type=int, default=7, help="scene random seed")
    sweep.add_argument("--queries", type=int, default=10000,
                       help="number of queries in the sweep")
    sweep.add_argument("--radius", type=float, default=0.6, help="search radius [m]")
    sweep.add_argument("--k", type=int, default=5, help="neighbours per kNN query")
    sweep.add_argument("--backend", choices=backends, default="baseline-batched",
                       help="execution backend for the radius sweep "
                            "(default: baseline-batched)")
    sweep.add_argument("--compare-loop", action="store_true",
                       help="also time the per-query backend of the same flavour "
                            "and print the speed-up")

    scenarios = subparsers.add_parser(
        "scenarios", help="inspect the registered scenario library",
        description=f"Registered scenarios: {registered}")
    scenarios.add_argument("action", choices=("list",),
                           help="what to do (list: print the registry)")
    scenarios.add_argument("--seed", type=int, default=None,
                           help="seed used when counting scene obstacles")

    pipeline = subparsers.add_parser(
        "pipeline", help="run the end-to-end perception pipeline on a scenario")
    pipeline.add_argument("--scenario", default="urban",
                          help=f"registered scenario name, one of: {registered}")
    pipeline.add_argument("--frames", type=int, default=4, help="number of frames")
    pipeline.add_argument("--seed", type=int, default=None,
                          help="scene/sensor seed (default: the scenario's)")
    pipeline.add_argument("--beams", type=int, default=None,
                          help="LiDAR beams (default: the scenario's)")
    pipeline.add_argument("--azimuth-steps", type=int, default=None,
                          help="LiDAR azimuth steps (default: the scenario's)")
    pipeline.add_argument("--backend", choices=backends, default="baseline-batched",
                          help="execution backend serving the search stages "
                               "(default: baseline-batched)")
    pipeline.add_argument("--no-localization", action="store_true",
                          help="skip the NDT localization stage")
    pipeline.add_argument("--hardware", action="store_true",
                          help="hardware-in-the-loop mode: run the search stages "
                               "through the trace-driven cache/timing/energy models "
                               "and print the per-stage hardware report")

    hw_sweep = subparsers.add_parser(
        "hw-sweep",
        help="parallel hardware-in-the-loop sweep across scenarios "
             "(optionally across cache geometries)",
        description=f"Registered scenarios: {registered}")
    hw_sweep.add_argument("--scenario", action="append", dest="scenarios",
                          default=None, metavar="NAME",
                          help="scenario to include (repeatable; "
                               "default: every registered scenario)")
    hw_sweep.add_argument("--backend", action="append", dest="backends",
                          choices=backends, default=None,
                          help="execution backend to sweep (repeatable; "
                               "default: baseline-batched and bonsai-batched)")
    hw_sweep.add_argument("--frames", type=int, default=3,
                          help="frames per scenario run")
    hw_sweep.add_argument("--seed", type=int, default=None,
                          help="scene/sensor seed (default: the scenario's)")
    hw_sweep.add_argument("--beams", type=int, default=18, help="LiDAR beams")
    hw_sweep.add_argument("--azimuth-steps", type=int, default=180,
                          help="LiDAR azimuth steps")
    hw_sweep.add_argument("--jobs", type=_positive_int, default=None,
                          help="worker processes running sweep cells "
                               "(default: auto — at most 4, honours "
                               "REPRO_MP_WORKERS; 1 = serial)")
    hw_sweep.add_argument("--cache-geometry", action="append",
                          dest="cache_geometries", choices=geometries,
                          default=None,
                          help="re-run the matrix under this named L1/L2 "
                               "geometry and print the sensitivity table "
                               "(repeatable; omit for the plain matrix)")
    hw_sweep.add_argument("--tile-size", type=float, default=None,
                          metavar="METRES",
                          help="map-scale mode: shard a map-scale cloud into "
                               "XY tiles of this size and print the map-scale "
                               "cache-sensitivity table instead (uses the "
                               "first --scenario; default: city_block)")
    hw_sweep.add_argument("--map-points", type=_positive_int, default=1_000_000,
                          help="map-scale mode: points in the sampled map "
                               "cloud")
    hw_sweep.add_argument("--map-queries", type=_positive_int, default=256,
                          help="map-scale mode: radius queries in the "
                               "recorded batch")

    campaign = subparsers.add_parser(
        "campaign",
        help="differential-testing campaign: randomized worlds x every "
             "backend, divergences diffed and shrunk",
        description=f"Registered scenarios: {registered}")
    campaign.add_argument("--budget", type=_positive_int, default=25,
                          help="number of randomized worlds to test")
    campaign.add_argument("--seed", type=int, default=0,
                          help="campaign seed (worlds derive from it "
                               "deterministically)")
    campaign.add_argument("--backend", action="append", dest="backends",
                          choices=backends, default=None,
                          help="backend under test (repeatable; default: "
                               "every registered backend)")
    campaign.add_argument("--scenario", action="append", dest="scenarios",
                          default=None, metavar="NAME",
                          help="restrict sampled worlds to this scenario "
                               "(repeatable; default: every registered one)")
    campaign.add_argument("--out-dir", type=Path,
                          default=Path("campaign-results"),
                          help="directory the campaign result dir is "
                               "written under")
    campaign.add_argument("--no-recorded", action="store_true",
                          help="skip the recorded hardware-wrapper diffs")
    campaign.add_argument("--no-shrink", action="store_true",
                          help="report divergences without shrinking them")
    campaign.add_argument("--max-shrink-evals", type=_positive_int,
                          default=200,
                          help="evaluation budget of each shrink run")

    from .lint import rule_names

    lint = subparsers.add_parser(
        "lint", help="run the project-native static analyzer",
        description=f"Registered rules: {', '.join(rule_names())} "
                    f"(catalog: docs/LINT.md)")
    lint.add_argument("paths", nargs="*", type=Path, default=[Path("src")],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="report format")
    lint.add_argument("--rule", action="append", dest="rules",
                      choices=rule_names(), default=None,
                      help="run only this rule (repeatable; default: all)")
    lint.add_argument("--baseline", type=Path, default=None,
                      help="baseline file of grandfathered findings; only "
                           "new findings fail the run")
    lint.add_argument("--write-baseline", type=Path, default=None,
                      help="write the current findings as a baseline file "
                           "and exit 0")
    lint.add_argument("--output", type=Path, default=None,
                      help="also write the report to this file")

    trends = subparsers.add_parser(
        "trends",
        help="golden-metric trend tracking: record runs, detect "
             "regressions, render the explorer dashboard",
        description="Trend store workflow (docs/TRENDS.md): benchmarks "
                    "record themselves when REPRO_TRENDS_DIR is set; "
                    "`record` ingests on-disk artifacts; `report` compares "
                    "a head run against a baseline commit; `dashboard` "
                    "renders the static HTML explorer.")
    trends_sub = trends.add_subparsers(dest="trends_command", required=True)

    def _store_dir(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--dir", type=Path, dest="store_dir",
                         default=Path("benchmarks/trends"),
                         help="trend store directory "
                              "(default: benchmarks/trends)")

    record = trends_sub.add_parser(
        "record", help="merge on-disk artifacts into the trend store")
    _store_dir(record)
    record.add_argument("--commit", required=True,
                        help="commit id the records belong to "
                             "(CI passes the git SHA)")
    record.add_argument("--run-id", default=None,
                        help="run id within the commit (default: the commit)")
    record.add_argument("--order", type=int, default=0,
                        help="monotonic run sequence number the trend "
                             "x-axis sorts by (CI passes the run number)")
    record.add_argument("--golden", type=Path, default=None, metavar="DIR",
                        help="ingest the golden snapshot directory "
                             "(tests/golden) as golden-* records")
    record.add_argument("--campaign", action="append", type=Path,
                        dest="campaigns", default=None, metavar="MANIFEST",
                        help="ingest a campaign manifest.json (repeatable)")

    report = trends_sub.add_parser(
        "report", help="regression report: head records vs a baseline commit")
    _store_dir(report)
    report.add_argument("--baseline", required=True,
                        help="baseline commit to compare against")
    report.add_argument("--head", default=None,
                        help="head commit (default: the latest recorded run)")
    report.add_argument("--family", action="append", dest="families",
                        default=None, metavar="NAME",
                        help="restrict to this metric family (repeatable; "
                             "default: every family in the store)")

    dashboard = trends_sub.add_parser(
        "dashboard", help="render the static HTML trend explorer")
    _store_dir(dashboard)
    dashboard.add_argument("--output", type=Path,
                           default=Path("trends-dashboard.html"),
                           help="HTML file to write")
    dashboard.add_argument("--baseline", default=None,
                           help="baseline commit for regression highlighting "
                                "(default: the earliest recorded run)")
    dashboard.add_argument("--head", default=None,
                           help="head commit for regression highlighting "
                                "(default: the latest recorded run)")

    return parser


def _check_scenarios(command: str, names) -> None:
    """Exit with the registry listing when any scenario name is unknown.

    ``--scenario`` stays free-form in the parser (eight registered names
    would bloat ``--help`` as argparse choices), so commands validate here
    — same non-zero-exit-with-choices behaviour the ``choices``-backed
    ``--backend``/``--cache-geometry`` flags get from argparse.
    """
    from .scenarios import scenario_names

    registered = scenario_names()
    for name in names:
        if name not in registered:
            raise SystemExit(
                f"repro {command}: unknown scenario {name!r}; "
                f"registered: {', '.join(registered)}")


def _sequence(n_frames: int, seed: int):
    from .pointcloud import DrivingSequence, LidarConfig, SceneConfig, SequenceConfig

    return DrivingSequence(SequenceConfig(
        n_frames=max(n_frames, 1),
        scene=SceneConfig(seed=seed),
        lidar=LidarConfig(seed=seed * 101),
    ))


def _cmd_generate(args: argparse.Namespace) -> int:
    from .pointcloud import save_npz, save_pcd

    sequence = _sequence(args.frames, args.seed)
    args.output_dir.mkdir(parents=True, exist_ok=True)
    for index in range(args.frames):
        cloud = sequence.frame(index)
        path = args.output_dir / f"frame_{index:04d}.{args.format}"
        if args.format == "pcd":
            save_pcd(path, cloud)
        else:
            save_npz(path, cloud)
        print(f"wrote {path} ({len(cloud)} points)")
    return 0


def _cmd_compress_stats(args: argparse.Namespace) -> int:
    from .core import leaf_similarity
    from .engine import PointCloudIndex
    from .pointcloud import preprocess_for_clustering

    sequence = _sequence(args.frame + 1, args.seed)
    cloud = preprocess_for_clustering(sequence.frame(args.frame))
    with PointCloudIndex(cloud) as index:
        similarity = leaf_similarity(index.tree)
        bonsai = index.backend("bonsai-perquery")
        for point_index in range(0, len(cloud), 10):
            bonsai.search(cloud[point_index], args.radius)
        report = index.compression_report

        print(f"frame {args.frame}: {len(cloud)} points, "
              f"{index.n_leaves} leaves")
        for coord, rate in similarity.share_rates.items():
            print(f"  {coord} sign/exponent shared in {rate:.1%} of leaves")
        print(f"  compressed footprint: {report.compressed_bytes} B "
              f"({report.compression_ratio:.1%} of baseline)")
        print(f"  recompute rate at radius {args.radius} m: "
              f"{bonsai.bonsai_stats.inconclusive_rate:.3%}")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from .engine import ExecutionConfig
    from .perception import ClusterConfig, EuclideanClusterExtractor, label_clusters
    from .perception.cluster_filter import match_clusters_to_labels
    from .pointcloud import preprocess_for_clustering

    sequence = _sequence(args.frame + 1, args.seed)
    cloud = preprocess_for_clustering(sequence.frame(args.frame))
    execution = ExecutionConfig(backend=args.backend)
    extractor = EuclideanClusterExtractor(
        ClusterConfig(tolerance=args.tolerance), execution=execution)
    result = extractor.extract(cloud)
    detections = label_clusters(cloud, result.clusters)
    histogram = match_clusters_to_labels(detections)

    mode = "Bonsai-extensions" if execution.use_bonsai else "baseline"
    print(f"frame {args.frame} ({mode} search): {len(cloud)} points -> "
          f"{result.n_clusters} clusters")
    for label, count in sorted(histogram.items()):
        print(f"  {label:12s} {count}")
    for detection in detections[:10]:
        center = np.round(detection.centroid, 2)
        print(f"  cluster {detection.cluster_id:3d}: {detection.label:10s} "
              f"at {center} with {detection.n_points} points")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .analysis import compare_measurements, render_fig9a, render_fig9b
    from .engine import ExecutionConfig
    from .workloads import EuclideanClusterPipeline

    sequence = _sequence(args.frames, args.seed)
    clouds = [sequence.frame(i) for i in range(args.frames)]
    pipeline = EuclideanClusterPipeline()
    baseline = pipeline.run_frames(clouds, execution=ExecutionConfig(hardware=True))
    bonsai = pipeline.run_frames(
        clouds, execution=ExecutionConfig(backend="bonsai-batched", hardware=True))
    summary = compare_measurements(baseline, bonsai)

    print(render_fig9a(summary))
    print()
    print(render_fig9b(summary))
    print()
    print(f"latency: mean -{summary.latency_improvements['mean_reduction']:.1%}, "
          f"p99 -{summary.latency_improvements['p99_reduction']:.1%}")
    print(f"energy:  mean -{summary.energy_improvements['mean_reduction']:.1%}")
    print(f"recomputed classifications: {summary.inconclusive_rate:.2%}")
    return 0


def _cmd_batch_sweep(args: argparse.Namespace) -> int:
    import time

    from .engine import PointCloudIndex
    from .pointcloud import preprocess_for_clustering

    sequence = _sequence(args.frame + 1, args.seed)
    cloud = preprocess_for_clustering(sequence.frame(args.frame))
    with PointCloudIndex(cloud) as index:

        rng = np.random.default_rng(args.seed * 13 + 1)
        base = cloud.points[rng.integers(0, len(cloud), args.queries)]
        queries = base.astype(np.float64) + rng.normal(0.0, 0.25, base.shape)

        backend_name = args.backend
        backend = index.backend(backend_name)

        start = time.perf_counter()
        radius_result = backend.radius_search(queries, args.radius)
        radius_seconds = time.perf_counter() - start
        start = time.perf_counter()
        knn_result = backend.knn(queries, args.k)
        knn_seconds = time.perf_counter() - start

        n_queries = max(args.queries, 0)
        mean_neighbors = radius_result.counts.mean() if n_queries else 0.0
        mean_nearest = knn_result.distances[:, 0].mean() if n_queries else 0.0
        print(f"frame {args.frame}: {len(cloud)} points, {index.n_leaves} leaves, "
              f"{n_queries} queries ({backend_name} backend)")
        print(f"  radius {args.radius} m: {radius_result.total_matches} matches, "
              f"{mean_neighbors:.1f} neighbours/query, "
              f"{n_queries / radius_seconds:,.0f} queries/s")
        print(f"  knn k={args.k}: mean nearest distance {mean_nearest:.3f} m, "
              f"{n_queries / knn_seconds:,.0f} queries/s")
        stats = backend.stats
        print(f"  stats: {stats.leaves_visited / max(stats.queries, 1):.1f} leaf visits/query, "
              f"{stats.points_examined} points examined, "
              f"{stats.point_bytes_loaded} B of leaf points loaded")

        if args.compare_loop:
            flavor = backend_name.split("-", 1)[0]
            loop_backend = index.backend(f"{flavor}-perquery")
            start = time.perf_counter()
            for query in queries:
                loop_backend.search(query, args.radius)
            loop_radius_seconds = time.perf_counter() - start
            start = time.perf_counter()
            loop_backend.knn(queries, args.k)
            loop_knn_seconds = time.perf_counter() - start
            print(f"  {flavor}-perquery backend: "
                  f"radius {args.queries / loop_radius_seconds:,.0f} queries/s "
                  f"({backend_name} is {loop_radius_seconds / radius_seconds:.1f}x faster), "
                  f"knn {args.queries / loop_knn_seconds:,.0f} queries/s "
                  f"({backend_name} is {loop_knn_seconds / knn_seconds:.1f}x faster)")
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from .analysis import render_table
    from .scenarios import all_scenarios

    rows = []
    for spec in all_scenarios():
        scene = spec.scene(seed=args.seed)
        rows.append((
            spec.name,
            len(scene.obstacles),
            f"{spec.defaults.ego_speed_mps:g}",
            ",".join(spec.tags),
            spec.description,
        ))
    print(render_table(
        ("Scenario", "Obstacles", "Ego m/s", "Tags", "Description"),
        rows,
        title=f"Registered scenarios ({len(rows)})",
    ))
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from .analysis import render_table
    from .engine import ExecutionConfig
    from .workloads import PipelineRunner, PipelineRunnerConfig

    _check_scenarios("pipeline", [args.scenario])
    config = PipelineRunnerConfig(
        execution=ExecutionConfig(backend=args.backend, hardware=args.hardware),
        localization=not args.no_localization,
    )
    runner = PipelineRunner.from_scenario(
        args.scenario, config=config, n_frames=args.frames, seed=args.seed,
        n_beams=args.beams, n_azimuth_steps=args.azimuth_steps,
    )
    result = runner.run()
    metrics = result.metrics()

    mode = "Bonsai-extensions" if config.execution.use_bonsai else "baseline"
    rows = [
        (f.frame_index, f.n_raw_points, f.n_filtered_points, f.n_clusters,
         f.n_detections_kept, f.n_confirmed_tracks,
         f"{f.model_end_to_end_seconds * 1e3:.2f}")
        for f in result.frames
    ]
    print(render_table(
        ("Frame", "Raw pts", "Filtered", "Clusters", "Kept", "Tracks", "Latency [ms]"),
        rows,
        title=f"Pipeline `{args.scenario}` ({mode} search via {result.backend}, "
              f"{len(result.frames)} frames)",
    ))
    search = metrics["cluster_search"]
    print(f"\nclustering: {search['queries']} queries, "
          f"{search['leaves_visited']} leaf visits, "
          f"{search['point_bytes_loaded']:,} B of leaf points loaded")
    labels = ", ".join(f"{label} x{count}"
                       for label, count in metrics["track_labels"].items()) or "none"
    print(f"tracking:   {metrics['tracks_spawned']} spawned, "
          f"{metrics['confirmed_tracks_final']} confirmed ({labels})")
    if result.localization is not None:
        loc = result.localization
        print(f"localization: {loc.n_scans} scans, mean error {loc.mean_error_m:.3f} m, "
              f"max {loc.max_error_m:.3f} m, {loc.iterations_total} NDT iterations")
    if result.cluster_bonsai is not None:
        b = result.cluster_bonsai
        print(f"bonsai:     {b.leaf_visits} compressed leaf visits, "
              f"inconclusive rate {b.inconclusive_rate:.3%}")
    if result.hardware_stages is not None:
        rows = [
            (name,
             f"{report.l1_miss_ratio:.2%}",
             f"{report.l2_miss_ratio:.2%}",
             f"{report.bytes_loaded:,}",
             f"{report.l2_to_l1_bytes:,}",
             f"{report.dram_to_l2_bytes:,}",
             f"{report.cycles:,.0f}",
             f"{report.energy_j * 1e3:.3f}")
            for name, report in sorted(result.hardware_stages.items())
        ]
        print()
        print(render_table(
            ("Stage", "L1 miss", "L2 miss", "Demand B", "L2->L1 B",
             "DRAM->L2 B", "Cycles", "Energy [mJ]"),
            rows,
            title="Hardware (trace-driven cache + first-order timing/energy)",
        ))
    for stage, seconds in result.stage_seconds.items():
        print(f"  wall {stage:9s} {seconds * 1e3:8.1f} ms")
    return 0


def _cmd_hw_sweep(args: argparse.Namespace) -> int:
    from .analysis import (
        CacheGeometrySweep,
        HardwareScenarioSweep,
        render_cache_sensitivity,
        render_hw_matrix,
    )
    from .engine.parallel import resolve_workers

    if args.scenarios is not None:
        _check_scenarios("hw-sweep", args.scenarios)
    if args.tile_size is not None:
        # Map-scale mode: one sharded index, the L2-size geometry cut,
        # baseline vs Bonsai recorded traffic — not the scenario matrix.
        from .analysis import MapScaleSweep, render_map_scale_sensitivity

        if args.tile_size <= 0:
            raise SystemExit(
                f"repro hw-sweep: --tile-size must be positive, "
                f"got {args.tile_size:g}")
        scenario = args.scenarios[0] if args.scenarios else "city_block"
        sweep = MapScaleSweep(
            scenario, n_points=args.map_points, tile_size=args.tile_size,
            n_queries=args.map_queries,
            seed=args.seed if args.seed is not None else 7)
        result = sweep.run()
        print(render_map_scale_sensitivity(result))
        print(f"\nran {len(result.geometries) * len(result.flavors)} recorded "
              f"map-scale batches over {result.n_touched_tiles} of "
              f"{result.n_tiles} tiles")
        return 0
    if args.backends is not None and len(set(args.backends)) < 2:
        # The matrix and the sensitivity table both compare a backend pair;
        # a single --backend has nothing to compare against.
        raise SystemExit(
            "repro hw-sweep: need at least two distinct --backend values "
            "to compare (default: baseline-batched vs bonsai-batched)")
    jobs = resolve_workers(args.jobs)
    common = dict(n_frames=args.frames, seed=args.seed, n_beams=args.beams,
                  n_azimuth_steps=args.azimuth_steps, backends=args.backends,
                  n_jobs=jobs)
    if args.cache_geometries:
        sweep = CacheGeometrySweep(args.cache_geometries, args.scenarios,
                                   **common)
        print(render_cache_sensitivity(sweep.run()))
    else:
        sweep = HardwareScenarioSweep(args.scenarios, **common)
        print(render_hw_matrix(sweep.run()))
    print(f"\nran {len(sweep.tasks())} hardware-in-the-loop runs "
          f"across {jobs} worker process(es)")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .campaign import CampaignConfig, run_campaign

    if args.scenarios is not None:
        _check_scenarios("campaign", args.scenarios)
    config = CampaignConfig(
        budget=args.budget,
        seed=args.seed,
        backends=args.backends,
        scenarios=args.scenarios,
        out_dir=args.out_dir,
        recorded=not args.no_recorded,
        shrink=not args.no_shrink,
        max_shrink_evals=args.max_shrink_evals,
    )
    result = run_campaign(config, log=print)
    backends = config.resolved_backends()
    print(f"\ncampaign seed {config.seed}: {config.budget} worlds x "
          f"{len(backends)} backend(s) "
          f"(reference {config.reference_backend()}), "
          f"{result.n_divergences} divergence(s)")
    print(f"manifest: {result.manifest_path}")
    if result.n_divergences:
        shrunk = [d for d in result.divergences if d.reproducer is not None]
        for divergence in shrunk:
            print(f"  reproducer: {result.result_dir / divergence.reproducer}")
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint import (load_baseline, render_json, render_text, run_lint,
                       write_baseline)

    baseline = load_baseline(args.baseline) if args.baseline else None
    report = run_lint(args.paths, rules=args.rules, baseline=baseline)
    if args.write_baseline is not None:
        write_baseline(args.write_baseline, report.findings)
        print(f"wrote baseline with {len(report.findings)} finding(s) "
              f"to {args.write_baseline}")
        return 0
    rendered = (render_json(report) if args.format == "json"
                else render_text(report) + "\n")
    if args.output is not None:
        args.output.write_text(rendered, encoding="utf-8")
        print(f"wrote {args.format} report to {args.output}")
    print(rendered, end="")
    return 0 if report.ok else 1


def _cmd_trends(args: argparse.Namespace) -> int:
    import json

    from .trends import (TrendSchemaError, TrendStore, TrendStoreError,
                         collect_campaign_manifest, collect_golden_snapshots,
                         find_regressions, render_dashboard,
                         render_regressions)

    store = TrendStore(args.store_dir)
    try:
        if args.trends_command == "record":
            run_id = args.run_id if args.run_id is not None else args.commit
            records = []
            if args.golden is not None:
                if not args.golden.is_dir():
                    raise SystemExit(
                        f"repro trends record: golden directory "
                        f"{args.golden} does not exist")
                records.extend(collect_golden_snapshots(
                    args.golden, commit=args.commit, run_id=run_id,
                    order=args.order))
            for manifest_path in args.campaigns or []:
                if not manifest_path.is_file():
                    raise SystemExit(
                        f"repro trends record: campaign manifest "
                        f"{manifest_path} does not exist")
                try:
                    manifest = json.loads(
                        manifest_path.read_text(encoding="utf-8"))
                except json.JSONDecodeError as exc:
                    raise SystemExit(
                        f"repro trends record: {manifest_path} is not valid "
                        f"JSON ({exc})")
                records.extend(collect_campaign_manifest(
                    manifest, commit=args.commit, run_id=run_id,
                    order=args.order))
            if not records:
                raise SystemExit(
                    "repro trends record: nothing to record — pass --golden "
                    "and/or --campaign (benchmark matrices record themselves "
                    "when run with REPRO_TRENDS_DIR set)")
            touched = store.append(records)
            print(f"recorded {len(records)} record(s) for commit "
                  f"{args.commit} into {len(touched)} famil"
                  f"{'y' if len(touched) == 1 else 'ies'}:")
            for path in touched:
                print(f"  {path}")
            return 0
        if args.trends_command == "report":
            result = find_regressions(store, args.baseline,
                                      head_commit=args.head,
                                      families=args.families)
            print(render_regressions(result), end="")
            return 0 if result.ok else 1
        rendered = render_dashboard(store, baseline_commit=args.baseline,
                                    head_commit=args.head)
        args.output.write_text(rendered, encoding="utf-8")
        print(f"wrote trend dashboard to {args.output} "
              f"({len(rendered)} bytes)")
        return 0
    except (TrendStoreError, TrendSchemaError) as exc:
        raise SystemExit(f"repro trends {args.trends_command}: {exc}")


_COMMANDS = {
    "generate": _cmd_generate,
    "compress-stats": _cmd_compress_stats,
    "cluster": _cmd_cluster,
    "compare": _cmd_compare,
    "batch-sweep": _cmd_batch_sweep,
    "scenarios": _cmd_scenarios,
    "pipeline": _cmd_pipeline,
    "hw-sweep": _cmd_hw_sweep,
    "campaign": _cmd_campaign,
    "lint": _cmd_lint,
    "trends": _cmd_trends,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
