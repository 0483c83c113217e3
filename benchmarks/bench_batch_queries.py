"""Engineering benchmark — the batched query engine vs. the per-query loop.

Not a paper figure: this benchmark guards the performance contract of
:mod:`repro.runtime`.  A 10k-query sweep over one preprocessed LiDAR frame
must run at least 5x faster through the batched engine than through the
per-query reference paths, for radius search and for kNN, while returning
identical results.

It also regenerates the *backend-dimension* table: the same sweep through
every execution backend registered in :mod:`repro.engine` (selected by
name — no backend class is imported here), asserting identical results and
reporting each backend's throughput side by side.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.analysis import render_table
from repro.engine import PointCloudIndex, backend_names, get_backend
from repro.kdtree import build_kdtree, nearest_neighbors, radius_search
from repro.pointcloud import preprocess_for_clustering

from paper_reference import write_result

N_QUERIES = 10_000
#: Query count of the all-backends table (the per-query backends run the
#: sweep in pure Python, so the dimension table uses a lighter load).
N_BACKEND_QUERIES = 2_000
RADIUS = 0.6
K = 5


def _best_of_three(function):
    """``(result, seconds)`` of the fastest of three calls of ``function``."""
    best = None
    for _ in range(3):
        start = time.perf_counter()
        result = function()
        seconds = time.perf_counter() - start
        if best is None or seconds < best[1]:
            best = (result, seconds)
    return best


@pytest.fixture(scope="module")
def sweep_setup(bench_sequence):
    cloud = preprocess_for_clustering(bench_sequence.frame(0))
    tree = build_kdtree(cloud)
    rng = np.random.default_rng(31)
    base = cloud.points[rng.integers(0, len(cloud), N_QUERIES)]
    queries = base.astype(np.float64) + rng.normal(0.0, 0.25, base.shape)
    return tree, queries


def test_batch_radius_speedup(sweep_setup):
    """Batched radius sweep: >= 5x over the per-query loop, identical results."""
    tree, queries = sweep_setup

    backend = get_backend("baseline-batched", tree)
    result, batch_seconds = _best_of_three(
        lambda: backend.radius_search(queries, RADIUS))
    single, loop_seconds = _best_of_three(
        lambda: [sorted(radius_search(tree, q, RADIUS)) for q in queries])

    assert result.as_lists() == single
    speedup = loop_seconds / batch_seconds
    write_result("batch_radius_sweep", render_table(
        ("Path", "Time [s]", "Queries/s"),
        (("per-query loop", f"{loop_seconds:.3f}", f"{N_QUERIES / loop_seconds:,.0f}"),
         ("batched engine", f"{batch_seconds:.3f}", f"{N_QUERIES / batch_seconds:,.0f}"),
         ("speed-up", f"{speedup:.1f}x", "")),
        title=f"Batched radius sweep - {N_QUERIES} queries, r={RADIUS} m",
    ))
    assert speedup >= 5.0


def test_backend_dimension_table(benchmark, sweep_setup):
    """Every registered backend over one sweep: identical results, one table.

    Backends are selected purely by registry name through the
    :class:`~repro.engine.index.PointCloudIndex` facade; the table gives the
    radius/kNN throughput of each, with the baseline-batched backend as the
    reference row.
    """
    tree, queries = sweep_setup
    queries = queries[:N_BACKEND_QUERIES]
    with PointCloudIndex(tree) as index:

        def run_all():
            timings = {}
            for name in backend_names():
                backend = index.backend(name)
                start = time.perf_counter()
                radius_result = backend.radius_search(queries, RADIUS)
                radius_seconds = time.perf_counter() - start
                start = time.perf_counter()
                knn_result = backend.knn(queries, K)
                knn_seconds = time.perf_counter() - start
                timings[name] = (radius_result, radius_seconds, knn_result, knn_seconds)
            return timings

        timings = benchmark.pedantic(run_all, rounds=1, iterations=1)

        reference, _, knn_reference, _ = timings["baseline-batched"]
        for name, (radius_result, _, knn_result, _) in timings.items():
            assert np.array_equal(radius_result.offsets, reference.offsets), name
            assert np.array_equal(radius_result.point_indices,
                                  reference.point_indices), name
            assert np.array_equal(knn_result.indices, knn_reference.indices), name

        rows = [
            (name,
             f"{N_BACKEND_QUERIES / radius_seconds:,.0f}",
             f"{N_BACKEND_QUERIES / knn_seconds:,.0f}",
             "identical")
            for name, (_, radius_seconds, _, knn_seconds) in sorted(timings.items())
        ]
        write_result("batch_backends", render_table(
            ("Backend", "Radius q/s", "kNN q/s", "Results vs reference"),
            rows,
            title=(f"Execution-backend dimension - {N_BACKEND_QUERIES} queries, "
                   f"r={RADIUS} m, k={K} (one tree, backends by registry name)"),
        ))


def test_batch_knn_speedup(sweep_setup):
    """Batched kNN sweep: >= 5x over the per-query loop, identical results."""
    tree, queries = sweep_setup

    backend = get_backend("baseline-batched", tree)
    result, batch_seconds = _best_of_three(lambda: backend.knn(queries, K))
    single, loop_seconds = _best_of_three(
        lambda: [nearest_neighbors(tree, q, K) for q in queries])

    batch_lists = result.as_lists()
    for expected, got in zip(single, batch_lists):
        assert [i for i, _ in expected] == [i for i, _ in got]
    speedup = loop_seconds / batch_seconds
    write_result("batch_knn_sweep", render_table(
        ("Path", "Time [s]", "Queries/s"),
        (("per-query loop", f"{loop_seconds:.3f}", f"{N_QUERIES / loop_seconds:,.0f}"),
         ("batched engine", f"{batch_seconds:.3f}", f"{N_QUERIES / batch_seconds:,.0f}"),
         ("speed-up", f"{speedup:.1f}x", "")),
        title=f"Batched kNN sweep - {N_QUERIES} queries, k={K}",
    ))
    assert speedup >= 5.0
