"""Extension — K-D Bonsai on the NDT localization workload.

The paper evaluates the euclidean-cluster task and notes that the NDT
localization node is "also subject to our optimizations" because it, too, is
radius-search bound (Figure 2).  This benchmark quantifies that claim with
the same methodology as the euclidean-cluster comparison: it registers a few
scans against a map with the baseline and the Bonsai search and reports the
relative change of bytes, loads, time and energy.

Both configurations issue their radius queries through the batched engine
(:mod:`repro.runtime`): every NDT iteration sends all scan points as one
batched query, whose statistics aggregate exactly as per-query searches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import render_table
from repro.workloads import ExecutionConfig, NDTLocalizationPipeline

from paper_reference import write_result


@pytest.fixture(scope="module")
def ndt_measurements(bench_sequence):
    map_cloud = bench_sequence.frame(0)
    scans = [bench_sequence.frame(i) for i in range(1, 4)]
    ego_speed = bench_sequence.config.ego_speed_mps
    dt = 1.0 / bench_sequence.config.frame_rate_hz
    initials = [(ego_speed * dt * (i + 1) - 0.3, 0.0, 0.0) for i in range(len(scans))]
    baseline = NDTLocalizationPipeline(map_cloud)
    bonsai = NDTLocalizationPipeline(
        map_cloud, execution=ExecutionConfig(backend="bonsai-batched"))
    return (baseline.register_sequence(scans, initials),
            bonsai.register_sequence(scans, initials))


def _total(measurements, attribute):
    return float(sum(getattr(m, attribute) for m in measurements))


def test_ndt_localization_report(benchmark, ndt_measurements):
    """Regenerate the NDT-improvement table (an extension beyond the paper)."""
    baseline, bonsai = benchmark.pedantic(lambda: ndt_measurements, rounds=1, iterations=1)

    rows = []
    changes = {}
    for label, attribute in (("Bytes to fetch leaf points", "point_bytes_loaded"),
                             ("Committed loads", "loads"),
                             ("Registration time", "seconds"),
                             ("Registration energy", "energy_j")):
        base_total = _total(baseline, attribute)
        bonsai_total = _total(bonsai, attribute)
        change = (bonsai_total - base_total) / base_total if base_total else 0.0
        changes[attribute] = change
        rows.append((label, f"{base_total:.4g}", f"{bonsai_total:.4g}", f"{change:+.1%}"))
    text = render_table(
        ("Metric", "Baseline", "Bonsai-extensions", "Relative change"),
        rows,
        title="Extension - K-D Bonsai applied to NDT localization",
    )
    write_result("ndt_localization", text)

    # Shape: the same qualitative benefit as the euclidean-cluster task.
    assert changes["point_bytes_loaded"] < -0.4
    assert changes["loads"] < -0.1
    assert changes["seconds"] < -0.02
    assert changes["energy_j"] < -0.02
    # And identical pose estimates.
    for base, new in zip(baseline, bonsai):
        np.testing.assert_allclose(new.translation, base.translation, atol=1e-9)


def test_ndt_registration_kernel(benchmark, bench_sequence):
    """Time one baseline NDT registration (map build excluded)."""
    pipeline = NDTLocalizationPipeline(bench_sequence.frame(0))
    scan = bench_sequence.frame(1)

    def run():
        return pipeline.register_scan(scan, initial_translation=(0.5, 0.0, 0.0)).iterations

    assert benchmark.pedantic(run, rounds=1, iterations=1) >= 1


def test_ndt_queries_served_by_batched_engine(benchmark, bench_sequence):
    """Each NDT iteration issues one batched query covering all scan points."""
    pipeline = NDTLocalizationPipeline(bench_sequence.frame(0))
    assert pipeline.matcher._backend.name == "baseline-batched"  # noqa: SLF001
    measurement = benchmark.pedantic(
        pipeline.register_scan, args=(bench_sequence.frame(1),),
        kwargs={"initial_translation": (0.5, 0.0, 0.0)}, rounds=1, iterations=1)
    stats = pipeline.matcher.search_stats
    # One query per (scan point, iteration) pair, batched per iteration.
    assert stats.queries > 0
    assert stats.queries % measurement.iterations == 0
