"""Figure 11 — end-to-end euclidean-cluster latency distribution.

Paper: the Bonsai-extensions reduce the mean end-to-end latency by 9.26% and
the 99th-percentile tail latency by 12.19%.  The benchmark runs the full
pipeline (pre-processing + extract kernel + labeling) over the frame set in
both configurations and regenerates the two box plots.
"""

from __future__ import annotations

import pytest

from repro.analysis import render_boxplot_figure
from repro.workloads import EuclideanClusterPipeline, PipelineConfig

from paper_reference import PAPER, write_result


def test_fig11_report(benchmark, comparison):
    """Regenerate Figure 11 and check the improvement band."""
    text = benchmark.pedantic(
        render_boxplot_figure,
        args=("Figure 11 - End-to-end latency of the euclidean cluster node [s]",
              comparison.latency_baseline,
              comparison.latency_bonsai,
              comparison.latency_improvements),
        kwargs={"paper_mean_reduction": PAPER["fig11_mean_reduction"], "unit": " s"},
        rounds=1, iterations=1,
    )
    text += (
        f"\n  Paper p99 improvement: {PAPER['fig11_p99_reduction']:.2%}"
    )
    write_result("fig11_latency", text)

    mean_reduction = comparison.latency_improvements["mean_reduction"]
    p99_reduction = comparison.latency_improvements["p99_reduction"]
    # Shape: Bonsai wins on both the mean and the tail, by single-digit to
    # low-double-digit percentages (the paper reports 9.26% / 12.19%).
    assert 0.03 < mean_reduction < 0.30
    assert 0.03 < p99_reduction < 0.30


def test_fig11_latency_distributions_not_degenerate(benchmark, comparison):
    """The box plots need spread: frames differ in size and cluster count."""
    benchmark.pedantic(lambda: comparison.latency_baseline.std, rounds=1, iterations=1)
    assert comparison.latency_baseline.std > 0
    assert comparison.latency_bonsai.std > 0
    assert comparison.latency_baseline.n >= 4


def test_fig11_end_to_end_frame(benchmark, pipeline, bench_sequence):
    """Time one full end-to-end frame evaluation (baseline configuration)."""
    cloud = bench_sequence.frame(0)

    def run():
        return pipeline.run_frame(cloud).end_to_end_seconds

    assert benchmark.pedantic(run, rounds=1, iterations=1) > 0


def test_fig11_batched_engine_matches_functional_counters(benchmark, pipeline,
                                                          bench_sequence):
    """The batched query engine serves the same frame with identical stats.

    With cache simulation disabled the extract kernel clusters through
    :mod:`repro.runtime`: one batched radius query over the whole frame, whose
    radius graph it labels into connected components.
    The functional search counters that drive the latency model must be
    identical to the per-query trace-driven run.
    """
    cloud = bench_sequence.frame(0)
    batched_pipeline = EuclideanClusterPipeline(PipelineConfig(simulate_caches=False))

    batched = benchmark.pedantic(
        batched_pipeline.run_frame, args=(cloud,), rounds=1, iterations=1)
    reference = pipeline.run_frame(cloud)

    assert batched.n_clusters == reference.n_clusters
    for attribute in ("queries", "leaves_visited", "interior_visited",
                      "points_examined", "points_in_radius", "point_bytes_loaded"):
        assert getattr(batched.search_stats, attribute) == \
            getattr(reference.search_stats, attribute)
