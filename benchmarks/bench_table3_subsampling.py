"""Table III — error introduced by systematic frame sub-sampling.

Paper: processing 20 systematically chosen 300 ms windows instead of the full
eight-minute sequence changes the mean latency by 2.94%, IPC by 4.68% and the
L1-D miss ratio by 0.10 percentage points.  The benchmark applies the same
methodology to the synthetic sequence: it measures the whole sequence, then a
systematic sub-sample, and reports the differences.
"""

from __future__ import annotations

import pytest

from repro.analysis import render_table
from repro.workloads import evaluate_subsampling

from paper_reference import PAPER, write_result


@pytest.fixture(scope="module")
def subsampling_errors(bench_sequence, pipeline):
    return evaluate_subsampling(bench_sequence, n_samples=3, sample_length=1,
                                pipeline=pipeline)


def test_table3_report(benchmark, subsampling_errors):
    """Regenerate Table III and check that sub-sampling is a faithful proxy."""
    benchmark.pedantic(subsampling_errors.as_rows, rounds=1, iterations=1)
    paper = PAPER["table3"]
    rows = [
        ("Mean latency error", f"{subsampling_errors.latency_mean_error:.2%}",
         f"{paper['latency_mean_error']:.2%}"),
        ("IPC relative error", f"{subsampling_errors.ipc_relative_error:.2%}",
         f"{paper['ipc_relative_error']:.2%}"),
        ("L1-D miss ratio difference", f"{subsampling_errors.l1_miss_ratio_difference:.4f}",
         f"{paper['l1_miss_ratio_difference']:.4f}"),
        ("L2 miss ratio difference", f"{subsampling_errors.l2_miss_ratio_difference:.4f}",
         "(paper reports branch mispred. diff. 0.03%)"),
    ]
    text = render_table(
        ("Metric", "Measured", "Paper"),
        rows,
        title=(f"Table III - Sub-sampling error "
               f"({subsampling_errors.n_sampled_frames} of "
               f"{subsampling_errors.n_full_frames} frames)"),
    )
    write_result("table3_subsampling", text)

    # Shape: the sub-sample tracks the full sequence within a few percent.
    assert subsampling_errors.latency_mean_error < 0.15
    assert subsampling_errors.ipc_relative_error < 0.15
    assert subsampling_errors.l1_miss_ratio_difference < 0.02


def test_table3_subsampling_kernel(benchmark, bench_sequence, pipeline):
    """Time the measurement of one sub-sampled frame."""
    cloud = bench_sequence.frame(0)

    def run():
        return pipeline.run_frame(cloud).extract.ipc

    assert benchmark.pedantic(run, rounds=1, iterations=1) > 0
