"""Section V-B statistics — recomputation rate and leaf revisit count.

Paper: only 0.37% of classifications fall inside the error shell and need the
32-bit recomputation, and each created leaf is visited on average ~52 times
during the radius searches of one frame — which is why compressing leaves
once at build time pays off.  The benchmark measures both statistics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import render_table

from paper_reference import PAPER, write_result


def test_recompute_rate_report(benchmark, comparison, bonsai_measurements):
    """Regenerate the two scalar statistics of Section V-B."""
    visits = benchmark.pedantic(
        lambda: [m.search_stats.mean_visits_per_leaf for m in bonsai_measurements],
        rounds=1, iterations=1,
    )
    rows = [
        ("Classifications recomputed in 32-bit", f"{comparison.inconclusive_rate:.3%}",
         f"{PAPER['recompute_rate']:.2%}"),
        ("Mean radius-search visits per leaf", f"{np.mean(visits):.1f}",
         f"{PAPER['visits_per_leaf']:.0f}"),
    ]
    text = render_table(("Statistic", "Measured", "Paper"), rows,
                        title="Section V-B - Shell recomputation rate and leaf reuse")
    write_result("recompute_rate", text)

    # Shape: recomputation is rare (well under 1%) and leaves are revisited
    # many times, amortising the build-time compression.
    assert comparison.inconclusive_rate < 0.01
    assert np.mean(visits) > 10.0


def test_recompute_rate_never_affects_results(benchmark, bonsai_measurements,
                                               baseline_measurements):
    """Cluster counts are identical, confirming baseline-equivalent accuracy."""
    benchmark.pedantic(lambda: len(bonsai_measurements), rounds=1, iterations=1)
    for base, bonsai in zip(baseline_measurements, bonsai_measurements):
        assert base.n_clusters == bonsai.n_clusters


def test_recompute_rate_counter_kernel(benchmark, clustering_input):
    """Time the Bonsai classification counters over one query batch."""
    from repro.engine import get_backend
    from repro.kdtree import build_kdtree

    tree = build_kdtree(clustering_input)
    bonsai = get_backend("bonsai-batched", tree)
    queries = clustering_input.points[::15]

    def run():
        bonsai.radius_search(queries, 0.6)
        return bonsai.bonsai_stats.inconclusive_rate

    rate = benchmark.pedantic(run, rounds=1, iterations=1)
    assert 0.0 <= rate < 0.02
