"""Ablation — the error shell (guaranteed accuracy) vs. naive truncation.

The paper's key safety feature is the worst-case error shell (Eq. 12): any
classification that could have flipped under fp16 rounding is recomputed in
32-bit, so results are bit-identical to the baseline.  This ablation compares
three leaf-processing policies on the same searches:

* baseline 32-bit inspection;
* naive fp16 truncation (no shell) — the Table I error reappears;
* K-D Bonsai with the shell — zero errors at the cost of recomputing a
  fraction of a percent of classifications.
"""

from __future__ import annotations

import pytest

from repro.analysis import classification_error, render_table
from repro.engine import get_backend
from repro.core.floatfmt import FLOAT16
from repro.kdtree import build_kdtree, radius_search

from paper_reference import PAPER, write_result

RADIUS = 0.6


@pytest.fixture(scope="module")
def shell_ablation(clustering_input):
    tree = build_kdtree(clustering_input)
    queries = clustering_input.points[::7]

    naive = classification_error(tree, queries, RADIUS, FLOAT16)

    bonsai_tree = build_kdtree(clustering_input)
    bonsai = get_backend("bonsai-batched", bonsai_tree)
    got = bonsai.radius_search(queries, RADIUS).as_lists()
    mismatched_searches = sum(
        int(sorted(radius_search(tree, query, RADIUS)) != hits)
        for query, hits in zip(queries, got))
    return {
        "naive": naive,
        "bonsai_recompute_rate": bonsai.bonsai_stats.inconclusive_rate,
        "bonsai_mismatches": mismatched_searches,
        "n_queries": len(queries),
    }


def test_ablation_shell_report(benchmark, shell_ablation):
    """Regenerate the shell-vs-truncation comparison."""
    benchmark.pedantic(lambda: shell_ablation["n_queries"], rounds=1, iterations=1)
    naive = shell_ablation["naive"]
    rows = [
        ("Baseline (32-bit)", "0% (by definition)", "0%", "-"),
        ("Naive fp16 truncation (no shell)",
         f"{naive.error_rate:.3%} misclassified",
         f"{PAPER['table1']['ieee_fp16']:.3%} (Table I)", "no recomputation"),
        ("K-D Bonsai (shell + recompute)",
         f"{shell_ablation['bonsai_mismatches']} mismatched searches",
         "0 (guaranteed)",
         f"{shell_ablation['bonsai_recompute_rate']:.3%} recomputed"),
    ]
    text = render_table(
        ("Policy", "Error (measured)", "Paper", "Cost"),
        rows,
        title="Ablation - error shell (Eq. 12) vs. naive precision reduction",
    )
    write_result("ablation_shell", text)

    # Shape: truncation introduces (rare) errors, the shell removes all of
    # them while recomputing well under 1% of classifications.
    assert naive.misclassified > 0
    assert shell_ablation["bonsai_mismatches"] == 0
    assert shell_ablation["bonsai_recompute_rate"] < 0.01
    assert shell_ablation["bonsai_recompute_rate"] > 0.0


def test_ablation_shell_kernel(benchmark, clustering_input):
    """Time the shell-protected search over a query batch."""
    tree = build_kdtree(clustering_input)
    bonsai = get_backend("bonsai-batched", tree)
    queries = clustering_input.points[::30]

    def run():
        return bonsai.radius_search(queries, RADIUS).total_matches

    assert benchmark.pedantic(run, rounds=1, iterations=1) > 0
