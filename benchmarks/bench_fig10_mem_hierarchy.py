"""Figure 10 — accesses per memory-hierarchy level, baseline vs. Bonsai.

Paper: L1 accesses drop by 14% while L2 accesses grow by 11% and main-memory
accesses by 8% (infrequent accesses to the original points for inconclusive
classifications miss in the higher levels).  The benchmark replays the
trace-driven cache simulation of both configurations and regenerates the
three bars.  The reproduction matches the L1 direction; the L2/DRAM
directions depend on the working-set-to-cache-size regime and are discussed
in EXPERIMENTS.md.
"""

from __future__ import annotations

import pytest

from repro.analysis import render_fig10
from repro.hwmodel import HierarchyRecorder
from repro.kdtree import build_kdtree, radius_search

from paper_reference import PAPER, write_result


def test_fig10_report(benchmark, comparison):
    """Regenerate Figure 10 and check the dominant (L1) behaviour."""
    text = benchmark.pedantic(render_fig10, args=(comparison, PAPER["fig10"]),
                              rounds=1, iterations=1)
    write_result("fig10_mem_hierarchy", text)

    changes = {name: cmp.relative_change for name, cmp in comparison.fig10.items()}
    # L1 accesses must drop substantially (the paper's headline effect).
    assert changes["l1_accesses"] < -0.05
    # The paper stresses that L1 traffic dominates the other levels by more
    # than an order of magnitude, so the L2/DRAM growth it reports is cheap.
    l1 = comparison.fig10["l1_accesses"].baseline
    l2 = comparison.fig10["l2_accesses"].baseline
    dram = comparison.fig10["memory_accesses"].baseline
    assert l1 > 10 * l2
    assert l1 > 30 * dram


def test_fig10_cache_simulation_kernel(benchmark, clustering_input):
    """Time the trace-driven cache simulation of one frame's search trace."""
    tree = build_kdtree(clustering_input)
    queries = [clustering_input[i] for i in range(0, len(clustering_input), 10)]

    def run():
        recorder = HierarchyRecorder()
        for query in queries:
            radius_search(tree, query, 0.6, recorder=recorder)
        return recorder.stats.l1_accesses

    assert benchmark.pedantic(run, rounds=1, iterations=1) > 0
