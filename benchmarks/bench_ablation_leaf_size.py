"""Ablation — leaf size vs. compression ratio and recomputation rate.

The paper adopts PCL's default of 15 points per leaf and sizes the ZipPts
buffer for 16.  This ablation sweeps the leaf size within the buffer's
capacity and reports how the compressed footprint, the sign/exponent sharing
rate and the shell recomputation rate respond — the trade-off behind the
design choice called out in DESIGN.md.
"""

from __future__ import annotations

import pytest

from repro.analysis import render_table
from repro.core import compress_tree, leaf_similarity
from repro.engine import get_backend
from repro.kdtree import KDTreeConfig, build_kdtree

from paper_reference import write_result

LEAF_SIZES = (4, 8, 15)
RADIUS = 0.6


@pytest.fixture(scope="module")
def sweep(clustering_input):
    rows = []
    for leaf_size in LEAF_SIZES:
        tree = build_kdtree(clustering_input, KDTreeConfig(max_leaf_size=leaf_size))
        report = compress_tree(tree)
        similarity = leaf_similarity(tree)
        bonsai = get_backend("bonsai-batched", tree)
        bonsai.radius_search(clustering_input.points[::9], RADIUS)
        rows.append({
            "leaf_size": leaf_size,
            "n_leaves": tree.n_leaves,
            "compression_ratio": report.compression_ratio,
            "fully_shared": similarity.fully_shared_rate,
            "recompute_rate": bonsai.bonsai_stats.inconclusive_rate,
        })
    return rows


def test_ablation_leaf_size_report(benchmark, sweep):
    """Regenerate the leaf-size ablation table and check the expected trends."""
    benchmark.pedantic(lambda: len(sweep), rounds=1, iterations=1)
    table_rows = [
        (row["leaf_size"], row["n_leaves"], f"{row['compression_ratio']:.1%}",
         f"{row['fully_shared']:.1%}", f"{row['recompute_rate']:.3%}")
        for row in sweep
    ]
    text = render_table(
        ("Points/leaf", "Leaves", "Compressed/baseline bytes",
         "Leaves fully sharing <s,e>", "Recompute rate"),
        table_rows,
        title="Ablation - leaf size (ZipPts buffer bounds the leaf at 16 points)",
    )
    write_result("ablation_leaf_size", text)

    by_size = {row["leaf_size"]: row for row in sweep}
    # Bigger leaves amortise the shared <sign, exponent> copy and the slice
    # padding over more points, so the compression ratio improves.
    assert by_size[15]["compression_ratio"] < by_size[4]["compression_ratio"]
    # Smaller leaves are spatially tighter, so full sharing is more frequent.
    assert by_size[4]["fully_shared"] >= by_size[15]["fully_shared"]
    # The recomputation rate stays well below 1% across the sweep.
    assert all(row["recompute_rate"] < 0.01 for row in sweep)


def test_ablation_leaf_size_build_kernel(benchmark, clustering_input):
    """Time tree build + compression at the paper's leaf size."""
    def run():
        tree = build_kdtree(clustering_input, KDTreeConfig(max_leaf_size=15))
        return compress_tree(tree).compressed_bytes

    assert benchmark.pedantic(run, rounds=1, iterations=1) > 0
