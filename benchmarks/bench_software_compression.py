"""Section IV-A — cost of software-only (de)compression.

Paper: iteratively inspecting and re-ordering bits in software slows radius
search down by roughly 7x, which is what motivates hardware support (the
Bonsai-extensions perform the same re-ordering in a handful of cycles).  The
benchmark compares, per leaf visit, the cost of the software bit-reordering
decompression against the baseline leaf inspection it replaces, using wall
clock time of the pure-Python implementations as the proxy.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.analysis import render_table
from repro.core import compress_tree
from repro.core.leaf_compression import decompress_leaf
from repro.kdtree import build_kdtree

from paper_reference import PAPER, write_result


@pytest.fixture(scope="module")
def compressed_frame_tree(clustering_input):
    tree = build_kdtree(clustering_input)
    compress_tree(tree)
    return tree


def _time_per_leaf(func, leaves, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for leaf in leaves:
            func(leaf)
        best = min(best, time.perf_counter() - start)
    return best / len(leaves)


def test_software_compression_report(benchmark, compressed_frame_tree):
    """Regenerate the ~7x software-only slowdown argument of Section IV-A."""
    benchmark.pedantic(lambda: compressed_frame_tree.n_leaves, rounds=1, iterations=1)
    tree = compressed_frame_tree
    array = tree.compressed_array
    starts = tree.arrays.leaf_starts.tolist()
    leaves = list(enumerate(tree.arrays.leaf_points[start:stop]
                            for start, stop in zip(starts, starts[1:])))
    query = tree.points[0].astype(np.float64)

    def baseline_inspect(leaf):
        _, indices = leaf
        points = tree.points[indices].astype(np.float64)
        diffs = points - query
        return (np.einsum("ij,ij->i", diffs, diffs) <= 0.36).sum()

    def software_decompress_inspect(leaf):
        leaf_id, _ = leaf
        reduced = decompress_leaf(array.get(leaf_id))
        diffs = reduced - query
        return (np.einsum("ij,ij->i", diffs, diffs) <= 0.36).sum()

    baseline_cost = _time_per_leaf(baseline_inspect, leaves)
    software_cost = _time_per_leaf(software_decompress_inspect, leaves)
    slowdown = software_cost / baseline_cost

    rows = [
        ("Baseline leaf inspection", f"{baseline_cost * 1e6:.1f} us/leaf", ""),
        ("Software bit-reordering decompression + inspection",
         f"{software_cost * 1e6:.1f} us/leaf", ""),
        ("Slowdown", f"{slowdown:.1f}x",
         f"~{PAPER['software_compression_slowdown']:.0f}x (paper)"),
    ]
    text = render_table(("Path", "Cost", "Paper"), rows,
                        title="Section IV-A - Software-only (de)compression overhead")
    write_result("software_compression", text)

    # Shape: software decompression is several times slower than simply
    # reading the uncompressed points, which is why the paper adds hardware.
    assert slowdown > 2.0


def test_software_decompression_kernel(benchmark, compressed_frame_tree):
    """Time one software decompression of a full leaf."""
    tree = compressed_frame_tree
    array = tree.compressed_array
    sizes = tree.arrays.leaf_sizes
    leaf_id = int(np.argmax(sizes))

    result = benchmark(lambda: decompress_leaf(array.get(leaf_id)))
    assert result.shape[0] == sizes[leaf_id]
