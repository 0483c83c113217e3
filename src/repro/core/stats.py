"""Compression-opportunity statistics (Section III-A of the paper).

The paper motivates value-similarity compression by measuring, over the point
clouds that feed Autoware's euclidean-cluster node, how often all points of a
k-d tree leaf share the same <sign, exponent> pair per coordinate (78% of
leaves for x, 83% for y).  This module computes those statistics for any
tree/cloud built by this library, both in the 32-bit source format and in the
reduced format actually stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..kdtree.build import KDTree
from .floatfmt import FLOAT16, FLOAT32, FloatFormat

__all__ = ["LeafSimilarityStats", "leaf_similarity", "aggregate_similarity"]

_COORD_NAMES = ("x", "y", "z")


@dataclass
class LeafSimilarityStats:
    """Sharing statistics across the leaves of one or more trees."""

    n_leaves: int = 0
    n_points: int = 0
    shared_per_coord: Dict[str, int] = field(
        default_factory=lambda: {name: 0 for name in _COORD_NAMES}
    )
    fully_shared_leaves: int = 0
    format_name: str = FLOAT32.name

    def share_rate(self, coord: str) -> float:
        """Fraction of leaves whose ``coord`` shares <sign, exponent>."""
        if self.n_leaves == 0:
            return 0.0
        return self.shared_per_coord[coord] / self.n_leaves

    @property
    def share_rates(self) -> Dict[str, float]:
        """Sharing rate per coordinate name."""
        return {name: self.share_rate(name) for name in _COORD_NAMES}

    @property
    def fully_shared_rate(self) -> float:
        """Fraction of leaves where all three coordinates share."""
        if self.n_leaves == 0:
            return 0.0
        return self.fully_shared_leaves / self.n_leaves

    def merge(self, other: "LeafSimilarityStats") -> None:
        """Accumulate another stats object (must use the same format)."""
        if other.format_name != self.format_name:
            raise ValueError("cannot merge similarity stats computed in different formats")
        self.n_leaves += other.n_leaves
        self.n_points += other.n_points
        self.fully_shared_leaves += other.fully_shared_leaves
        for name in _COORD_NAMES:
            self.shared_per_coord[name] += other.shared_per_coord[name]


def _sign_exponent_fields(values: np.ndarray, fmt: FloatFormat) -> np.ndarray:
    """<sign, exponent> field of every value in ``values`` under ``fmt``."""
    flat = values.reshape(-1)
    fields = np.empty(flat.shape[0], dtype=np.uint32)
    for i, value in enumerate(flat):
        bits = fmt.encode(float(value))
        fields[i] = fmt.sign_exponent(bits)
    return fields.reshape(values.shape)


def leaf_similarity(tree: KDTree, fmt: FloatFormat = FLOAT32) -> LeafSimilarityStats:
    """Per-coordinate <sign, exponent> sharing statistics of ``tree``'s leaves.

    ``fmt`` selects the representation in which sharing is measured; the paper
    reports the 32-bit numbers as motivation, while the compression itself
    shares the fields of the 16-bit representation.
    """
    stats = LeafSimilarityStats(format_name=fmt.name)
    arrays = tree.arrays
    leaf_fields = _sign_exponent_fields(
        tree.points[arrays.leaf_points].astype(np.float64), fmt)
    starts = arrays.leaf_starts.tolist()
    for start, stop in zip(starts, starts[1:]):
        fields = leaf_fields[start:stop]
        stats.n_leaves += 1
        stats.n_points += stop - start
        all_shared = True
        for c, name in enumerate(_COORD_NAMES):
            column = fields[:, c]
            if np.all(column == column[0]):
                stats.shared_per_coord[name] += 1
            else:
                all_shared = False
        if all_shared:
            stats.fully_shared_leaves += 1
    return stats


def aggregate_similarity(trees: Iterable[KDTree],
                         fmt: FloatFormat = FLOAT32) -> LeafSimilarityStats:
    """Similarity statistics accumulated over several trees (frames)."""
    total: Optional[LeafSimilarityStats] = None
    for tree in trees:
        stats = leaf_similarity(tree, fmt)
        if total is None:
            total = stats
        else:
            total.merge(stats)
    return total if total is not None else LeafSimilarityStats(format_name=fmt.name)
