"""Accuracy metrics for reduced-precision radius search (Table I).

Table I of the paper reports, for each reduced floating-point format, the
fraction of radius-search classifications that flip relative to the 32-bit
baseline when the stored points are truncated to that format (no shell, no
recomputation — this is the raw error the shell mechanism later removes).

:class:`FormatErrorInspector` plugs into the standard radius-search traversal
and, for every point examined in a leaf, classifies it both with the original
32-bit coordinates and with coordinates quantised to the reduced format,
tallying the disagreements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..core.floatfmt import FLOAT16, FloatFormat, table1_formats
from ..kdtree.build import KDTree
from ..kdtree.radius_search import SearchStats, radius_search

__all__ = [
    "ClassificationErrorStats",
    "FormatErrorInspector",
    "classification_error",
    "table1_classification_errors",
]


@dataclass
class ClassificationErrorStats:
    """Tally of classification agreements/disagreements for one format."""

    format_name: str
    classifications: int = 0
    misclassified: int = 0
    false_in: int = 0
    false_out: int = 0

    @property
    def error_rate(self) -> float:
        """Fraction of classifications that disagree with the baseline."""
        if self.classifications == 0:
            return 0.0
        return self.misclassified / self.classifications

    def merge(self, other: "ClassificationErrorStats") -> None:
        """Accumulate another tally of the same format."""
        if other.format_name != self.format_name:
            raise ValueError("cannot merge error stats of different formats")
        self.classifications += other.classifications
        self.misclassified += other.misclassified
        self.false_in += other.false_in
        self.false_out += other.false_out


class FormatErrorInspector:
    """Leaf inspector comparing reduced-precision vs. 32-bit classification.

    Results appended to the search output match the *baseline* (32-bit)
    classification, so searches remain correct; the reduced-precision outcome
    is only tallied.  The tree's points are quantised once per tree (leaves
    are visited many times per frame) and indexed by point id, so one
    inspector can serve searches over several trees.
    """

    def __init__(self, fmt: FloatFormat = FLOAT16):
        self.fmt = fmt
        self.stats = ClassificationErrorStats(format_name=fmt.name)
        self._quantised_tree: Optional[KDTree] = None
        self._quantised_points: Optional[np.ndarray] = None

    def inspect(self, tree: KDTree, leaf_id: int, indices: np.ndarray,
                query: np.ndarray, r2: float, results: List[int],
                stats: SearchStats, recorder) -> None:
        original = tree.points[indices].astype(np.float64)
        quantised = self._quantised(tree)[indices]

        diffs = original - query
        d2_exact = np.einsum("ij,ij->i", diffs, diffs)
        diffs_q = quantised - query
        d2_reduced = np.einsum("ij,ij->i", diffs_q, diffs_q)

        in_exact = d2_exact <= r2
        in_reduced = d2_reduced <= r2

        n_points = indices.shape[0]
        stats.points_examined += n_points
        stats.points_in_radius += int(in_exact.sum())

        self.stats.classifications += n_points
        disagreements = in_exact != in_reduced
        self.stats.misclassified += int(disagreements.sum())
        self.stats.false_in += int((in_reduced & ~in_exact).sum())
        self.stats.false_out += int((~in_reduced & in_exact).sum())

        results.extend(indices[in_exact].tolist())

    def _quantised(self, tree: KDTree) -> np.ndarray:
        """Every point of ``tree`` quantised to the format, by point id."""
        if self._quantised_tree is not tree:
            self._quantised_points = self.fmt.quantize_array(
                tree.points.astype(np.float64))
            self._quantised_tree = tree
        return self._quantised_points


def classification_error(tree: KDTree, queries: Sequence[Sequence[float]], radius: float,
                         fmt: FloatFormat) -> ClassificationErrorStats:
    """Classification error of ``fmt`` over a set of radius searches."""
    inspector = FormatErrorInspector(fmt)
    stats = SearchStats()
    for query in queries:
        radius_search(tree, query, radius, inspector=inspector, stats=stats)
    return inspector.stats


def table1_classification_errors(tree: KDTree, queries: Sequence[Sequence[float]],
                                 radius: float,
                                 formats: Optional[Iterable[FloatFormat]] = None,
                                 ) -> Dict[str, ClassificationErrorStats]:
    """Classification error of every Table I format over the same searches."""
    formats = list(formats) if formats is not None else table1_formats()
    return {
        fmt.name: classification_error(tree, queries, radius, fmt) for fmt in formats
    }
