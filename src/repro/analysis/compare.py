"""Baseline vs. Bonsai comparison over a set of frames (Figures 9-12).

Given the per-frame measurements produced by
:class:`repro.workloads.EuclideanClusterPipeline` for the baseline and the
Bonsai configuration, this module aggregates them into the quantities the
paper's evaluation section reports: relative changes of the extract-kernel
hardware metrics (Fig. 9a), bytes loaded during the search (Fig. 9b), memory
hierarchy accesses (Fig. 10), end-to-end latency distributions (Fig. 11) and
energy (Fig. 12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..workloads.autoware import FrameMeasurement
from .boxplot import BoxPlotStats, compare_distributions

__all__ = ["MetricComparison", "ComparisonSummary", "compare_measurements",
           "relative_change"]

#: Order of Figure 9a's metric bars.
FIG9A_METRICS = (
    "execution_time",
    "instructions",
    "loads",
    "stores",
    "l1_accesses",
    "l1_misses",
)


def relative_change(baseline: float, bonsai: float) -> float:
    """``(bonsai - baseline) / baseline``, negative for a reduction and 0.0
    when the baseline is 0."""
    return (bonsai - baseline) / baseline if baseline else 0.0


@dataclass
class MetricComparison:
    """Relative change of one metric between baseline and Bonsai."""

    name: str
    baseline: float
    bonsai: float

    @property
    def relative_change(self) -> float:
        """``(bonsai - baseline) / baseline`` (negative means reduction)."""
        return relative_change(self.baseline, self.bonsai)


@dataclass
class ComparisonSummary:
    """All paper-style aggregates for one pair of measurement sets."""

    fig9a: Dict[str, MetricComparison]
    fig10: Dict[str, MetricComparison]
    latency_baseline: BoxPlotStats
    latency_bonsai: BoxPlotStats
    latency_improvements: Dict[str, float]
    energy_baseline: BoxPlotStats
    energy_bonsai: BoxPlotStats
    energy_improvements: Dict[str, float]
    bytes_baseline: int
    bytes_bonsai: int
    inconclusive_rate: float
    mean_visits_per_leaf: float

    @property
    def bytes_fraction(self) -> float:
        """Bonsai bytes over baseline bytes for leaf point fetches (Fig. 9b)."""
        if self.bytes_baseline == 0:
            return 1.0
        return self.bytes_bonsai / self.bytes_baseline


def _sum_metric(measurements: Sequence[FrameMeasurement], name: str) -> float:
    return float(sum(m.extract.as_dict()[name] for m in measurements))


def compare_measurements(baseline: Sequence[FrameMeasurement],
                         bonsai: Sequence[FrameMeasurement]) -> ComparisonSummary:
    """Aggregate paired baseline/Bonsai frame measurements.

    The two sequences must cover the same frames in the same order.
    """
    if len(baseline) != len(bonsai):
        raise ValueError("baseline and bonsai measurement lists must have equal length")
    if any(b.frame_index != o.frame_index for b, o in zip(baseline, bonsai)):
        raise ValueError("baseline and bonsai measurements must cover the same frames")

    fig9a = {
        name: MetricComparison(
            name=name,
            baseline=_sum_metric(baseline, name),
            bonsai=_sum_metric(bonsai, name),
        )
        for name in FIG9A_METRICS
    }
    fig10 = {
        name: MetricComparison(
            name=name,
            baseline=_sum_metric(baseline, name),
            bonsai=_sum_metric(bonsai, name),
        )
        for name in ("l1_accesses", "l2_accesses", "memory_accesses")
    }

    latency_baseline = [m.end_to_end_seconds for m in baseline]
    latency_bonsai = [m.end_to_end_seconds for m in bonsai]
    energy_baseline = [m.extract.energy_j for m in baseline]
    energy_bonsai = [m.extract.energy_j for m in bonsai]

    total_classified = sum(
        m.bonsai_stats.points_classified for m in bonsai if m.bonsai_stats is not None
    )
    total_inconclusive = sum(
        m.bonsai_stats.inconclusive for m in bonsai if m.bonsai_stats is not None
    )
    visits = [m.search_stats.mean_visits_per_leaf for m in bonsai]

    return ComparisonSummary(
        fig9a=fig9a,
        fig10=fig10,
        latency_baseline=BoxPlotStats.from_values("Baseline", latency_baseline),
        latency_bonsai=BoxPlotStats.from_values("Bonsai-extensions", latency_bonsai),
        latency_improvements=compare_distributions(latency_baseline, latency_bonsai),
        energy_baseline=BoxPlotStats.from_values("Baseline", energy_baseline),
        energy_bonsai=BoxPlotStats.from_values("Bonsai-extensions", energy_bonsai),
        energy_improvements=compare_distributions(energy_baseline, energy_bonsai),
        bytes_baseline=int(sum(m.point_bytes_loaded for m in baseline)),
        bytes_bonsai=int(sum(m.point_bytes_loaded for m in bonsai)),
        inconclusive_rate=total_inconclusive / total_classified if total_classified else 0.0,
        mean_visits_per_leaf=float(np.mean(visits)) if visits else 0.0,
    )
