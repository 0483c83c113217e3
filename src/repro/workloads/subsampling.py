"""Systematic frame sub-sampling and its error analysis (Table III).

The paper cannot simulate an eight-minute sequence in gem5, so it processes
20 systematically chosen 300 ms windows and shows (Table III) that the
sub-sampled statistics track the full run closely.  This module reproduces
the methodology: given a sequence, it compares the metrics measured over a
systematic sub-sample against the metrics of the full sequence and reports
the same error figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from ..pointcloud.sequence import DrivingSequence, systematic_subsample
from .autoware import EuclideanClusterPipeline, FrameMeasurement, PipelineConfig

__all__ = ["SubsamplingErrors", "evaluate_subsampling", "measure_sequence"]


@dataclass
class SubsamplingErrors:
    """Error of sub-sampled statistics w.r.t. the full-sequence statistics."""

    latency_mean_error: float
    ipc_relative_error: float
    l1_miss_ratio_difference: float
    l2_miss_ratio_difference: float
    n_full_frames: int
    n_sampled_frames: int

    def as_rows(self) -> List[tuple]:
        """Rows for the Table III renderer."""
        return [
            ("Mean latency error", self.latency_mean_error),
            ("IPC relative error", self.ipc_relative_error),
            ("L1-D miss ratio difference", self.l1_miss_ratio_difference),
            ("L2 miss ratio difference", self.l2_miss_ratio_difference),
        ]


def measure_sequence(sequence: DrivingSequence, indices: Optional[Sequence[int]] = None,
                     pipeline: Optional[EuclideanClusterPipeline] = None,
                     ) -> List[FrameMeasurement]:
    """Run the euclidean-cluster pipeline over (a subset of) a sequence."""
    pipeline = pipeline or EuclideanClusterPipeline()
    measurements: List[FrameMeasurement] = []
    frame_indices = list(indices) if indices is not None else list(range(len(sequence)))
    for index in frame_indices:
        cloud = sequence.frame(index)
        measurements.append(pipeline.run_frame(cloud, frame_index=index))
    return measurements


def _mean_latency(measurements: Iterable[FrameMeasurement]) -> float:
    values = [m.end_to_end_seconds for m in measurements]
    return float(np.mean(values)) if values else 0.0


def _mean_ipc(measurements: Iterable[FrameMeasurement]) -> float:
    values = [m.extract.ipc for m in measurements]
    return float(np.mean(values)) if values else 0.0


def _miss_ratio(measurements: Iterable[FrameMeasurement], level: str) -> float:
    accesses = 0
    misses = 0
    for m in measurements:
        if level == "l1":
            accesses += m.extract.l1_accesses
            misses += m.extract.l1_misses
        else:
            accesses += m.extract.l2_accesses
            misses += m.extract.l2_misses
    return misses / accesses if accesses else 0.0


def evaluate_subsampling(sequence: DrivingSequence, n_samples: int, sample_length: int,
                         pipeline: Optional[EuclideanClusterPipeline] = None,
                         ) -> SubsamplingErrors:
    """Compare sub-sampled metrics against the full sequence (Table III)."""
    pipeline = pipeline or EuclideanClusterPipeline()
    full = measure_sequence(sequence, None, pipeline)
    indices = systematic_subsample(len(sequence), n_samples, sample_length)
    sampled = [m for m in full if m.frame_index in set(indices)]

    full_latency = _mean_latency(full)
    sampled_latency = _mean_latency(sampled)
    full_ipc = _mean_ipc(full)
    sampled_ipc = _mean_ipc(sampled)

    return SubsamplingErrors(
        latency_mean_error=abs(sampled_latency - full_latency) / full_latency
        if full_latency else 0.0,
        ipc_relative_error=abs(sampled_ipc - full_ipc) / full_ipc if full_ipc else 0.0,
        l1_miss_ratio_difference=abs(_miss_ratio(sampled, "l1") - _miss_ratio(full, "l1")),
        l2_miss_ratio_difference=abs(_miss_ratio(sampled, "l2") - _miss_ratio(full, "l2")),
        n_full_frames=len(full),
        n_sampled_frames=len(sampled),
    )
