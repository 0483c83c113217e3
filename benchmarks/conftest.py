"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  The heavy
work (running the euclidean-cluster pipeline over the frame set with the
baseline and the Bonsai search) is done once per session and shared; each
bench then times a representative kernel with pytest-benchmark and writes the
regenerated table/figure, next to the paper's reported values, into
``benchmarks/results/``.

With ``REPRO_TRENDS_DIR`` set, the matrix benchmarks additionally merge the
same numbers as :class:`repro.trends.TrendRecord` rows into the named trend
store, keyed by ``REPRO_TRENDS_COMMIT`` / ``REPRO_TRENDS_RUN_ID`` /
``REPRO_TRENDS_ORDER`` — the machine-readable counterpart of the rendered
text tables (workflow and schema: ``docs/TRENDS.md``).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.analysis import compare_measurements
from repro.pointcloud import DrivingSequence, LidarConfig, SceneConfig, SequenceConfig
from repro.workloads import EuclideanClusterPipeline, ExecutionConfig

#: Number of synthetic frames the sequence-level benchmarks process.  Small
#: enough for a pure-Python pipeline, large enough for stable statistics.
N_FRAMES = int(os.environ.get("REPRO_BENCH_FRAMES", "6"))


@pytest.fixture(scope="session")
def bench_sequence() -> DrivingSequence:
    """The synthetic driving sequence used across benchmarks."""
    config = SequenceConfig(
        n_frames=N_FRAMES,
        scene=SceneConfig(seed=7),
        lidar=LidarConfig(n_beams=32, n_azimuth_steps=360, seed=707),
    )
    return DrivingSequence(config)


@pytest.fixture(scope="session")
def bench_clouds(bench_sequence):
    """Raw LiDAR frames of the benchmark sequence."""
    return [bench_sequence.frame(i) for i in range(len(bench_sequence))]


@pytest.fixture(scope="session")
def pipeline() -> EuclideanClusterPipeline:
    return EuclideanClusterPipeline()


@pytest.fixture(scope="session")
def baseline_measurements(pipeline, bench_clouds):
    """Per-frame measurements of the baseline configuration."""
    return pipeline.run_frames(bench_clouds, execution=ExecutionConfig(hardware=True))


@pytest.fixture(scope="session")
def bonsai_measurements(pipeline, bench_clouds):
    """Per-frame measurements of the Bonsai configuration."""
    return pipeline.run_frames(
        bench_clouds, execution=ExecutionConfig(backend="bonsai-batched", hardware=True))


@pytest.fixture(scope="session")
def comparison(baseline_measurements, bonsai_measurements):
    """Aggregated baseline-vs-Bonsai summary (Figures 9-12)."""
    return compare_measurements(baseline_measurements, bonsai_measurements)


@pytest.fixture(scope="session")
def clustering_input(bench_sequence):
    """The pre-processed first frame (the unit of most micro-benchmarks)."""
    from repro.pointcloud import preprocess_for_clustering

    return preprocess_for_clustering(bench_sequence.frame(0))
