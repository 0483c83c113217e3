"""Tests of the NDT localization workload with cost accounting."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.hwmodel.cpu_config import TABLE_IV_CPU
from repro.workloads import ExecutionConfig, LocalizationConfig, NDTLocalizationPipeline

BONSAI = ExecutionConfig(backend="bonsai-batched")


@pytest.fixture(scope="module")
def localization_frames(small_sequence):
    map_cloud = small_sequence.frame(0)
    scans = [small_sequence.frame(i) for i in range(1, 3)]
    return map_cloud, scans


@pytest.fixture(scope="module")
def measurements(localization_frames):
    map_cloud, scans = localization_frames
    baseline = NDTLocalizationPipeline(map_cloud)
    bonsai = NDTLocalizationPipeline(map_cloud, execution=BONSAI)
    initials = [(0.8 * (i + 1) - 0.3, 0.0, 0.0) for i in range(len(scans))]
    return (baseline.register_sequence(scans, initials),
            bonsai.register_sequence(scans, initials))


class TestLocalizationPipeline:
    def test_measurement_fields(self, measurements):
        baseline, _ = measurements
        m = baseline[0]
        assert m.instructions > 0
        assert m.loads > 0
        assert m.seconds > 0
        assert m.energy_j > 0
        assert m.iterations >= 1
        assert m.translation.shape == (3,)

    def test_bonsai_reduces_bytes_and_cost(self, measurements):
        """The paper's claim that NDT matching also benefits from K-D Bonsai."""
        baseline, bonsai = measurements
        for base, new in zip(baseline, bonsai):
            assert new.point_bytes_loaded < 0.6 * base.point_bytes_loaded
            assert new.loads < base.loads
            assert new.seconds < base.seconds
            assert new.energy_j < base.energy_j

    def test_identical_pose_estimates(self, measurements):
        """Radius-search results are identical, so the optimiser's output is too."""
        baseline, bonsai = measurements
        for base, new in zip(baseline, bonsai):
            np.testing.assert_allclose(new.translation, base.translation, atol=1e-9)
            assert new.iterations == base.iterations

    def test_scan_indices_preserved(self, measurements):
        baseline, _ = measurements
        assert [m.scan_index for m in baseline] == list(range(len(baseline)))

    def test_custom_config(self, localization_frames):
        map_cloud, scans = localization_frames
        config = LocalizationConfig()
        pipeline = NDTLocalizationPipeline(map_cloud, config=config)
        measurement = pipeline.register_scan(scans[0], initial_translation=(0.5, 0.0, 0.0))
        assert measurement.use_bonsai is False
        assert pipeline.recorder is None


class TestHardwareLocalization:
    """A stand-alone hardware pipeline records on its own machine."""

    def test_records_on_the_configured_cpu(self, localization_frames):
        map_cloud, scans = localization_frames
        small_l1 = replace(TABLE_IV_CPU, l1d=replace(TABLE_IV_CPU.l1d, size_bytes=1024))
        hardware = ExecutionConfig(backend="bonsai-batched", hardware=True)
        runs = {}
        for name, config in (("table-iv", LocalizationConfig()),
                             ("l1-1k", LocalizationConfig(cpu=small_l1))):
            pipeline = NDTLocalizationPipeline(map_cloud, config=config,
                                               execution=hardware)
            assert pipeline.recorder is pipeline.matcher.recorder
            assert pipeline.recorder.hierarchy.l1.config == config.cpu.l1d
            pipeline.register_scan(scans[0], initial_translation=(0.5, 0.0, 0.0))
            runs[name] = pipeline.recorder.stats
        # Same accesses, simulated on different L1 sizes.
        assert runs["l1-1k"].l1_accesses == runs["table-iv"].l1_accesses
        assert runs["l1-1k"].l1_misses > runs["table-iv"].l1_misses

    def test_cache_config_wins_over_the_stage_cpu(self, localization_frames):
        map_cloud, _ = localization_frames
        small_l1 = replace(TABLE_IV_CPU, l1d=replace(TABLE_IV_CPU.l1d, size_bytes=1024))
        pipeline = NDTLocalizationPipeline(
            map_cloud, config=LocalizationConfig(cpu=small_l1),
            execution=ExecutionConfig(hardware=True, cache_config=TABLE_IV_CPU))
        assert pipeline.recorder.hierarchy.l1.config == TABLE_IV_CPU.l1d
