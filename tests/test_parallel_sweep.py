"""Parallel sweep lockdown: pooled sweeps return exactly the serial result.

Covers the two drivers this applies to: the parallel
:class:`~repro.analysis.hw_sweep.HardwareScenarioSweep` (its pooled run must
reproduce the serial — and therefore golden — metrics bit for bit) and the
:class:`~repro.analysis.cache_sweep.CacheGeometrySweep` (one flattened task
pool over the (geometry, scenario, backend) grid, grouped back
deterministically, with the demand-byte totals geometry-invariant).
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import CacheGeometrySweep, HardwareScenarioSweep
from repro.analysis.cache_sweep import GEOMETRIES, geometry_names
from repro.analysis.hw_sweep import SweepTask, run_sweep_task

#: Small sensor preset shared by the equality tests (fast, still exercises
#: clustering + localization on both backends).
TINY = dict(n_frames=2, seed=7, n_beams=10, n_azimuth_steps=90)


def _sweep_json(result) -> str:
    return json.dumps(result.as_dict(), sort_keys=True)


class TestParallelHardwareSweep:
    def test_pooled_run_identical_to_serial(self):
        scenarios = ["urban", "sparse_rural"]
        serial = HardwareScenarioSweep(scenarios, **TINY).run()
        pooled = HardwareScenarioSweep(scenarios, **TINY, n_jobs=3).run()
        assert _sweep_json(pooled) == _sweep_json(serial)
        assert [run.scenario for run in pooled.runs] == \
            [run.scenario for run in serial.runs]
        assert [run.mode for run in pooled.runs] == \
            [run.mode for run in serial.runs]

    def test_tasks_are_deterministic_and_scenario_major(self):
        sweep = HardwareScenarioSweep(["urban", "tunnel"], **TINY, n_jobs=2)
        tasks = sweep.tasks()
        assert tasks == sweep.tasks()
        assert [(t.scenario, t.backend) for t in tasks] == [
            ("urban", "baseline-batched"), ("urban", "bonsai-batched"),
            ("tunnel", "baseline-batched"), ("tunnel", "bonsai-batched")]

    def test_pooled_sweep_reproduces_golden_hardware_snapshot(self):
        """A pooled sweep cell must satisfy the committed golden snapshot."""
        from goldens import golden_path
        from test_golden_pipeline import PRESET, _assert_matches

        sweep = HardwareScenarioSweep(["urban"], n_jobs=2, **PRESET)
        run = sweep.run().runs[0]
        assert run.backend == "baseline-batched"
        golden = json.loads(
            golden_path("hardware", "urban", run.backend).read_text())
        got = json.loads(json.dumps({
            "scenario": run.metrics["scenario"],
            "use_bonsai": run.metrics["use_bonsai"],
            "hardware": run.metrics["hardware"],
        }))
        _assert_matches(got, golden)


class TestCacheGeometrySweep:
    @pytest.fixture(scope="class")
    def result(self):
        return CacheGeometrySweep(["table-iv", "l1-8k"], ["urban"],
                                  n_jobs=2, **TINY).run()

    def test_grid_grouping_is_deterministic(self, result):
        assert [g.name for g in result.geometries()] == ["table-iv", "l1-8k"]
        for geometry_run in result.runs:
            assert [run.scenario for run in geometry_run.sweep.runs] == ["urban"] * 2
            assert [run.mode for run in geometry_run.sweep.runs] == \
                ["baseline", "bonsai"]

    def test_table_iv_variant_matches_default_machine(self, result):
        """cache_config=Table IV geometry == no cache_config at all."""
        default = HardwareScenarioSweep(["urban"], **TINY).run()
        assert _sweep_json(result.runs[0].sweep) == _sweep_json(default)

    def test_demand_bytes_are_geometry_invariant(self, result):
        """Geometry changes traffic between levels, never demand bytes."""
        rows = result.comparison_rows()
        assert rows[0]["base"]["bytes_loaded"] == rows[1]["base"]["bytes_loaded"]
        assert rows[0]["other"]["bytes_loaded"] == rows[1]["other"]["bytes_loaded"]

    def test_pooled_grid_identical_to_serial_grid(self):
        serial = CacheGeometrySweep(["table-iv", "l1-8k"], ["urban"],
                                    **TINY).run()
        pooled = CacheGeometrySweep(["table-iv", "l1-8k"], ["urban"],
                                    n_jobs=4, **TINY).run()
        for serial_run, pooled_run in zip(serial.runs, pooled.runs):
            assert serial_run.geometry == pooled_run.geometry
            assert _sweep_json(serial_run.sweep) == _sweep_json(pooled_run.sweep)

    def test_smaller_l1_moves_more_l1_fill_traffic(self):
        """The sensitivity direction: shrinking L1 inflates L2->L1 fills."""
        result = CacheGeometrySweep(
            ["l1-8k", "l1-128k"], ["urban"], n_frames=2, seed=7,
            n_beams=18, n_azimuth_steps=180, n_jobs=2).run()
        small, large = result.comparison_rows()
        assert small["base"]["l2_to_l1_bytes"] > large["base"]["l2_to_l1_bytes"]
        assert small["base"]["bytes_loaded"] == large["base"]["bytes_loaded"]

    def test_geometry_registry_shape(self):
        assert "table-iv" in geometry_names()
        reference = GEOMETRIES["table-iv"]
        cpu = reference.cpu()
        assert cpu.l1d.size_bytes == 32 * 1024
        assert cpu.l2.size_bytes == 1024 * 1024
        shrunk = GEOMETRIES["l1-8k"].cpu()
        assert shrunk.l1d.size_bytes == 8 * 1024
        # Only the cache geometry moves; timing/energy constants stay put.
        assert shrunk.l1_hit_cycles == cpu.l1_hit_cycles
        assert shrunk.frequency_hz == cpu.frequency_hz

    def test_render_cache_sensitivity_lists_every_geometry(self, result):
        from repro.analysis import render_cache_sensitivity

        table = render_cache_sensitivity(result)
        assert "table-iv" in table and "l1-8k" in table
        assert "Cache-geometry sensitivity" in table


def test_sweep_task_is_picklable_and_pure():
    """One task run twice (any process) returns identical metrics."""
    import pickle

    task = SweepTask(scenario="urban", backend="bonsai-batched",
                     n_frames=2, seed=7, n_beams=10, n_azimuth_steps=90)
    clone = pickle.loads(pickle.dumps(task))
    first = run_sweep_task(task)
    second = run_sweep_task(clone)
    assert json.dumps(first.metrics, sort_keys=True, default=str) == \
        json.dumps(second.metrics, sort_keys=True, default=str)
