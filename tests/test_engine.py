"""Tests of the engine layer: registry, ExecutionConfig, facade, shims.

The parity of results across backends lives in ``test_backend_parity.py``;
this file covers the API surface itself — name registration and errors,
``ExecutionConfig`` resolution and validation, the ``PointCloudIndex``
facade's bookkeeping, the per-scenario execution/pipeline overrides, and the
removal of the pre-engine entry points (the deprecated spellings completed
their cycle and must now fail loudly).
"""

from __future__ import annotations

import inspect
import warnings
from dataclasses import replace

import numpy as np
import pytest

import repro
from repro.engine import (
    ExecutionConfig,
    PointCloudIndex,
    backend_names,
    get_backend,
    register_backend,
)
from repro.engine.registry import _REGISTRY as _BACKEND_REGISTRY
from repro.kdtree import build_kdtree
from repro.runtime import batch_knn, batch_radius_search
from repro.scenarios import get_scenario
from repro.scenarios.registry import _REGISTRY as _SCENARIO_REGISTRY
from repro.scenarios.registry import register_scenario
from repro.workloads import PipelineRunner, PipelineRunnerConfig


@pytest.fixture(scope="module")
def small_case():
    rng = np.random.default_rng(5)
    points = rng.uniform(-8.0, 8.0, (600, 3)).astype(np.float32)
    queries = points[:40].astype(np.float64) + rng.normal(0.0, 0.3, (40, 3))
    return build_kdtree(points), queries


#: The registry's exact contents: two leaf formats x two strategies.
BUILT_IN_BACKENDS = ["baseline-batched", "baseline-perquery",
                     "bonsai-batched", "bonsai-perquery"]

#: Names no backend answers to, including a removed one.
UNKNOWN_BACKENDS = ("warp-drive", "baseline-batched-mp")


class TestRegistry:
    def test_names_are_sorted_and_complete(self):
        assert backend_names() == BUILT_IN_BACKENDS

    def test_unknown_backend_lists_options(self, small_case):
        tree, _ = small_case
        for name in UNKNOWN_BACKENDS:
            with pytest.raises(KeyError) as excinfo:
                get_backend(name, tree)
            assert f"registered: {', '.join(BUILT_IN_BACKENDS)}" in \
                str(excinfo.value)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("baseline-batched", lambda tree, **_: None)

    def test_malformed_names_rejected_at_registration(self):
        """Names must be '<flavor>-<strategy>' — the layer splits on it."""
        for bad in ("gpu", "Baseline-Batched", "baseline batched", "-batched"):
            with pytest.raises(ValueError, match="flavor"):
                register_backend(bad, lambda tree, **_: None)

    def test_custom_backend_registers_and_resolves(self, small_case):
        tree, queries = small_case
        name = "test-batched"
        register_backend(
            name, lambda t, **opts: get_backend("baseline-batched", t, **opts))
        try:
            assert name in backend_names()
            result = get_backend(name, tree).radius_search(queries, 0.5)
            reference = get_backend("baseline-batched", tree).radius_search(
                queries, 0.5)
            assert np.array_equal(result.point_indices, reference.point_indices)
        finally:
            _BACKEND_REGISTRY.pop(name)


class TestExecutionConfig:
    def test_defaults(self):
        config = ExecutionConfig()
        assert config.backend == "baseline-batched"
        assert not config.hardware and not config.use_bonsai
        assert config.flavor == "baseline" and config.strategy == "batched"

    def test_unknown_backend_rejected_at_construction(self):
        for name in ("baseline",) + UNKNOWN_BACKENDS:
            with pytest.raises(ValueError, match="unknown backend"):
                ExecutionConfig(backend=name)

    def test_make_backend_honours_hardware(self, small_case):
        tree, _ = small_case
        functional = ExecutionConfig(backend="bonsai-batched").make_backend(tree)
        assert functional.name == "bonsai-batched"
        hardware = ExecutionConfig(backend="bonsai-batched",
                                   hardware=True).make_backend(tree)
        assert hardware.name == "bonsai-perquery"
        assert hardware.recorder is not None

    def test_cache_config_reaches_the_recorder(self, small_case):
        from repro.hwmodel.cpu_config import TABLE_IV_CPU

        tree, _ = small_case
        tiny = replace(TABLE_IV_CPU, l1d=replace(TABLE_IV_CPU.l1d,
                                                 size_bytes=4096))
        config = ExecutionConfig(hardware=True, cache_config=tiny)
        backend = config.make_backend(tree)
        assert backend.recorder.hierarchy.l1.config.size_bytes == 4096
        # Without an override the stage's own machine wins.
        default = ExecutionConfig(hardware=True).make_recorder(TABLE_IV_CPU)
        assert default.hierarchy.l1.config.size_bytes == TABLE_IV_CPU.l1d.size_bytes

    def test_index_keys_recorded_backends_by_cpu(self, small_case):
        """Two recorded requests with different geometries must not share."""
        from repro.hwmodel.cpu_config import TABLE_IV_CPU

        tree, _ = small_case
        index = PointCloudIndex(tree)
        tiny = replace(TABLE_IV_CPU, l1d=replace(TABLE_IV_CPU.l1d,
                                                 size_bytes=1024))
        default = index.backend("baseline-batched", recorded=True)
        shrunk = index.backend("baseline-batched", recorded=True, cpu=tiny)
        assert default is not shrunk
        assert shrunk.recorder.hierarchy.l1.config.size_bytes == 1024
        assert default.recorder.hierarchy.l1.config.size_bytes == \
            TABLE_IV_CPU.l1d.size_bytes


class TestPointCloudIndex:
    def test_accepts_points_cloud_or_tree(self, small_case):
        tree, queries = small_case
        from_tree = PointCloudIndex(tree)
        from_points = PointCloudIndex(tree.points)
        assert from_tree.n_points == from_points.n_points == tree.n_points
        a = from_tree.radius_search(queries, 0.5)
        b = from_points.radius_search(queries, 0.5)
        assert np.array_equal(a.point_indices, b.point_indices)

    def test_backend_instances_are_cached(self, small_case):
        tree, _ = small_case
        index = PointCloudIndex(tree)
        assert index.backend("baseline-batched") is index.backend("baseline-batched")
        assert index.backend("baseline-batched") is not index.backend(
            "baseline-batched", recorded=True)

    def test_recorded_backend_merges_hierarchy_stats(self, small_case):
        tree, queries = small_case
        index = PointCloudIndex(tree)
        assert index.hierarchy_stats is None
        index.radius_search(queries, 0.5, recorded=True)
        merged = index.hierarchy_stats
        assert merged is not None and merged.l1_accesses > 0

    def test_bonsai_stats_merge_across_bonsai_backends(self, small_case):
        tree, queries = small_case
        index = PointCloudIndex(tree)
        assert index.bonsai_stats is None
        index.radius_search(queries, 0.5, backend="bonsai-batched")
        index.radius_search(queries, 0.5, backend="bonsai-perquery")
        merged = index.bonsai_stats
        assert merged is not None
        batched = index.backend("bonsai-batched").bonsai_stats
        perquery = index.backend("bonsai-perquery").bonsai_stats
        assert merged.leaf_visits == batched.leaf_visits + perquery.leaf_visits


class TestScenarioExecutionOverrides:
    """Worlds can pin their own backend and pipeline defaults."""

    @pytest.fixture()
    def pinned_scenario(self):
        name = "engine_test_world"
        urban = get_scenario("urban")
        register_scenario(
            name, "urban clone pinning bonsai + no localization",
            defaults=urban.defaults,
            execution=ExecutionConfig(backend="bonsai-batched"),
            pipeline_overrides={"localization": False,
                                "max_detection_extent": 9.0},
        )(urban.scene_factory)
        yield name
        _SCENARIO_REGISTRY.pop(name)

    def test_spec_defaults_flow_into_the_runner(self, pinned_scenario):
        runner = PipelineRunner.from_scenario(pinned_scenario, n_frames=2,
                                              n_beams=10, n_azimuth_steps=80)
        assert runner.config.execution.backend == "bonsai-batched"
        assert runner.config.localization is False
        assert runner.config.max_detection_extent == 9.0

    def test_explicit_config_wins_over_spec(self, pinned_scenario):
        config = PipelineRunnerConfig()
        runner = PipelineRunner.from_scenario(
            pinned_scenario, config=config, n_frames=2,
            n_beams=10, n_azimuth_steps=80)
        assert runner.config.execution.backend == "baseline-batched"
        assert runner.config.localization is True

    def test_explicit_backend_overrides_spec_execution(self, pinned_scenario):
        runner = PipelineRunner.from_scenario(
            pinned_scenario, execution=ExecutionConfig(backend="baseline-perquery"),
            n_frames=2, n_beams=10, n_azimuth_steps=80)
        assert runner.config.execution.backend == "baseline-perquery"
        # The other spec overrides still apply.
        assert runner.config.localization is False


PRESET = dict(n_frames=2, seed=7, n_beams=10, n_azimuth_steps=80)


class TestRemovedEntryPoints:
    """The pre-engine spellings completed their soak and are gone.

    Gone means *loudly* gone — construction-time ``TypeError`` for the
    legacy config booleans, ``AttributeError``/``ImportError`` for the
    top-level shims — while the undeprecated ``repro.runtime`` spellings
    keep working without any warning.
    """

    def test_runner_config_legacy_flags_removed(self):
        with pytest.raises(TypeError):
            PipelineRunnerConfig(use_bonsai=True)
        with pytest.raises(TypeError):
            PipelineRunnerConfig(hardware=True)
        # No mirrored booleans either: the execution config is the one spelling.
        config = PipelineRunnerConfig()
        assert not hasattr(config, "use_bonsai")
        assert not hasattr(config, "hardware")
        assert config.execution == ExecutionConfig()

    def test_runner_config_replace_roundtrip_is_warning_free(self):
        config = PipelineRunnerConfig(
            execution=ExecutionConfig(backend="bonsai-batched"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            copy = replace(config, n_frames=3)
            swapped = replace(config, execution=ExecutionConfig(
                backend="baseline-perquery"))
        assert copy.execution == config.execution and copy.n_frames == 3
        assert swapped.execution.backend == "baseline-perquery"

    def test_top_level_shims_removed(self):
        for name in ("batch_radius_search", "batch_knn", "BonsaiRadiusSearch"):
            with pytest.raises(AttributeError):
                getattr(repro, name)
            assert name not in repro.__all__
            with pytest.raises(ImportError):
                exec(f"from repro import {name}")
        import importlib
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.engine.compat")

    def test_second_execution_mode_spellings_removed(self):
        """ExecutionConfig is the one spelling of the execution mode: the
        boolean and per-field keywords beside it fail like any unknown
        keyword, and the recorded-wrapper helpers are gone."""
        from repro.perception import EuclideanClusterExtractor
        from repro.perception.ndt import NDTMatcher
        from repro.workloads import (EuclideanClusterPipeline,
                                     NDTLocalizationPipeline,
                                     evaluate_subsampling, measure_sequence)

        removed = {
            EuclideanClusterExtractor.__init__: {"use_bonsai"},
            NDTMatcher.__init__: {"use_bonsai"},
            NDTLocalizationPipeline.__init__: {"use_bonsai", "recorder"},
            EuclideanClusterPipeline.run_frame: {"use_bonsai"},
            EuclideanClusterPipeline.run_frames: {"use_bonsai"},
            measure_sequence: {"use_bonsai"},
            evaluate_subsampling: {"use_bonsai"},
            PipelineRunner.from_scenario: {"use_bonsai", "hardware", "backend"},
        }
        for function, names in removed.items():
            parameters = inspect.signature(function).parameters
            assert not names & set(parameters), function.__qualname__
        import repro.engine

        assert not hasattr(repro.engine, "recorded")
        assert not hasattr(ExecutionConfig, "with_flavor")
        assert not hasattr(ExecutionConfig, "with_hardware")

    def test_runtime_spellings_still_work_without_warning(self, small_case):
        """Removal targeted the top-level re-exports only: the batched
        engines stay first-class ``repro.runtime`` API."""
        tree, queries = small_case
        reference = get_backend("baseline-batched", tree)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            radius = batch_radius_search(tree, queries, 0.5)
            knn = batch_knn(tree, queries, 4)
        assert np.array_equal(radius.point_indices,
                              reference.radius_search(queries, 0.5).point_indices)
        assert np.array_equal(knn.indices, reference.knn(queries, 4).indices)

    def test_core_bonsai_class_still_importable(self, small_case):
        """The real class keeps living in repro.core; only the top-level
        deprecation shim is gone."""
        from repro.core.bonsai_search import BonsaiRadiusSearch

        tree, queries = small_case
        search = BonsaiRadiusSearch(build_kdtree(tree.points))
        assert sorted(search.search(queries[0], 0.5)) == \
            sorted(get_backend("baseline-batched", tree).search(queries[0], 0.5))
