"""Tests of the engine layer: backend names, ExecutionConfig, facade, removals.

The parity of results across backends lives in ``test_backend_parity.py``;
this file covers the API surface itself — the name→class table and its
errors, ``ExecutionConfig`` resolution and validation, the
``PointCloudIndex`` facade's bookkeeping, and the removal of the second
spellings beside them (removed names must fail loudly).
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
)
from repro.engine import backends as backends_module
from repro.kdtree import build_kdtree
from repro.scenarios.registry import _REGISTRY as _SCENARIO_REGISTRY
from repro.scenarios.registry import ScenarioSpec, register_scenario
from repro.workloads import PipelineRunner, PipelineRunnerConfig


@pytest.fixture(scope="module")
def small_case():
    rng = np.random.default_rng(5)
    points = rng.uniform(-8.0, 8.0, (600, 3)).astype(np.float32)
    queries = points[:40].astype(np.float64) + rng.normal(0.0, 0.3, (40, 3))
    return build_kdtree(points), queries


#: The registry's exact contents: one backend per leaf format.
BUILT_IN_BACKENDS = ["baseline-batched", "bonsai-batched"]

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

    def test_custom_backend_registers_and_resolves(self, small_case, monkeypatch):
        """A test's fake backend is one table entry, reachable by name."""
        tree, queries = small_case
        monkeypatch.setitem(backends_module.BACKENDS, "test-batched",
                            backends_module.BaselineBatchedBackend)
        assert "test-batched" in backend_names()
        result = get_backend("test-batched", tree).radius_search(queries, 0.5)
        reference = get_backend("baseline-batched", tree).radius_search(queries, 0.5)
        assert np.array_equal(result.point_indices, reference.point_indices)


class TestExecutionConfig:
    def test_defaults(self):
        config = ExecutionConfig()
        assert config.backend == "baseline-batched"
        assert not config.hardware and not config.use_bonsai
        assert config.flavor == "baseline"

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
        assert type(hardware) is backends_module.BonsaiPerQueryBackend
        assert hardware.name == "recorded(bonsai)"
        assert hardware.recorder is not None
        baseline = ExecutionConfig(hardware=True).make_backend(tree)
        assert type(baseline) is backends_module.BaselinePerQueryBackend
        assert baseline.name == "recorded(baseline)"
        assert baseline.recorder is not None
        assert backends_module.RECORDED_BACKENDS == {
            "baseline": backends_module.BaselinePerQueryBackend,
            "bonsai": backends_module.BonsaiPerQueryBackend}

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
        recorded = index.backend("baseline-batched", recorded=True)
        assert recorded.hierarchy.l1_accesses == 0
        want = index.radius_search(queries, 0.5)
        got = recorded.radius_search(queries, 0.5)
        assert np.array_equal(got.point_indices, want.point_indices)
        assert recorded.hierarchy.l1_accesses > 0
        # The unrecorded backend beside it records nothing.
        assert getattr(index.backend("baseline-batched"), "hierarchy", None) is None

    def test_bonsai_stats_merge_across_bonsai_backends(self, small_case):
        tree, queries = small_case
        index = PointCloudIndex(tree)
        assert index.bonsai_stats is None
        index.radius_search(queries, 0.5, backend="bonsai-batched")
        index.backend("bonsai-batched", recorded=True).radius_search(queries, 0.5)
        merged = index.bonsai_stats
        assert merged is not None
        batched = index.backend("bonsai-batched").bonsai_stats
        perquery = index.backend("bonsai-batched", recorded=True).bonsai_stats
        assert merged.leaf_visits == batched.leaf_visits + perquery.leaf_visits


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
                backend="baseline-batched", hardware=True))
        assert copy.execution == config.execution and copy.n_frames == 3
        assert swapped.execution.hardware

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

    def test_one_pipeline_runner_one_configuration(self, small_case):
        """PipelineRunner is the one runner and PipelineRunnerConfig its one
        source of configuration: the streaming fork, the scenario-pinned
        modes, the service's pipeline requests and its unused knobs are
        gone, with no shim."""
        import importlib

        import repro.serve
        import repro.workloads
        import repro.workloads.pipeline
        from repro.serve import QueryService

        removed = {
            repro: ("StreamingPipelineRunner",),
            repro.serve: ("StreamingPipelineRunner",),
            repro.workloads: ("StreamingPipelineRunner", "__getattr__"),
            repro.workloads.pipeline: ("FrameFold",),
            QueryService: ("pipeline",),
            ScenarioSpec: ("execution", "pipeline_overrides"),
        }
        for owner, names in removed.items():
            for name in names:
                assert not hasattr(owner, name), f"{owner.__name__}.{name}"
                assert name not in getattr(owner, "__all__", ())
        assert repro.serve.__all__ == ["QueryService", "SharedCloudStore"]
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.serve.streaming")

        with pytest.raises(TypeError):
            PipelineRunner.from_scenario("urban", n_frames=2,
                                         execution=ExecutionConfig())
        with pytest.raises(TypeError):
            register_scenario("pinned_world", "pins a mode",
                              execution=ExecutionConfig())
        with pytest.raises(TypeError):
            register_scenario("pinned_world", "pins stage settings",
                              pipeline_overrides={"localization": False})
        assert "pinned_world" not in _SCENARIO_REGISTRY

        parameters = inspect.signature(QueryService).parameters
        assert not {"serial", "tree_config", "fmt"} & set(parameters)
        tree, _ = small_case
        with QueryService(tree.points, n_workers=1) as service:
            with pytest.raises(ValueError, match="unknown service request"):
                service.serve([("pipeline", "urban", 2, 0, "baseline-batched")])

    def test_one_job_for_each_index_facade(self, small_case):
        """The sharded index answers radius batches only, and both facades
        keep just what their callers use: the sharded kNN, single-query
        search, merged statistics, tile accessors and knobs are gone, as are
        PointCloudIndex.search, its hierarchy_stats and the recorded=
        keyword of its queries, with no shim."""
        from repro.engine import ShardedPointCloudIndex
        from repro.engine import sharded as sharded_module

        removed = {
            ShardedPointCloudIndex: (
                "knn", "_knn_chunk", "search", "search_stats", "bonsai_stats",
                "hierarchy_stats", "tile_counts", "tile_cells", "tile_bounds",
                "n_built_tiles", "build_all", "ensure_compressed",
                "_query_chunks", "_backend_for"),
            PointCloudIndex: ("search", "hierarchy_stats"),
            sharded_module: ("DEFAULT_CHUNK_QUERIES",),
            ExecutionConfig: ("strategy",),
        }
        for owner, names in removed.items():
            for name in names:
                assert not hasattr(owner, name), f"{owner.__name__}.{name}"
                assert name not in getattr(owner, "__all__", ())
        assert list(inspect.signature(ShardedPointCloudIndex).parameters) == \
            ["cloud", "tile_size"]
        for keyword in ("tree_config", "fmt", "chunk_queries"):
            with pytest.raises(TypeError):
                ShardedPointCloudIndex(np.zeros((1, 3)), **{keyword: None})
        tree, queries = small_case
        index = PointCloudIndex(tree)
        for method in (index.radius_search, index.knn):
            assert "recorded" not in inspect.signature(method).parameters
        with pytest.raises(TypeError):
            index.radius_search(queries, 0.5, recorded=True)
        with pytest.raises(TypeError):
            index.knn(queries, 3, recorded=True)
        # A recorded backend is still one backend() call away.
        recorded = index.backend("bonsai-batched", recorded=True)
        recorded.radius_search(queries, 0.5)
        assert recorded.hierarchy.l1_accesses > 0
        # The sharded index keeps its recorded radius batches.
        with ShardedPointCloudIndex(tree.points, tile_size=4.0) as sharded:
            got = sharded.radius_search(queries, 0.5, backend="bonsai-batched",
                                        recorded=True)
            want = index.radius_search(queries, 0.5)
            assert np.array_equal(got.point_indices, want.point_indices)

    def test_one_class_per_backend(self, small_case):
        """Each name is one class; the wrappers, one-shots, the registry
        module and the shard-merge helpers beside them are gone."""
        import importlib

        import repro.core
        import repro.core.bonsai_search
        import repro.engine
        import repro.engine.parallel
        import repro.kdtree
        import repro.kdtree.knn
        import repro.kdtree.radius_search
        import repro.runtime
        import repro.runtime.batch
        import repro.runtime.bonsai

        removed = {
            repro: ("BatchQueryEngine", "BonsaiBatchSearcher",
                    "batch_radius_search", "batch_knn", "BonsaiRadiusSearch"),
            repro.runtime: ("BatchQueryEngine", "BonsaiBatchSearcher",
                            "batch_radius_search", "batch_knn"),
            repro.runtime.batch: ("BatchQueryEngine", "batch_radius_search",
                                  "batch_knn"),
            repro.runtime.bonsai: ("BonsaiBatchSearcher",),
            repro.core: ("BonsaiRadiusSearch",),
            repro.core.bonsai_search: ("BonsaiRadiusSearch",),
            repro.kdtree: ("RadiusSearcher", "nearest_neighbor"),
            repro.kdtree.radius_search: ("RadiusSearcher",),
            repro.kdtree.knn: ("nearest_neighbor",),
            repro.engine: ("register_backend",),
            backends_module: ("register_backend", "_PerQueryBackendBase"),
            repro.engine.parallel: ("plan_shards", "merge_radius_shards",
                                    "merge_knn_shards"),
        }
        for module, names in removed.items():
            for name in names:
                assert not hasattr(module, name), f"{module.__name__}.{name}"
                assert name not in getattr(module, "__all__", ())
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.engine.registry")

        tree, queries = small_case
        for name in BUILT_IN_BACKENDS:
            backend = get_backend(name, build_kdtree(tree.points))
            assert type(backend) is backends_module.BACKENDS[name]
            assert type(backend) is getattr(repro.engine, type(backend).__name__)
            assert backend.name == name

        # bonsai-batched kNN charges the backend's own stats, as
        # baseline-batched's does.
        counts = {}
        for name in ("baseline-batched", "bonsai-batched"):
            backend = get_backend(name, build_kdtree(tree.points))
            result = backend.knn(queries, 4)
            counts[name] = (backend.stats.queries, backend.stats.leaves_visited,
                            backend.stats.points_examined)
            assert backend.stats.queries == len(queries)
            assert result.indices.shape == (len(queries), 4)
        assert counts["bonsai-batched"] == counts["baseline-batched"]

    def test_a_backend_name_is_a_leaf_format(self, small_case):
        """The per-query walks left the backend table and run only when
        recording: the ``*-perquery`` names, the batched classes' and the
        protocol's single-query ``search``, the index's tree_config=/fmt=,
        the fmt= of the recorded Bonsai walk and its inspector, the
        unrecorded walks and ``batch-sweep --compare-loop`` are gone, with
        no shim."""
        from repro.campaign import CampaignConfig
        from repro.cli import build_parser
        from repro.core.bonsai_search import BonsaiLeafInspector
        from repro.core.floatfmt import BFLOAT16
        from repro.serve import QueryService

        tree, queries = small_case
        for name in ("baseline-perquery", "bonsai-perquery"):
            with pytest.raises(KeyError) as excinfo:
                get_backend(name, tree)
            assert f"registered: {', '.join(BUILT_IN_BACKENDS)}" in \
                str(excinfo.value)
            with pytest.raises(ValueError, match="unknown backend"):
                ExecutionConfig(backend=name)
            with pytest.raises(KeyError, match="baseline-batched"):
                PointCloudIndex(tree).backend(name)
            with pytest.raises(KeyError, match="baseline-batched"):
                PointCloudIndex(tree).backend(name, recorded=True)
            with pytest.raises(KeyError, match="baseline-batched"):
                CampaignConfig(backends=(name,)).resolved_backends()
            for command in ("cluster", "batch-sweep", "pipeline", "campaign"):
                with pytest.raises(SystemExit):
                    build_parser().parse_args([command, "--backend", name])
        with QueryService(tree.points, n_workers=1) as service:
            with pytest.raises(KeyError, match="baseline-batched"):
                service.radius(queries, 0.5, backend="bonsai-perquery")

        for cls in (backends_module.BaselineBatchedBackend,
                    backends_module.BonsaiBatchedBackend):
            assert not hasattr(cls, "search"), cls.__name__
        assert "search" not in backends_module.SearchBackend.__dict__
        for name in BUILT_IN_BACKENDS:
            with pytest.raises(TypeError):
                get_backend(name, tree, recorder=object())
        for keyword in ("tree_config", "fmt"):
            with pytest.raises(TypeError):
                PointCloudIndex(tree.points, **{keyword: None})
        assert list(inspect.signature(PointCloudIndex).parameters) == ["cloud"]
        for cls in backends_module.RECORDED_BACKENDS.values():
            with pytest.raises(TypeError):
                cls(tree)
        with pytest.raises(TypeError):
            backends_module.BonsaiPerQueryBackend(
                build_kdtree(tree.points), recorder=object(), fmt=BFLOAT16)
        with pytest.raises(TypeError):
            BonsaiLeafInspector(None, BFLOAT16)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["batch-sweep", "--compare-loop"])

    def test_the_creator_owns_the_shared_store(self, small_case):
        """create() takes the cloud only and attach() the name only; the
        cross-process count, its lock and the per-array segments are gone,
        with no shim."""
        from repro.serve import SharedCloudStore
        from repro.serve import store as store_module

        tree, queries = small_case
        for keyword in ("name", "tree_config", "fmt"):
            with pytest.raises(TypeError):
                SharedCloudStore.create(tree.points, **{keyword: None})
        assert list(inspect.signature(SharedCloudStore.create).parameters) == \
            ["cloud"]
        assert list(inspect.signature(SharedCloudStore.attach).parameters) == \
            ["name"]
        for name in ("refcount", "_locked", "_read_refcount", "_write_refcount"):
            assert not hasattr(SharedCloudStore, name), name
        for name in ("_CTRL_BYTES", "fcntl", "struct"):
            assert not hasattr(store_module, name), name
        assert store_module.SEGMENT_SUFFIXES == ("meta", "data", "dec")
        with SharedCloudStore.create(tree.points) as store:
            with pytest.raises(TypeError):
                SharedCloudStore.attach(store.name, refcounted=False)
            assert not hasattr(store, "refcount")
            with SharedCloudStore.attach(store.name) as client, \
                    client.index() as served, PointCloudIndex(tree) as local:
                got = served.radius_search(queries, 0.5)
                want = local.radius_search(queries, 0.5)
                assert np.array_equal(got.point_indices, want.point_indices)

    def test_hardware_sweeps_compare_baseline_with_bonsai(self):
        """A recorded run traces its flavour's per-query walk, so a hardware
        sweep compares the two flavours and takes no backend axis: the
        backend keywords, the unset cache_config= and map-scale knobs,
        mode_label and the results' modes/flavors fields are gone, with no
        shim."""
        import dataclasses

        from repro.analysis import (CacheGeometrySweep, HardwareScenarioSweep,
                                    MapScaleSweep, cache_sweep, hw_sweep,
                                    map_scale)

        removed_keywords = {
            HardwareScenarioSweep: ("backends", "cache_config"),
            CacheGeometrySweep: ("backends",),
            MapScaleSweep: ("flavors", "geometries", "radius", "query_extent"),
        }
        for cls, keywords in removed_keywords.items():
            for keyword in keywords:
                with pytest.raises(TypeError):
                    cls(**{keyword: None})
        for module, name in ((hw_sweep, "mode_label"),
                             (map_scale, "MAP_SCALE_FLAVORS")):
            assert not hasattr(module, name), name
            assert name not in module.__all__
        for result, name in ((hw_sweep.HardwareSweepResult, "modes"),
                             (cache_sweep.CacheSweepResult, "modes"),
                             (map_scale.MapScaleResult, "flavors")):
            assert name not in {f.name for f in dataclasses.fields(result)}
        assert hw_sweep.SWEEP_MODES == ("baseline", "bonsai")
        assert [ExecutionConfig(backend=name).flavor
                for name in hw_sweep.SWEEP_BACKENDS] == list(hw_sweep.SWEEP_MODES)

    def test_ndt_map_keeps_its_gaussians_as_arrays_only(self):
        import repro.perception
        from repro.perception import ndt

        for owner in (repro.perception, ndt):
            assert not hasattr(owner, "VoxelGaussian")
            assert "VoxelGaussian" not in owner.__all__
        assert not hasattr(ndt.NDTMap, "voxels")
