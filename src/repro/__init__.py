"""K-D Bonsai reproduction.

A functional reproduction of *K-D Bonsai: ISA-Extensions to Compress K-D
Trees for Autonomous Driving Tasks* (ISCA 2023): value-similarity + reduced
precision compression of k-d tree leaves for radius search, an ISA-level
functional model of the Bonsai-extensions, and a first-order hardware cost
model used to regenerate the paper's tables and figures.

Subpackages
-----------
``repro.core``
    Float formats, the worst-case error model, leaf compression and the
    compressed (Bonsai) leaf inspector.
``repro.pointcloud``
    Point cloud containers, synthetic LiDAR and driving scenes, filters, I/O.
``repro.scenarios``
    Scenario library: named, seeded, parameterized worlds (urban, highway,
    tunnel, warehouse, ...) behind one registry.
``repro.kdtree``
    PCL/FLANN-style leaf-based k-d tree and the single-query reference
    searches (radius, kNN) every backend must match.
``repro.runtime``
    The two batched backends: many queries per traversal, shared
    leaf-distance kernels, exact parity with the per-query paths.
``repro.engine``
    Unified execution-backend API: four named backends
    (``baseline-perquery``, ``baseline-batched``, ``bonsai-perquery``,
    ``bonsai-batched``), one class each, in one name→class table, the
    :class:`~repro.engine.index.PointCloudIndex` facade, and
    :class:`~repro.engine.execution.ExecutionConfig` carried by workloads.
``repro.perception``
    Euclidean cluster extraction and a simplified NDT registration.
``repro.isa``
    Functional simulator of the six Bonsai instructions (ZipPts buffer,
    compress/decompress logic, (A-B')^2 functional units).
``repro.hwmodel``
    Cache/memory hierarchy simulation, timing, energy and area models.
``repro.workloads``
    Autoware-like pipelines, execution-share profiling and sub-sampling.
``repro.analysis``
    Metrics, baseline-vs-Bonsai comparison and report rendering.
``repro.campaign``
    Differential-testing campaign engine: randomized worlds fired at every
    registered backend, pairwise diffing, divergence shrinking.
``repro.serve``
    Serving layer: the shared-memory :class:`~repro.serve.store.SharedCloudStore`
    (compress once, attach everywhere) and the pooled
    :class:`~repro.serve.service.QueryService` of radius/kNN requests.
``repro.lint``
    Project-native static analysis: determinism, resource-lifecycle and
    multiprocessing-safety rules behind a name registry, surfaced as
    ``repro lint`` and the CI lint gate (``docs/LINT.md``).
``repro.trends``
    Golden-metric trend tracking: versioned per-commit benchmark/campaign
    records in a deterministic JSONL store, threshold regression
    detection, and the static HTML trend explorer, surfaced as
    ``repro trends`` (``docs/TRENDS.md``).

Top-level exports
-----------------
The most common entry points re-export lazily (PEP 562) at the package root,
so ``import repro`` stays cheap while scripts can write ``repro.build_kdtree``
instead of spelling out the subpackage:

``build_kdtree(cloud_or_points, config=None)``
    Build the PCL/FLANN-style leaf-based k-d tree
    (:func:`repro.kdtree.build.build_kdtree`).
``radius_search(tree, query, radius, ...)``
    Single-query baseline radius search
    (:func:`repro.kdtree.radius_search.radius_search`).
``nearest_neighbors(tree, query, k, ...)``
    Single-query kNN (:func:`repro.kdtree.knn.nearest_neighbors`).
``PointCloudIndex``
    The engine facade: build the k-d tree once, query through any named
    backend (:class:`repro.engine.index.PointCloudIndex`).
``backend_names()`` / ``get_backend(name, tree, **opts)``
    The execution backends by name (:mod:`repro.engine.backends`).
``ExecutionConfig``
    A workload's execution mode as data: backend name, hardware switch,
    recorded cache geometry (:class:`repro.engine.execution.ExecutionConfig`).
``SearchStats``
    Functional search counters shared by every query path
    (:class:`repro.kdtree.radius_search.SearchStats`).
``PipelineRunner`` / ``PipelineRunnerConfig``
    End-to-end perception pipeline over a scenario sequence
    (:mod:`repro.workloads.pipeline`), frames overlapped across threads
    and folded in frame order; pass
    ``PipelineRunnerConfig(execution=ExecutionConfig(...))`` to pick the
    search backend and the hardware-in-the-loop mode.
``HardwareScenarioSweep``
    Every scenario x {baseline, Bonsai} through the hardware-in-the-loop
    pipeline (:mod:`repro.analysis.hw_sweep`), optionally across a process
    pool (``n_jobs``) with a deterministic merge.
``CacheGeometrySweep``
    The hardware matrix over named L1/L2 geometry variants
    (:mod:`repro.analysis.cache_sweep`) — the cache-sensitivity driver.
``scenario_names()`` / ``get_scenario`` / ``build_scene`` / ``build_sequence``
    The scenario library registry (:mod:`repro.scenarios`).
``run_campaign`` / ``CampaignConfig`` / ``random_world``
    The differential-testing campaign engine (:mod:`repro.campaign`).
``run_lint`` / ``rule_names``
    The static analyzer and its rule registry (:mod:`repro.lint`).
``TrendRecord`` / ``TrendStore`` / ``find_regressions`` / ``render_dashboard``
    Golden-metric trend tracking (:mod:`repro.trends`): the versioned
    record, the deterministic JSONL store, the baseline-vs-head regression
    detector and the static HTML explorer.
``SharedCloudStore`` / ``QueryService``
    The serving layer (:mod:`repro.serve`): the shared-memory store and the
    pooled query service over it.

Every search object is one of the four backends ``get_backend(name,
tree)`` builds; the pre-engine spellings (``batch_radius_search``,
``batch_knn``, ``BonsaiRadiusSearch``, ``BatchQueryEngine``,
``BonsaiBatchSearcher``) are gone.
"""

from importlib import import_module

__version__ = "2.0.0"

#: Lazy export table: public name -> defining submodule.
_EXPORTS = {
    "build_kdtree": "repro.kdtree",
    "radius_search": "repro.kdtree",
    "nearest_neighbors": "repro.kdtree",
    "SearchStats": "repro.kdtree",
    "PointCloudIndex": "repro.engine",
    "ExecutionConfig": "repro.engine",
    "backend_names": "repro.engine",
    "get_backend": "repro.engine",
    "CampaignConfig": "repro.campaign",
    "run_campaign": "repro.campaign",
    "random_world": "repro.campaign",
    "run_lint": "repro.lint",
    "rule_names": "repro.lint",
    "TrendRecord": "repro.trends",
    "TrendStore": "repro.trends",
    "find_regressions": "repro.trends",
    "render_dashboard": "repro.trends",
    "PipelineRunner": "repro.workloads",
    "PipelineRunnerConfig": "repro.workloads",
    "SharedCloudStore": "repro.serve",
    "QueryService": "repro.serve",
    "HardwareScenarioSweep": "repro.analysis",
    "CacheGeometrySweep": "repro.analysis",
    "build_sequence": "repro.scenarios",
    "build_scene": "repro.scenarios",
    "scenario_names": "repro.scenarios",
    "get_scenario": "repro.scenarios",
}

__all__ = ["__version__"] + sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
