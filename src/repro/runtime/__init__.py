"""Batched, vectorised query engine for the K-D Bonsai reproduction.

The hot paths of the paper — radius and kNN search over (compressed) k-d
tree leaves — are issued by the workloads in large batches.  This subsystem
walks the tree's flat arrays one level per NumPy step for the whole batch and
performs all leaf work as NumPy kernels over gathered (query, leaf point)
rows, while returning exactly the results of the per-query reference paths.

Public API
----------
:func:`batch_radius_search` / :func:`batch_knn`
    One-shot batched queries over a tree.
:class:`BatchQueryEngine`
    Binds a tree plus a :class:`~repro.kdtree.radius_search.SearchStats`
    accumulator for repeated batches (the batched ``RadiusSearcher``).
:class:`BonsaiBatchSearcher`
    The compressed-leaf (K-D Bonsai) variant, reading each visited leaf
    from the tree's decoded mirror; same results as the baseline.
:class:`BatchRadiusResult` / :class:`BatchKNNResult`
    CSR-style and dense result containers with ``as_lists()`` converters to
    the single-query formats.
:mod:`repro.runtime.kernels`
    The shared leaf-distance kernels (also used by the single-query paths).
:mod:`repro.runtime.queries`
    The query, radius and ``k`` checks every search entry point shares.

Attributes resolve lazily (PEP 562): the single-query modules import
:mod:`repro.runtime.kernels` without dragging in the engine, and the engine
imports the k-d tree package — laziness is what keeps that acyclic.

Example
-------
>>> import numpy as np
>>> from repro.kdtree import build_kdtree
>>> from repro.runtime import BatchQueryEngine
>>> points = np.random.default_rng(1).uniform(-5, 5, (2000, 3)).astype(np.float32)
>>> engine = BatchQueryEngine(build_kdtree(points))
>>> result = engine.radius_search(points[:512], radius=0.8)
>>> result.n_queries, engine.stats.queries
(512, 512)
"""

from importlib import import_module

__all__ = [
    "kernels",
    "BatchKNNResult",
    "BatchQueryEngine",
    "BatchRadiusResult",
    "batch_knn",
    "batch_radius_search",
    "BonsaiBatchSearcher",
]

#: Lazy export table: public name -> submodule that defines it.
#: Do NOT replace this with eager `from .batch import ...` imports:
#: repro.kdtree imports repro.runtime.kernels while repro.runtime.batch
#: imports repro.kdtree, and only the laziness here keeps that acyclic.
_EXPORTS = {
    "BatchKNNResult": ".batch",
    "BatchQueryEngine": ".batch",
    "BatchRadiusResult": ".batch",
    "batch_knn": ".batch",
    "batch_radius_search": ".batch",
    "BonsaiBatchSearcher": ".bonsai",
    "kernels": ".kernels",
}


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(module_name, __name__)
    if name == "kernels":
        value = module
    else:
        value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
