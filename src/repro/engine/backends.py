"""Execution backends: one class per leaf format, and the recorded walks.

The repo answers the same two questions ("which points are within ``r`` of
these queries?", "which ``k`` points are nearest?") in two leaf formats,
each one class with one traversal per query batch, named in
:data:`BACKENDS`:

==================== ==================================================== ==========
name                 class                                                leaf data
==================== ==================================================== ==========
``baseline-batched`` :class:`~repro.runtime.batch.BaselineBatchedBackend` 32-bit
``bonsai-batched``   :class:`~repro.runtime.bonsai.BonsaiBatchedBackend`  compressed
==================== ==================================================== ==========

``docs/PERFORMANCE.md`` is the selection guide, with measured throughput
per backend.

Every backend returns the uniform batched containers
(:class:`~repro.runtime.batch.BatchRadiusResult`,
:class:`~repro.runtime.batch.BatchKNNResult`) with per-query index-sorted
radius hits, and accumulates the shared counters
(:class:`~repro.kdtree.radius_search.SearchStats`, plus
:class:`~repro.core.bonsai_search.BonsaiStats` for the compressed format).
All of them produce *identical* functional results; the cross-backend parity
suite (``tests/test_backend_parity.py``) locks that down for every name.

Mode selection is data a config file, a CLI flag or a sweep loop can carry,
so workloads, benchmarks and the CLI select backends by name through
:func:`get_backend`, and :func:`backend_names` is the single source of the
valid names (``--help`` listings, sweep dimensions and error messages all
derive from it)::

    from repro.engine import backend_names, get_backend

    for name in backend_names():
        backend = get_backend(name, tree)
        result = backend.radius_search(queries, radius=0.6)

Recording is part of the execution mode:
``ExecutionConfig(backend=name, hardware=True).make_backend(tree)``
(:mod:`repro.engine.execution`) builds the format's recorded per-query walk
instead (:data:`RECORDED_BACKENDS`), whose access order the trace-driven
cache model depends on: every tree access streams through the cache
simulation while the functional results stay bitwise unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from ..core.bonsai_search import BonsaiLeafInspector, BonsaiStats, compress_and_record
from ..kdtree.build import KDTree
from ..kdtree.knn import nearest_neighbors
from ..kdtree.radius_search import MemoryRecorder, SearchStats, radius_search
from ..runtime.batch import BaselineBatchedBackend, BatchKNNResult, BatchRadiusResult
from ..runtime.bonsai import BonsaiBatchedBackend
from ..runtime.queries import as_query_batch, check_k, check_radius

__all__ = [
    "BACKENDS",
    "RECORDED_BACKENDS",
    "SearchBackend",
    "BaselinePerQueryBackend",
    "BaselineBatchedBackend",
    "BonsaiPerQueryBackend",
    "BonsaiBatchedBackend",
    "backend_names",
    "get_backend",
]


@runtime_checkable
class SearchBackend(Protocol):
    """What every execution backend exposes (duck-typed).

    ``radius_search`` / ``knn`` take whole query batches and return the
    uniform batched result containers.  ``stats`` always accumulates;
    ``bonsai_stats`` is ``None`` on the baseline format and ``recorder`` is
    ``None`` on unrecorded backends.

    Units and determinism: queries and radii are in the cloud's coordinate
    unit (metres for every built-in scenario), returned distances are
    euclidean in the same unit, and byte counters
    (``stats.point_bytes_loaded`` etc.) are in bytes.  For a given tree and
    query batch every backend, recorded or not, must return
    bitwise-identical hits and neighbours and charge identical functional
    radius counters: recording is never allowed to show up in results.
    """

    name: str
    tree: KDTree
    stats: SearchStats
    bonsai_stats: Optional[BonsaiStats]
    recorder: Optional[MemoryRecorder]

    def radius_search(self, queries, radius: float) -> BatchRadiusResult:  # pragma: no cover - protocol
        ...

    def knn(self, queries, k: int) -> BatchKNNResult:  # pragma: no cover - protocol
        ...


class BaselinePerQueryBackend:
    """The recorded 32-bit walk: one traversal per query (PCL/FLANN's path).

    Every tree access streams into ``recorder``.  ``search`` is one query's
    radius search in the walk's native order (the recorded cluster growth
    calls it); batches loop over it and present the hits in the batched CSR
    layout with each query's indices sorted, bitwise identical to the
    batched backends' output.  kNN batches loop over the per-query
    branch-and-bound search into the dense :class:`BatchKNNResult` layout.
    """

    name = "recorded(baseline)"
    bonsai_stats: Optional[BonsaiStats] = None

    def __init__(self, tree: KDTree, *, recorder: MemoryRecorder,
                 stats: Optional[SearchStats] = None):
        self.tree = tree
        self.stats = stats if stats is not None else SearchStats()
        self.recorder = recorder

    @property
    def hierarchy(self):
        """Cache-hierarchy statistics of the recorder."""
        return self.recorder.stats

    def search(self, query: Sequence[float], radius: float) -> List[int]:
        """Single-query radius search (native traversal order)."""
        return radius_search(self.tree, query, radius, stats=self.stats,
                             recorder=self.recorder)

    def radius_search(self, queries, radius: float) -> BatchRadiusResult:
        """Per-query searches presented in the batched (CSR) result format."""
        radius = check_radius(radius)
        batch = as_query_batch(queries)
        offsets = np.zeros(batch.shape[0] + 1, dtype=np.intp)
        chunks: List[np.ndarray] = []
        for index, query in enumerate(batch):
            hits = np.sort(np.asarray(self.search(query, radius), dtype=np.intp))
            chunks.append(hits)
            offsets[index + 1] = offsets[index] + hits.shape[0]
        indices = (np.concatenate(chunks) if chunks
                   else np.zeros(0, dtype=np.intp))
        return BatchRadiusResult(offsets=offsets, point_indices=indices)

    def knn(self, queries, k: int) -> BatchKNNResult:
        """Per-query kNN presented in the dense batched result layout.

        Both formats answer kNN through the exact 32-bit branch-and-bound
        search (radius search is the operation the compressed leaves
        accelerate), so every backend returns identical neighbours; the
        walk records its node and 32-bit point loads.
        """
        k = check_k(k)
        batch = as_query_batch(queries)
        width = min(k, self.tree.n_points)
        indices = np.full((batch.shape[0], width), -1, dtype=np.intp)
        distances = np.full((batch.shape[0], width), np.inf)
        for row, query in enumerate(batch):
            for column, (point_index, distance) in enumerate(
                    nearest_neighbors(self.tree, query, k, stats=self.stats,
                                      recorder=self.recorder)):
                indices[row, column] = point_index
                distances[row, column] = distance
        return BatchKNNResult(indices=indices, distances=distances)


class BonsaiPerQueryBackend(BaselinePerQueryBackend):
    """The recorded compressed-leaf walk: one traversal per query (the
    paper's search).

    The traversal is the baseline's; a :class:`BonsaiLeafInspector`
    classifies each reached leaf from its compressed slices and recomputes
    inconclusive points in 32-bit, so results equal the baseline's.
    Compresses the tree on construction when it is not already
    (:func:`~repro.core.bonsai_search.compress_and_record`, in FLOAT16):
    that build-time compression traffic is part of the recorded trace (as
    in the extract kernel), whereas a pre-compressed tree — an offline map
    — contributes nothing.
    """

    name = "recorded(bonsai)"

    def __init__(self, tree: KDTree, *, recorder: MemoryRecorder,
                 stats: Optional[SearchStats] = None):
        super().__init__(tree, recorder=recorder, stats=stats)
        #: Tree-compression report (``None`` when the tree was pre-compressed).
        self.report = compress_and_record(tree, recorder=recorder)
        self.inspector = BonsaiLeafInspector(tree.compressed_array)
        self.bonsai_stats = self.inspector.bonsai_stats

    def search(self, query: Sequence[float], radius: float) -> List[int]:
        """Single-query compressed radius search (native traversal order)."""
        return radius_search(self.tree, query, radius, inspector=self.inspector,
                             stats=self.stats, recorder=self.recorder)


#: Every execution backend, by name: one per leaf format.  A new backend is
#: a class with the :class:`SearchBackend` surface and one line here; the
#: name then works wherever backends are selected.
BACKENDS: Dict[str, type] = {
    "baseline-batched": BaselineBatchedBackend,
    "bonsai-batched": BonsaiBatchedBackend,
}

#: The recorded walk of each leaf format, by flavour (a backend name's part
#: before its ``-``); ``ExecutionConfig.make_backend`` builds them.
RECORDED_BACKENDS: Dict[str, type] = {
    "baseline": BaselinePerQueryBackend,
    "bonsai": BonsaiPerQueryBackend,
}


def backend_names() -> List[str]:
    """Sorted names of all execution backends."""
    return sorted(BACKENDS)


def get_backend(name: str, tree: KDTree, **opts) -> SearchBackend:
    """Construct the named backend over ``tree``.

    ``opts`` are forwarded to the backend constructor: every backend accepts
    ``stats=`` (a shared :class:`~repro.kdtree.radius_search.SearchStats`
    accumulator) and ``bonsai-batched`` also ``fmt=`` (the reduced float
    format it compresses an uncompressed tree in).  Raises ``KeyError``
    naming the registered backends on an unknown name.
    """
    try:
        backend = BACKENDS[name]
    except KeyError:
        known = ", ".join(backend_names())
        raise KeyError(f"unknown backend {name!r}; registered: {known}") from None
    return backend(tree, **opts)
