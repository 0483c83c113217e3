"""Execution backends: one query surface over every search implementation.

The repo answers the same two questions ("which points are within ``r`` of
these queries?", "which ``k`` points are nearest?") four ways: per-query
baseline search, the batched vectorised engine, and the Bonsai compressed
variants of both — plus a recorded flavour that streams every tree access
through the trace-driven cache simulation.

This module normalises them behind one :class:`SearchBackend` protocol:

======================== ============================================== =========
name                     implementation                                 leaf data
======================== ============================================== =========
``baseline-perquery``    one traversal per query                        32-bit
``baseline-batched``     one traversal per batch (:mod:`repro.runtime`) 32-bit
``bonsai-perquery``      per-query compressed search (:mod:`repro.core`) compressed
``bonsai-batched``       batched compressed search                      compressed
======================== ============================================== =========

``docs/PERFORMANCE.md`` is the selection guide, with measured throughput
per backend.

Every backend — whatever its internal execution strategy — returns the
uniform batched containers (:class:`~repro.runtime.batch.BatchRadiusResult`,
:class:`~repro.runtime.batch.BatchKNNResult`) with per-query index-sorted
radius hits, and accumulates the shared counters
(:class:`~repro.kdtree.radius_search.SearchStats`, plus
:class:`~repro.core.bonsai_search.BonsaiStats` for the compressed flavours).
All of them produce *identical* functional results; the cross-backend parity
suite (``tests/test_backend_parity.py``) locks that down for every
registered name.

Recording is part of the execution mode:
``ExecutionConfig(backend=name, hardware=True).make_backend(tree)``
(:mod:`repro.engine.execution`) builds the flavour's per-query backend with a
:class:`~repro.hwmodel.cache.HierarchyRecorder` attached, so every tree
access streams through the cache simulation while the functional results
stay bitwise unchanged.

Backends are constructed by name through :mod:`repro.engine.registry`
(:func:`~repro.engine.registry.get_backend`); nothing outside this package
should instantiate the concrete classes directly.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from ..core.bonsai_search import BonsaiRadiusSearch, BonsaiStats
from ..core.floatfmt import FLOAT16, FloatFormat
from ..kdtree.build import KDTree
from ..kdtree.knn import nearest_neighbors
from ..kdtree.radius_search import MemoryRecorder, SearchStats, radius_search
from ..runtime.batch import BatchKNNResult, BatchQueryEngine, BatchRadiusResult
from ..runtime.bonsai import BonsaiBatchSearcher
from ..runtime.queries import as_query_batch, check_k, check_radius

__all__ = [
    "SearchBackend",
    "BaselinePerQueryBackend",
    "BaselineBatchedBackend",
    "BonsaiPerQueryBackend",
    "BonsaiBatchedBackend",
]


@runtime_checkable
class SearchBackend(Protocol):
    """What every execution backend exposes (duck-typed).

    ``radius_search`` / ``knn`` take whole query batches and return the
    uniform batched result containers; ``search`` is the single-query
    convenience used by per-query consumers (its return order is the
    backend's native traversal order, which the recorded paths depend on).
    ``stats`` always accumulates; ``bonsai_stats`` is ``None`` on the
    baseline flavours and ``recorder`` is ``None`` on unrecorded backends.

    Units and determinism: queries and radii are in the cloud's coordinate
    unit (metres for every built-in scenario), returned distances are
    euclidean in the same unit, and byte counters
    (``stats.point_bytes_loaded`` etc.) are in bytes.  For a given tree and
    query batch every registered backend must return bitwise-identical hits
    and neighbours and charge identical functional counters — execution
    strategy (per-query or batched) is never allowed to show up in
    results.
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

    def search(self, query: Sequence[float], radius: float) -> List[int]:  # pragma: no cover - protocol
        ...


class _PerQueryBackendBase:
    """Shared machinery of the per-query flavours.

    Single queries go through the reference per-query search; batches loop
    over it and present the hits in the batched CSR layout with each query's
    indices sorted — bitwise identical to the batched engines' output (the
    property the hardware-in-the-loop pipeline relies on).  kNN batches loop
    over the per-query branch-and-bound search into the dense
    :class:`BatchKNNResult` layout.
    """

    name = "perquery"

    tree: KDTree
    stats: SearchStats
    recorder: Optional[MemoryRecorder]

    @property
    def hierarchy(self):
        """Cache-hierarchy statistics of the recorder (``None`` unrecorded)."""
        return getattr(self.recorder, "stats", None)

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

        Both flavours answer kNN through the exact 32-bit branch-and-bound
        search (radius search is the operation the compressed leaves
        accelerate), so all backends return identical neighbours; a
        recorded backend records its node and 32-bit point loads.
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


class BaselinePerQueryBackend(_PerQueryBackendBase):
    """One 32-bit traversal per query (the PCL/FLANN reference path)."""

    name = "baseline-perquery"

    def __init__(self, tree: KDTree, *, stats: Optional[SearchStats] = None,
                 recorder: Optional[MemoryRecorder] = None):
        self.tree = tree
        self.stats = stats if stats is not None else SearchStats()
        self.recorder = recorder
        self.bonsai_stats: Optional[BonsaiStats] = None

    def search(self, query: Sequence[float], radius: float) -> List[int]:
        """Single-query radius search (native traversal order)."""
        return radius_search(self.tree, query, radius, stats=self.stats,
                             recorder=self.recorder)


class BonsaiPerQueryBackend(_PerQueryBackendBase):
    """One compressed-leaf traversal per query (the paper's search).

    Compresses the tree on construction when it is not already compressed;
    with a recorder attached, that build-time compression traffic is part of
    the recorded trace (as in the extract kernel), whereas a pre-compressed
    tree — an offline map — contributes nothing.
    """

    name = "bonsai-perquery"

    def __init__(self, tree: KDTree, *, fmt: FloatFormat = FLOAT16,
                 stats: Optional[SearchStats] = None,
                 recorder: Optional[MemoryRecorder] = None):
        self.tree = tree
        self.fmt = fmt
        self.recorder = recorder
        self._bonsai = BonsaiRadiusSearch(tree, fmt=fmt, recorder=recorder)
        if stats is not None:
            self._bonsai.stats = stats
        self.stats = self._bonsai.stats
        #: Tree-compression report (``None`` when the tree was pre-compressed).
        self.report = self._bonsai.report

    @property
    def bonsai_stats(self) -> BonsaiStats:
        """Compressed-leaf counters of the underlying inspector."""
        return self._bonsai.bonsai_stats

    def search(self, query: Sequence[float], radius: float) -> List[int]:
        """Single-query compressed radius search (native traversal order)."""
        return self._bonsai.search(query, radius)


class BaselineBatchedBackend:
    """One 32-bit traversal per query *batch* (:mod:`repro.runtime`)."""

    name = "baseline-batched"

    def __init__(self, tree: KDTree, *, stats: Optional[SearchStats] = None):
        self.tree = tree
        self._engine = BatchQueryEngine(tree, stats=stats)
        self.stats = self._engine.stats
        self.bonsai_stats: Optional[BonsaiStats] = None
        self.recorder: Optional[MemoryRecorder] = None

    def radius_search(self, queries, radius: float) -> BatchRadiusResult:
        """Batched radius search (per-query index-sorted CSR result)."""
        return self._engine.radius_search(queries, radius)

    def knn(self, queries, k: int) -> BatchKNNResult:
        """Batched kNN (dense, distance-then-index sorted rows)."""
        return self._engine.knn(queries, k)

    def search(self, query: Sequence[float], radius: float) -> List[int]:
        """Single-query convenience wrapper (sorted point indices)."""
        return self._engine.search(query, radius)


class BonsaiBatchedBackend:
    """One compressed-leaf traversal per query batch over the decoded mirror."""

    name = "bonsai-batched"

    def __init__(self, tree: KDTree, *, fmt: FloatFormat = FLOAT16,
                 stats: Optional[SearchStats] = None):
        self.tree = tree
        self.fmt = fmt
        self._searcher = BonsaiBatchSearcher(tree, fmt=fmt)
        if stats is not None:
            self._searcher.stats = stats
        self.stats = self._searcher.stats
        self.recorder: Optional[MemoryRecorder] = None
        #: Tree-compression report (``None`` when the tree was pre-compressed).
        self.report = self._searcher.report
        # kNN goes through the baseline batched engine (see
        # ``_PerQueryBackendBase.knn`` for why), sharing this backend's stats.
        self._knn_engine = BatchQueryEngine(tree, stats=self.stats)

    @property
    def bonsai_stats(self) -> BonsaiStats:
        """Compressed-leaf counters of the underlying batch searcher."""
        return self._searcher.bonsai_stats

    def radius_search(self, queries, radius: float) -> BatchRadiusResult:
        """Batched compressed radius search; identical results to baseline."""
        return self._searcher.radius_search(queries, radius)

    def knn(self, queries, k: int) -> BatchKNNResult:
        """Batched kNN over the 32-bit points (exact, same as baseline)."""
        return self._knn_engine.knn(queries, k)

    def search(self, query: Sequence[float], radius: float) -> List[int]:
        """Single-query convenience wrapper (sorted point indices)."""
        return self._searcher.search(query, radius)

