"""PointCloudIndex: build the tree once, query through any named backend.

The facade of the engine layer.  It owns one k-d tree, compresses it lazily
the first time a Bonsai backend is requested, caches one backend instance
per (name, recorded, cpu) request, and serves radius/kNN queries through
whichever backend the caller names — with uniform batched results and
statistics that merge across every backend the index has served.

Example
-------
>>> import numpy as np
>>> from repro.engine import PointCloudIndex
>>> points = np.random.default_rng(0).uniform(-5, 5, (2000, 3)).astype(np.float32)
>>> index = PointCloudIndex(points)
>>> baseline = index.radius_search(points[:64], radius=0.8)
>>> bonsai = index.radius_search(points[:64], radius=0.8, backend="bonsai-batched")
>>> bool(np.array_equal(baseline.point_indices, bonsai.point_indices))
True
>>> index.search_stats.queries
128
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.compressed_leaf import CompressionReport, compress_tree
from ..core.floatfmt import FLOAT16, FloatFormat
from ..core.bonsai_search import BonsaiStats
from ..kdtree.build import KDTree, KDTreeConfig, build_kdtree
from ..kdtree.radius_search import SearchStats
from ..runtime.batch import BatchKNNResult, BatchRadiusResult
from .backends import SearchBackend
from .execution import ExecutionConfig
from .registry import get_backend

__all__ = ["PointCloudIndex"]

#: Backend the index uses when the caller names none.
DEFAULT_BACKEND = "baseline-batched"


class PointCloudIndex:
    """One spatial index, every execution backend.

    Parameters
    ----------
    cloud:
        A :class:`~repro.pointcloud.cloud.PointCloud`, an ``(N, 3)`` array,
        or an already-built :class:`~repro.kdtree.build.KDTree` (reused
        as-is; ``tree_config`` is then ignored).
    tree_config:
        Tree-build parameters (PCL defaults when omitted).
    fmt:
        Reduced float format used when the index compresses its tree for
        the Bonsai backends.
    """

    def __init__(self, cloud, *, tree_config: Optional[KDTreeConfig] = None,
                 fmt: FloatFormat = FLOAT16):
        if isinstance(cloud, KDTree):
            self.tree = cloud
        else:
            self.tree = build_kdtree(cloud, tree_config)
        self.fmt = fmt
        #: Report of the lazy compression pass (``None`` until a Bonsai
        #: backend is first requested; stays ``None`` for a pre-compressed
        #: tree).
        self.compression_report: Optional[CompressionReport] = None
        self._backends: Dict[Tuple[str, bool], SearchBackend] = {}

    # ------------------------------------------------------------------
    # Tree facts
    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        """Number of indexed points."""
        return self.tree.n_points

    @property
    def n_leaves(self) -> int:
        """Number of tree leaves."""
        return self.tree.n_leaves

    @property
    def is_compressed(self) -> bool:
        """Whether the tree carries its compressed (Bonsai) leaf structures."""
        return getattr(self.tree, "compressed_array", None) is not None

    def ensure_compressed(self) -> Optional[CompressionReport]:
        """Compress the tree if it is not already; idempotent.

        Called automatically the first time a Bonsai backend is requested,
        so indices that never touch a compressed backend never pay the
        compression pass.
        """
        if not self.is_compressed:
            self.compression_report = compress_tree(self.tree, self.fmt)
        return self.compression_report

    # ------------------------------------------------------------------
    # Backends
    # ------------------------------------------------------------------
    def backend(self, name: str = DEFAULT_BACKEND, *, recorded: bool = False,
                cpu=None) -> SearchBackend:
        """The named backend over this index's tree (cached per request).

        With ``recorded=True`` the returned backend is the hardware-recorded
        counterpart, as ``ExecutionConfig(backend=name, hardware=True)``
        builds it: the flavour's per-query backend with every tree access
        streaming through the trace-driven cache simulation of ``cpu``'s
        geometry (Table IV when omitted), functional results bitwise
        unchanged.  Backends are cached per ``(name, recorded, cpu)``, so
        recorded requests with different cache geometries get distinct
        simulations.
        """
        flavor = name.split("-", 1)[0]
        key = (name, recorded, cpu)
        backend = self._backends.get(key)
        if backend is None:
            if flavor == "bonsai":
                self.ensure_compressed()
            opts = {"fmt": self.fmt} if flavor == "bonsai" else {}
            if recorded:
                recorder = ExecutionConfig().make_recorder(cpu)
                backend = get_backend(f"{flavor}-perquery", self.tree,
                                      recorder=recorder, **opts)
            else:
                backend = get_backend(name, self.tree, **opts)
            self._backends[key] = backend
        return backend

    def close(self) -> None:
        """Release every cached backend (idempotent; the index stays usable).

        The backend cache is cleared, so the next query builds fresh
        backends while the tree and its compression are kept.  Merged
        statistics reset alongside the cache: they live on the backend
        instances.  Calling :meth:`close` twice, or before any backend was
        ever requested, is a no-op.
        """
        self._backends = {}

    def __enter__(self) -> "PointCloudIndex":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def radius_search(self, queries, radius: float, *,
                      backend: str = DEFAULT_BACKEND,
                      recorded: bool = False) -> BatchRadiusResult:
        """All indexed points within ``radius`` of each query.

        Identical results whatever backend serves the batch (per-query
        index-sorted CSR form), so backend choice is purely a
        throughput/statistics decision (see ``docs/PERFORMANCE.md``).
        ``radius`` is in the cloud's coordinate unit (metres for the
        built-in scenarios).
        """
        return self.backend(backend, recorded=recorded).radius_search(queries, radius)

    def knn(self, queries, k: int, *, backend: str = DEFAULT_BACKEND,
            recorded: bool = False) -> BatchKNNResult:
        """The ``k`` nearest indexed points of each query."""
        return self.backend(backend, recorded=recorded).knn(queries, k)

    def search(self, query: Sequence[float], radius: float, *,
               backend: str = DEFAULT_BACKEND) -> List[int]:
        """Single-query radius search (the backend's native hit order)."""
        return self.backend(backend).search(query, radius)

    # ------------------------------------------------------------------
    # Merged statistics
    # ------------------------------------------------------------------
    @property
    def search_stats(self) -> SearchStats:
        """Search counters merged across every backend this index served."""
        merged = SearchStats()
        for backend in self._backends.values():
            merged.merge(backend.stats)
        return merged

    @property
    def bonsai_stats(self) -> Optional[BonsaiStats]:
        """Compressed-leaf counters merged across the served Bonsai backends.

        ``None`` when no Bonsai backend has been used yet.
        """
        merged: Optional[BonsaiStats] = None
        for backend in self._backends.values():
            stats = backend.bonsai_stats
            if stats is not None:
                if merged is None:
                    merged = BonsaiStats()
                merged.merge(stats)
        return merged

    @property
    def hierarchy_stats(self):
        """Cache-hierarchy counters merged across the recorded backends.

        ``None`` when no recorded backend has been used yet; otherwise a
        :class:`~repro.hwmodel.cache.HierarchyStats`.
        """
        merged = None
        for backend in self._backends.values():
            stats = getattr(backend, "hierarchy", None)
            if stats is not None:
                if merged is None:
                    from ..hwmodel.cache import HierarchyStats
                    merged = HierarchyStats()
                merged.merge(stats)
        return merged
