"""QueryService: a persistent worker fleet over one shared-memory store.

One process owns the map: it creates (or borrows) a
:class:`~repro.serve.store.SharedCloudStore` and a persistent pool of worker
processes.  Each worker attaches to the store **by name** — zero-copy, no
tree pickle, no second compression pass — builds a worker-global
:class:`~repro.engine.index.PointCloudIndex` over the shared tree and then
serves whatever mixed traffic arrives: batched radius searches and batched
kNN, each request naming any registered backend.

Request/response model
----------------------
Requests are plain tuples dispatched through :meth:`QueryService.serve`
(results return in request order, whatever order workers finish in — the
same order-by-index collection the parallel sweeps use) or through the
typed conveniences :meth:`radius` and :meth:`knn`.
Results are bitwise identical to running the same request against a local
:class:`PointCloudIndex` over the same cloud: the shared tree *is* the same
tree (same float32 points, same leaf structure, same compressed bytes), and
the campaign's ``service`` op flavor diffs exactly that equivalence.

Workers attach *borrowed* (non-refcounted): ``Pool.terminate()`` kills them
without teardown, so they must not participate in the store's refcount —
their lifetime is bounded by the service's own refcounted handle.
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Sequence, Tuple

from ..engine.index import DEFAULT_BACKEND, PointCloudIndex
from ..engine.parallel import _in_daemon_process, _pool_context, resolve_workers
from ..runtime.batch import BatchKNNResult, BatchRadiusResult
from ..runtime.queries import as_query_batch, check_k, check_radius
from .store import SharedCloudStore

__all__ = ["QueryService"]

# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: Per-worker state of a pool worker: (borrowed store handle, index over
#: the shared tree).  Only pool workers read it; a serial service passes its
#: own index to :func:`_serve_request`.
_SERVICE_STATE: Optional[Tuple[SharedCloudStore, PointCloudIndex]] = None


def _service_worker_init(store_name: str) -> None:
    global _SERVICE_STATE
    store = SharedCloudStore.attach(store_name, refcounted=False)
    _SERVICE_STATE = (store, store.index())


def _serve_one(request: tuple):
    """Pool task: execute one request tuple against the worker's index."""
    if _SERVICE_STATE is None:
        raise RuntimeError("service worker was not initialised")
    return _serve_request(_SERVICE_STATE[1], request)


def _serve_request(index: PointCloudIndex, request: tuple):
    """Execute one request tuple against ``index``."""
    kind = request[0]
    if kind == "radius":
        _, queries, radius, backend = request
        result = index.radius_search(queries, radius, backend=backend)
        return result.offsets, result.point_indices
    if kind == "knn":
        _, queries, k, backend = request
        result = index.knn(queries, k, backend=backend)
        return result.indices, result.distances
    raise ValueError(f"unknown service request kind {kind!r}")


def _terminate_pool(pool) -> None:
    """Tear down the worker pool without waiting for queued work."""
    pool.terminate()
    pool.join()


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
class QueryService:
    """Mixed radius/kNN traffic over one resident shared index.

    Parameters
    ----------
    source:
        A point cloud / ``(N, 3)`` array / :class:`KDTree` (a store is
        created with the default tree config and float format and owned —
        compressed exactly once), or an existing :class:`SharedCloudStore`
        (borrowed; the caller keeps ownership — build one to serve another
        tree config or format).
    n_workers:
        Worker-pool size (default: :func:`resolve_workers`).  One worker
        serves in-process, without a pool, as does any service inside a
        daemon process, where nested pools are not allowed.  Results are
        identical either way.
    """

    def __init__(self, source, *, n_workers: Optional[int] = None):
        if isinstance(source, SharedCloudStore):
            self.store = source
            self._owns_store = False
        else:
            self.store = SharedCloudStore.create(source)
            self._owns_store = True
        self.n_workers = resolve_workers(n_workers)
        self._serial = self.n_workers < 2 or _in_daemon_process()
        self._pool = None
        self._pool_finalizer = None
        self._local_index: Optional[PointCloudIndex] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self):
        """The persistent worker pool, attached to the store by name."""
        if self._pool is None:
            ctx = _pool_context()
            self._pool = ctx.Pool(
                processes=self.n_workers, initializer=_service_worker_init,
                initargs=(self.store.name,))
            self._pool_finalizer = weakref.finalize(
                self, _terminate_pool, self._pool)
        return self._pool

    def close(self) -> None:
        """Tear down the pool, then the owned store (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool_finalizer.detach()
            _terminate_pool(self._pool)
            self._pool = None
            self._pool_finalizer = None
        if self._local_index is not None:
            self._local_index.close()
            self._local_index = None
        if self._owns_store:
            self.store.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve(self, requests: Sequence[tuple]) -> List:
        """Serve a mixed request batch; results in request order.

        Request tuples: ``("radius", queries, radius, backend)`` and
        ``("knn", queries, k, backend)``.
        """
        if self._closed:
            raise ValueError("QueryService is closed")
        if self._serial:
            if self._local_index is None:
                self._local_index = self.store.index()
            return [_serve_request(self._local_index, request)
                    for request in requests]
        pool = self._ensure_pool()
        handles = [pool.apply_async(_serve_one, (request,))
                   for request in requests]
        return [handle.get() for handle in handles]

    def radius(self, queries, radius: float, *,
               backend: str = DEFAULT_BACKEND) -> BatchRadiusResult:
        """Batched radius search through the service."""
        offsets, point_indices = self.serve(
            [("radius", as_query_batch(queries), check_radius(radius),
              backend)])[0]
        return BatchRadiusResult(offsets=offsets, point_indices=point_indices)

    def knn(self, queries, k: int, *,
            backend: str = DEFAULT_BACKEND) -> BatchKNNResult:
        """Batched kNN through the service."""
        indices, distances = self.serve(
            [("knn", as_query_batch(queries), check_k(k), backend)])[0]
        return BatchKNNResult(indices=indices, distances=distances)
