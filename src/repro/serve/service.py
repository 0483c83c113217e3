"""QueryService: a persistent worker fleet over one shared-memory store.

One process owns the map: it creates (or borrows) a
:class:`~repro.serve.store.SharedCloudStore` and starts a fixed set of
worker processes, each holding one end of its own duplex pipe.  Each worker
attaches to the store **by name** — zero-copy, no tree pickle, no second
compression pass — builds its own
:class:`~repro.engine.index.PointCloudIndex` over the shared tree and then
serves whatever mixed traffic arrives on its pipe: batched radius searches
and batched kNN, each request naming any registered backend.

Request/response model
----------------------
Requests are plain tuples dispatched through :meth:`QueryService.serve` or
through the typed conveniences :meth:`radius` and :meth:`knn`.  The calling
thread sends each request straight to an idle worker and reads the reply on
that same connection, so no thread of the owning process relays it; replies
are stored by request index, so results return in request order whatever
order the workers finish in.  Concurrent callers share the workers: each
takes idle connections from one queue and puts them back once it has read
their replies.
Results are bitwise identical to running the same request against a local
:class:`PointCloudIndex` over the same cloud: the shared tree *is* the same
tree (same float32 points, same leaf structure, same compressed bytes).  The
campaign's ``service`` op flavor diffs an index over an attached store
against a process-local one, which is the equivalence the workers rely on.

Failures
--------
A request that raises in a worker raises the same exception in the caller,
once the caller has read every reply it is owed.  A worker that dies (EOF
or a broken pipe), or a caller that stops while replies are owed to it,
breaks the service: that request and every later one raise a
``RuntimeError``.  Workers are not restarted.  A worker ends on EOF, which
it also sees when the owning process dies without cleanup.

The store's creator owns its segments; workers attach by name and never
unlink.  :meth:`QueryService.close` stops the workers before it closes a
store the service created (and owns).
"""

from __future__ import annotations

import queue
import threading
import weakref
from multiprocessing import util
from multiprocessing.connection import wait
from typing import Dict, List, Optional, Sequence

from ..engine.index import DEFAULT_BACKEND, PointCloudIndex
from ..engine.parallel import _in_daemon_process, _pool_context, resolve_workers
from ..runtime.batch import BatchKNNResult, BatchRadiusResult
from ..runtime.queries import as_query_batch, check_k, check_radius
from .store import SharedCloudStore

__all__ = ["QueryService"]

#: Seconds to wait for a worker whose pipe closed to exit, so its exit code
#: can be reported.
_REAP_TIMEOUT_S = 5.0


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _service_worker_main(conn, store_name: str) -> None:
    """Worker process: serve request tuples from ``conn`` until EOF."""
    with SharedCloudStore.attach(store_name) as store, \
            store.index() as index:
        while True:
            try:
                request = conn.recv()
            except EOFError:
                return
            try:
                reply = (True, _serve_request(index, request))
            except Exception as exc:  # the caller raises it
                reply = (False, exc)
            conn.send(reply)


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


def _stop_workers(workers: list) -> None:
    """Terminate and join every worker, then close their connections."""
    for process, _ in workers:
        process.terminate()
    for process, conn in workers:
        process.join()
        conn.close()


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
class QueryService:
    """Mixed radius/kNN traffic over one resident shared index.

    Parameters
    ----------
    source:
        A point cloud / ``(N, 3)`` array / :class:`KDTree` (a store is
        created and owned — compressed exactly once; pass a built and
        compressed :class:`KDTree` to serve another tree config or float
        format), or an existing :class:`SharedCloudStore` (borrowed; the
        caller keeps ownership).
    n_workers:
        Worker-process count (default: :func:`resolve_workers`).  One
        worker serves in-process, without worker processes, as does any
        service inside a daemon process, which cannot start children.
        Results are identical either way.
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
        #: ``(process, connection)`` per started worker; the finalizer
        #: holds the same list.
        self._workers: list = []
        self._workers_finalizer = None
        #: Guards starting the workers, closing and marking the service
        #: broken.
        self._lock = threading.Lock()
        #: Idle connections; a ``None`` wakes a caller waiting for one
        #: after the service broke or closed.
        self._idle: queue.SimpleQueue = queue.SimpleQueue()
        self._broken: Optional[RuntimeError] = None
        self._local_index: Optional[PointCloudIndex] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _start_workers(self) -> None:
        """Start the workers on the first request, once."""
        with self._lock:
            if self._closed or self._workers_finalizer is not None:
                return
            self._workers_finalizer = weakref.finalize(
                self, _stop_workers, self._workers)
            ctx = _pool_context()
            for _ in range(self.n_workers):
                ours, theirs = ctx.Pipe()
                # No child of this process may hold the service's end of a
                # pipe, or its worker sees no EOF when the service is gone.
                util.register_after_fork(ours, type(ours).close)
                process = ctx.Process(target=_service_worker_main,
                                      args=(theirs, self.store.name),
                                      daemon=True)
                process.start()
                # Only the worker may hold its end, or its death shows
                # no EOF here.
                theirs.close()
                self._workers.append((process, ours))
                self._idle.put(ours)

    def _break(self, error: RuntimeError) -> RuntimeError:
        """Mark the service broken (the first error sticks); returns
        ``error`` for the request that found it."""
        with self._lock:
            if self._broken is None:
                self._broken = error
        self._idle.put(None)
        return error

    def _dead_worker(self, conn) -> RuntimeError:
        """Break the service over the dead worker behind ``conn``."""
        process = next(p for p, c in self._workers if c is conn)
        process.join(_REAP_TIMEOUT_S)
        return self._break(RuntimeError(
            f"service worker {process.pid} died (exit code "
            f"{process.exitcode}); the QueryService cannot serve"))

    def _check_usable(self) -> None:
        if self._closed:
            raise ValueError("QueryService is closed")
        if self._broken is not None:
            raise RuntimeError(str(self._broken))

    def close(self) -> None:
        """Stop the workers, then close the owned store (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._workers_finalizer is not None:
                self._workers_finalizer()
        self._idle.put(None)
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
        self._check_usable()
        if self._serial:
            if self._local_index is None:
                self._local_index = self.store.index()
            return [_serve_request(self._local_index, request)
                    for request in requests]
        self._start_workers()
        results: List = [None] * len(requests)
        failure: Optional[BaseException] = None
        busy: Dict[object, int] = {}  # connection -> its request's index
        sent = 0
        try:
            while sent < len(requests) or busy:
                while sent < len(requests):
                    try:
                        conn = self._idle.get(block=not busy)
                    except queue.Empty:
                        break
                    if conn is None:
                        self._idle.put(None)  # for the next waiter
                    self._check_usable()
                    busy[conn] = sent
                    try:
                        conn.send(requests[sent])
                    except OSError:
                        raise self._dead_worker(conn) from None
                    except Exception as exc:  # did not pickle; nothing sent
                        del busy[conn]
                        self._idle.put(conn)
                        if failure is None:
                            failure = exc
                    sent += 1
                for conn in wait(list(busy)):
                    try:
                        ok, value = conn.recv()
                    except (EOFError, OSError):
                        raise self._dead_worker(conn) from None
                    index = busy.pop(conn)
                    self._idle.put(conn)
                    if ok:
                        results[index] = value
                    elif failure is None:
                        failure = value
        except BaseException:
            if busy:
                pids = sorted(p.pid for p, c in self._workers if c in busy)
                self._break(RuntimeError(
                    f"a caller stopped before reading the replies of "
                    f"service workers {pids}; the QueryService cannot serve"))
            raise
        if failure is not None:
            raise failure
        return results

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
