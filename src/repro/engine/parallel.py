"""Multiprocessing backends: shard a query batch across worker processes.

The batched engines (:mod:`repro.runtime`) already amortise the Python
interpreter over whole query batches, but one process still serves the whole
batch.  Radius and kNN queries are embarrassingly parallel across *queries*
— each query's traversal, pruning and result depend only on that query and
the (immutable) tree — so this module adds the last scaling dimension behind
the same :class:`~repro.engine.backends.SearchBackend` protocol:

``baseline-batched-mp`` / ``bonsai-batched-mp``
    Split the batch into contiguous query shards, run each shard through the
    single-process batched backend of the same flavour inside a worker
    process, and merge the per-shard results back in **shard-index order**.

Determinism contract
--------------------
The merged output is **bitwise identical** to the single-process
counterpart's, however the workers are scheduled:

* *Hits* — the single-process engines sort radius hits by ``(query, point)``
  and kNN rows are per-query; concatenating per-shard results of contiguous,
  disjoint query ranges in shard order reproduces that global order exactly
  (:func:`merge_radius_shards`, :func:`merge_knn_shards`).
* *Statistics* — :class:`~repro.kdtree.radius_search.SearchStats` and
  :class:`~repro.core.bonsai_search.BonsaiStats` counters aggregate exactly
  as if the queries had been issued one by one (the batched engines already
  guarantee this, see :meth:`SearchStats.note_leaf_visits`), and merging
  is commutative integer addition — worker *completion* order cannot change
  the totals.  ``tests/test_parallel_backends.py`` shuffles shard results to
  lock this down.

Worker model
------------
Workers are plain ``multiprocessing`` pool processes (``fork`` start method
when the platform offers it, ``spawn`` otherwise).  Each backend owns **one
persistent pool**, created lazily on its first parallel call and initialised
once with the (pickled) tree — subsequent batches reuse the warm workers and
never re-transfer the tree; every shard task constructs a fresh
single-process backend over the worker's tree, so per-shard statistics come
back clean.  For the Bonsai flavour the *parent* compresses the tree on
backend construction (before any pool exists), and workers receive the
already-compressed tree — compression happens exactly once per tree, like
the single-process backend.  ``close()`` tears the pool down; an abandoned
backend's pool is finalised automatically.

Batches smaller than ``min_parallel_queries`` (default
:data:`MIN_PARALLEL_QUERIES`) and single-query ``search()`` calls take the
in-process path — process startup would dominate.  Inside a daemon process
(e.g. a worker of the parallel hardware sweep) the backends always run
in-process: nested pools are not allowed, and the results are identical
anyway.

Worker count resolution (:func:`resolve_workers`): an explicit
``n_workers=`` wins, then the ``REPRO_MP_WORKERS`` environment variable,
then ``max(2, min(4, cpu_count))``.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.bonsai_search import BonsaiStats
from ..core.floatfmt import FLOAT16, FloatFormat
from ..kdtree.build import KDTree
from ..kdtree.radius_search import MemoryRecorder, SearchStats
from ..runtime.batch import BatchKNNResult, BatchRadiusResult
from ..runtime.queries import as_query_batch, check_k, check_radius

__all__ = [
    "MIN_PARALLEL_QUERIES",
    "BaselineBatchedMPBackend",
    "BonsaiBatchedMPBackend",
    "merge_radius_shards",
    "merge_knn_shards",
    "plan_shards",
    "process_map",
    "resolve_workers",
]

#: Below this many queries a batch runs in-process: the per-shard work would
#: be smaller than the cost of starting the worker pool.
MIN_PARALLEL_QUERIES = 48


def resolve_workers(n_workers: Optional[int] = None) -> int:
    """The effective worker count of a parallel backend or sweep.

    Precedence: an explicit ``n_workers`` (must be >= 1), then the
    ``REPRO_MP_WORKERS`` environment variable, then ``max(2, min(4, cpus))``
    — at least two so the shard/merge machinery is exercised (and tested)
    even on single-core machines, at most four because the pure-Python
    workloads stop scaling long before the typical core count does.

    ``REPRO_MP_WORKERS`` must hold a positive integer; anything else
    (``"four"``, ``"0"``, ``"-2"``) raises a ``ValueError`` naming the
    variable instead of an opaque parse error or a silent clamp.  Blank or
    whitespace-only values count as unset and fall through to the default.
    """
    if n_workers is not None:
        if n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        return n_workers
    env = os.environ.get("REPRO_MP_WORKERS")
    if env is not None and env.strip():
        text = env.strip()
        try:
            value = int(text)
        except ValueError:
            raise ValueError(
                f"REPRO_MP_WORKERS must be a positive integer, got {env!r}"
            ) from None
        if value < 1:
            raise ValueError(
                f"REPRO_MP_WORKERS must be a positive integer, got {env!r}")
        return value
    return max(2, min(4, os.cpu_count() or 1))


def _pool_context():
    """The multiprocessing context: ``fork`` when available (cheap startup),
    ``spawn`` otherwise — workers receive all state through pickled
    initializer arguments, so both behave identically."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _in_daemon_process() -> bool:
    """Whether this process cannot spawn children (pool workers are daemonic)."""
    return multiprocessing.current_process().daemon


def process_map(fn: Callable, items: Sequence, *, n_jobs: int,
                initializer: Optional[Callable] = None,
                initargs: Tuple = (), pool=None) -> List:
    """Order-preserving parallel map over ``items``.

    Results are collected **by item index**, so the returned list is in
    ``items`` order no matter in which order the workers complete — the
    property every deterministic merge in this package builds on.  Falls
    back to a serial loop when ``n_jobs < 2``, when there is at most one
    item, or inside a daemon process (nested pools are not allowed); the
    serial path runs ``initializer`` locally but restores the previous
    worker-global state afterwards, so a serial run's tree/backend never
    leaks into later calls in the same process.

    With ``pool`` the map runs on that existing (already initialised)
    worker pool instead of creating a one-shot pool — the caller owns the
    pool's lifetime.  The ``-mp`` backends pass their persistent pool here;
    the sweeps use the one-shot path.
    """
    if pool is not None:
        handles = [pool.apply_async(fn, (item,)) for item in items]
        return [handle.get() for handle in handles]
    if n_jobs < 2 or len(items) < 2 or _in_daemon_process():
        if initializer is None:
            return [fn(item) for item in items]
        # The serial fallback runs the initializer in *this* process, so
        # whatever worker globals it sets (``_init_worker`` stores the
        # tree/backend in ``_WORKER_STATE``) must not outlive the map:
        # snapshot and restore them so two sequential serial maps with
        # different trees cannot cross-contaminate.
        global _WORKER_STATE
        saved_state = _WORKER_STATE
        try:
            initializer(*initargs)
            return [fn(item) for item in items]
        finally:
            _WORKER_STATE = saved_state
    ctx = _pool_context()
    with ctx.Pool(processes=min(n_jobs, len(items)), initializer=initializer,
                  initargs=initargs) as one_shot:
        return process_map(fn, items, n_jobs=n_jobs, pool=one_shot)


# ----------------------------------------------------------------------
# Shard planning and deterministic merges
# ----------------------------------------------------------------------
def plan_shards(n_queries: int, n_shards: int) -> List[Tuple[int, int]]:
    """Contiguous, disjoint ``[start, stop)`` query ranges covering the batch.

    Shard boundaries are ``(i * n) // k`` — deterministic, order-preserving
    and never empty (the shard count is clamped to the query count).  Any
    contiguous split yields the same merged result (see the module
    determinism contract); the split only affects load balance.
    """
    if n_queries < 1:
        return []
    k = max(1, min(n_shards, n_queries))
    bounds = [(i * n_queries) // k for i in range(k + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(k)]


def merge_radius_shards(shards: Sequence[BatchRadiusResult]) -> BatchRadiusResult:
    """Concatenate per-shard radius results in shard-index order.

    Because shards are contiguous, disjoint query ranges and every
    single-process engine returns hits sorted by ``(query, point)``, the
    concatenation *is* the global ``(query, point)`` order — bitwise
    identical to serving the whole batch in one process.
    """
    n_total = sum(shard.n_queries for shard in shards)
    offsets = np.zeros(n_total + 1, dtype=np.intp)
    position = 0
    base = 0
    chunks: List[np.ndarray] = []
    for shard in shards:
        n_queries = shard.n_queries
        offsets[position + 1:position + n_queries + 1] = base + shard.offsets[1:]
        position += n_queries
        base += shard.point_indices.shape[0]
        chunks.append(shard.point_indices)
    indices = (np.concatenate(chunks) if chunks
               else np.zeros(0, dtype=np.intp))
    return BatchRadiusResult(offsets=offsets, point_indices=indices)


def merge_knn_shards(shards: Sequence[BatchKNNResult]) -> BatchKNNResult:
    """Stack per-shard kNN results in shard-index order.

    kNN rows are per-query, so row-stacking contiguous shards reproduces the
    single-process ``(Q, k)`` arrays exactly (every shard shares the same
    width — ``min(k, n_points)`` over the same tree).
    """
    return BatchKNNResult(
        indices=np.vstack([shard.indices for shard in shards]),
        distances=np.vstack([shard.distances for shard in shards]),
    )


def _terminate_pool(pool) -> None:
    """Tear down a backend's worker pool (workers are stateless)."""
    pool.terminate()
    pool.join()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: Per-worker state set by the pool initializer: (tree, inner backend name,
#: backend construction opts).  Each shard task builds a fresh backend from
#: it so per-shard statistics come back clean.
_WORKER_STATE: Optional[Tuple[KDTree, str, dict]] = None


def _init_worker(tree: KDTree, inner_name: str, opts: dict) -> None:
    global _WORKER_STATE
    _WORKER_STATE = (tree, inner_name, opts)


#: Keeps the worker's borrowed store handle (and thus its shared-memory
#: mappings) alive for the worker's lifetime.
_WORKER_STORE = None


def _init_worker_shared(store_name: str, inner_name: str, opts: dict) -> None:
    """Pool initializer for shared-store trees: attach by name, no pickle.

    The attach is *borrowed* (non-refcounted): ``Pool.terminate()`` kills
    workers without teardown, so a refcounted attach would leak references
    and keep the store alive forever.  The worker's lifetime is bounded by
    the backend holding a refcounted handle through ``tree._shared_store``.
    """
    global _WORKER_STATE, _WORKER_STORE
    from ..serve.store import SharedCloudStore

    _WORKER_STORE = SharedCloudStore.attach(store_name, refcounted=False)
    _WORKER_STATE = (_WORKER_STORE.tree(), inner_name, opts)


def _fresh_worker_backend():
    from .registry import get_backend

    if _WORKER_STATE is None:
        raise RuntimeError("worker pool was not initialised")
    tree, inner_name, opts = _WORKER_STATE
    return get_backend(inner_name, tree, **opts)


def _radius_shard(payload):
    """One radius shard: (queries, radius) -> (result arrays, shard stats)."""
    queries, radius = payload
    backend = _fresh_worker_backend()
    result = backend.radius_search(queries, radius)
    return result.offsets, result.point_indices, backend.stats, backend.bonsai_stats


def _knn_shard(payload):
    """One kNN shard: (queries, k) -> (result arrays, shard stats)."""
    queries, k = payload
    backend = _fresh_worker_backend()
    result = backend.knn(queries, k)
    return result.indices, result.distances, backend.stats, backend.bonsai_stats


# ----------------------------------------------------------------------
# The backends
# ----------------------------------------------------------------------
class _ShardedBatchedBackend:
    """Shared machinery of the multiprocessing flavours.

    Owns one in-process single-process backend (``inner_name``) that serves
    small batches and single queries and holds the accumulating statistics;
    large batches are sharded across a worker pool and merged
    deterministically (see the module docstring for the contract).
    """

    name = "batched-mp"
    #: ``"baseline"`` or ``"bonsai"`` — :func:`repro.engine.backends.recorded`
    #: rebuilds the flavour's per-query backend from this.
    flavor = "baseline"
    #: Registry name of the single-process counterpart each shard runs.
    inner_name = "baseline-batched"

    def __init__(self, tree: KDTree, *, stats: Optional[SearchStats] = None,
                 n_workers: Optional[int] = None,
                 min_parallel_queries: int = MIN_PARALLEL_QUERIES, **opts):
        from .registry import get_backend

        self.tree = tree
        self.n_workers = resolve_workers(n_workers)
        self.min_parallel_queries = min_parallel_queries
        self._opts = dict(opts)
        self._inner = get_backend(self.inner_name, tree, stats=stats,
                                  **self._opts)
        #: Accumulates across every call, exactly like the single-process
        #: backends' (parallel shards merge their counters back in).
        self.stats = self._inner.stats
        self.recorder: Optional[MemoryRecorder] = None
        self._pool = None
        self._pool_finalizer = None

    # ------------------------------------------------------------------
    # Parallel dispatch
    # ------------------------------------------------------------------
    def _use_parallel(self, n_queries: int) -> bool:
        return (n_queries >= self.min_parallel_queries
                and self.n_workers >= 2
                and not _in_daemon_process())

    def _ensure_pool(self):
        """The backend's persistent worker pool, created on first use.

        One pool per backend instance, reused across every parallel call —
        the tree is pickled to the workers exactly once (at pool startup),
        so repeated large batches (clustering radius graphs, NDT iterations)
        don't re-pay startup or tree transfer.  The tree is effectively
        immutable by then: the Bonsai flavour compresses it in the parent's
        constructor, before any pool can exist.  Torn down by
        :meth:`close` or automatically when the backend is collected.
        """
        if self._pool is None:
            import weakref

            ctx = _pool_context()
            store_name = getattr(self.tree, "shared_store_name", None)
            if store_name is not None:
                # Shared-store trees: workers attach by name, zero-copy.
                # Mandatory, not just faster — the shared tree's compressed
                # array wraps a shared-memory buffer and cannot pickle.
                initializer, initargs = _init_worker_shared, (
                    store_name, self.inner_name, self._opts)
            else:
                initializer, initargs = _init_worker, (
                    self.tree, self.inner_name, self._opts)
            self._pool = ctx.Pool(processes=self.n_workers,
                                  initializer=initializer, initargs=initargs)
            self._pool_finalizer = weakref.finalize(
                self, _terminate_pool, self._pool)
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (idempotent; a later call restarts it)."""
        if self._pool is not None:
            self._pool_finalizer.detach()
            _terminate_pool(self._pool)
            self._pool = None
            self._pool_finalizer = None

    def _run_shards(self, worker, payloads):
        # Collected by shard index (process_map): completion order cannot
        # reorder the merge.
        return process_map(worker, payloads, n_jobs=self.n_workers,
                           pool=self._ensure_pool())

    def _merge_stats(self, parts) -> None:
        for _, _, shard_stats, shard_bonsai in parts:
            self.stats.merge(shard_stats)
            if shard_bonsai is not None and self.bonsai_stats is not None:
                self.bonsai_stats.merge(shard_bonsai)

    # ------------------------------------------------------------------
    # SearchBackend protocol
    # ------------------------------------------------------------------
    @property
    def bonsai_stats(self) -> Optional[BonsaiStats]:
        """Compressed-leaf counters (``None`` on the baseline flavour)."""
        return self._inner.bonsai_stats

    def radius_search(self, queries, radius: float) -> BatchRadiusResult:
        """Sharded batched radius search; bitwise identical to the inner
        backend's result (per-query index-sorted CSR form)."""
        radius = check_radius(radius)
        batch = as_query_batch(queries)
        if not self._use_parallel(batch.shape[0]):
            return self._inner.radius_search(batch, radius)
        payloads = [(batch[start:stop], radius)
                    for start, stop in plan_shards(batch.shape[0], self.n_workers)]
        parts = self._run_shards(_radius_shard, payloads)
        self._merge_stats(parts)
        return merge_radius_shards(
            [BatchRadiusResult(offsets=offsets, point_indices=indices)
             for offsets, indices, _, _ in parts])

    def knn(self, queries, k: int) -> BatchKNNResult:
        """Sharded batched kNN; bitwise identical to the inner backend's
        dense ``(Q, k)`` result (ties at the k-th place broken by lowest
        point index, like every batched engine)."""
        k = check_k(k)
        batch = as_query_batch(queries)
        if not self._use_parallel(batch.shape[0]):
            return self._inner.knn(batch, k)
        payloads = [(batch[start:stop], k)
                    for start, stop in plan_shards(batch.shape[0], self.n_workers)]
        parts = self._run_shards(_knn_shard, payloads)
        self._merge_stats(parts)
        return merge_knn_shards(
            [BatchKNNResult(indices=indices, distances=distances)
             for indices, distances, _, _ in parts])

    def search(self, query: Sequence[float], radius: float) -> List[int]:
        """Single-query convenience wrapper — always in-process (sorted
        point indices, like the inner backend)."""
        return self._inner.search(query, radius)


class BaselineBatchedMPBackend(_ShardedBatchedBackend):
    """``baseline-batched`` sharded across worker processes."""

    name = "baseline-batched-mp"
    flavor = "baseline"
    inner_name = "baseline-batched"


class BonsaiBatchedMPBackend(_ShardedBatchedBackend):
    """``bonsai-batched`` sharded across worker processes.

    The parent process compresses the tree on construction (once); workers
    receive the already-compressed tree, so no worker repeats the
    compression pass and ``BonsaiStats`` aggregates exactly like the
    single-process backend's.
    """

    name = "bonsai-batched-mp"
    flavor = "bonsai"
    inner_name = "bonsai-batched"

    def __init__(self, tree: KDTree, *, fmt: FloatFormat = FLOAT16,
                 stats: Optional[SearchStats] = None,
                 n_workers: Optional[int] = None,
                 min_parallel_queries: int = MIN_PARALLEL_QUERIES):
        super().__init__(tree, stats=stats, n_workers=n_workers,
                         min_parallel_queries=min_parallel_queries, fmt=fmt)
        self.fmt = fmt
        #: Tree-compression report (``None`` when the tree was pre-compressed).
        self.report = self._inner.report
