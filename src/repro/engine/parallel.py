"""Worker counts, a one-shot process map and deterministic shard merges.

Three pieces serve every parallel surface of the package:

* :func:`resolve_workers` — the worker count of the query service's pool
  (:class:`~repro.serve.service.QueryService`), the parallel sweeps'
  ``--jobs`` and the streaming runner's stage threads.
* :func:`process_map` — the order-preserving one-shot process map the
  hardware and cache-geometry sweeps run their cells through.
* :func:`plan_shards` with :func:`merge_radius_shards` /
  :func:`merge_knn_shards` — contiguous query ranges and their
  deterministic concatenation, used by
  :class:`~repro.engine.sharded.ShardedPointCloudIndex` to process query
  batches chunk by chunk.

Determinism contract
--------------------
Merged output is **bitwise identical** to serving the whole batch at once:
the batched engines sort radius hits by ``(query, point)`` and kNN rows are
per-query, so concatenating the results of contiguous, disjoint query
ranges in range order reproduces the global order exactly.  Statistics
(:class:`~repro.kdtree.radius_search.SearchStats`,
:class:`~repro.core.bonsai_search.BonsaiStats`) merge by commutative
integer addition, so the order in which parts complete cannot change the
totals.  ``process_map`` collects results by item index for the same
reason.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..runtime.batch import BatchKNNResult, BatchRadiusResult

__all__ = [
    "merge_radius_shards",
    "merge_knn_shards",
    "plan_shards",
    "process_map",
    "resolve_workers",
]


def resolve_workers(n_workers: Optional[int] = None) -> int:
    """The effective worker count of a pool, a sweep or the stage threads.

    Precedence: an explicit ``n_workers`` (must be >= 1), then the
    ``REPRO_MP_WORKERS`` environment variable, then ``max(2, min(4, cpus))``
    — at least two so the query service runs its worker pool and the
    sweeps and stage threads overlap their work by default, at most four
    because the workloads stop scaling long before the typical core count
    does.

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
    arguments, so both behave identically."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _in_daemon_process() -> bool:
    """Whether this process cannot spawn children (pool workers are daemonic)."""
    return multiprocessing.current_process().daemon


def process_map(fn: Callable, items: Sequence, *, n_jobs: int) -> List:
    """Order-preserving parallel map over ``items`` on a one-shot pool.

    Results are collected **by item index**, so the returned list is in
    ``items`` order no matter in which order the workers complete — the
    property every deterministic merge in this package builds on.  Runs a
    serial loop when ``n_jobs < 2``, when there is at most one item, or
    inside a daemon process (nested pools are not allowed).
    """
    if n_jobs < 2 or len(items) < 2 or _in_daemon_process():
        return [fn(item) for item in items]
    with _pool_context().Pool(processes=min(n_jobs, len(items))) as pool:
        handles = [pool.apply_async(fn, (item,)) for item in items]
        return [handle.get() for handle in handles]


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
