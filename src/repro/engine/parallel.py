"""Worker counts and a one-shot, order-preserving process map.

Two pieces serve every parallel surface of the package:

* :func:`resolve_workers` — the worker count of the query service's pool
  (:class:`~repro.serve.service.QueryService`), the parallel sweeps'
  ``--jobs`` and the pipeline runner's frame threads
  (:meth:`~repro.workloads.pipeline.PipelineRunner.run`).
* :func:`process_map` — the order-preserving one-shot process map the
  hardware and cache-geometry sweeps run their cells through.

Determinism contract
--------------------
``process_map`` collects results by item index, so the order in which the
workers complete cannot reach the merged output, and per-cell statistics
(:class:`~repro.kdtree.radius_search.SearchStats`,
:class:`~repro.core.bonsai_search.BonsaiStats`) merge by commutative
integer addition.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, List, Optional, Sequence

__all__ = [
    "process_map",
    "resolve_workers",
]


def resolve_workers(n_workers: Optional[int] = None) -> int:
    """The effective worker count of a pool, a sweep or the frame threads.

    Precedence: an explicit ``n_workers`` (must be >= 1), then the
    ``REPRO_MP_WORKERS`` environment variable, then ``max(2, min(4, cpus))``
    — at least two so the query service runs its worker pool and the
    sweeps and frame threads overlap their work by default, at most four
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
