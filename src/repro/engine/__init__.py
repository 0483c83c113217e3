"""Unified execution-backend API for the K-D Bonsai reproduction.

One protocol, four named backends, one facade.  The paper's claims are
comparisons between execution modes; this layer makes the mode a *name*
(``baseline-perquery`` / ``baseline-batched`` / ``bonsai-perquery`` /
``bonsai-batched``), selected through a registry, and carried by workload
configs as :class:`ExecutionConfig` data (the name plus a hardware-recording
switch); ``docs/PERFORMANCE.md`` is the selection guide.

Public API
----------
:class:`PointCloudIndex`
    The facade: builds the k-d tree once, compresses it lazily on first
    Bonsai use, serves radius/kNN queries through any named backend with
    uniform batched results and merged statistics.
:class:`ShardedPointCloudIndex`
    The map-scale facade: XY-grid tiles, one lazily built (and lazily
    compressed) per-tile index each, cross-tile queries bitwise identical
    to the unsharded index's (:mod:`repro.engine.sharded`).
:func:`backend_names` / :func:`get_backend`
    The registry (the single source of valid backend names).
:class:`ExecutionConfig`
    A workload's execution mode as one value (backend name + hardware
    switch + recorded cache geometry); ``make_backend`` builds its backend,
    with ``hardware=True`` the flavour's per-query backend with a recorder
    attached and bitwise-identical functional results.
:class:`SearchBackend`
    The protocol every backend implements.

Example
-------
>>> import numpy as np
>>> from repro.engine import PointCloudIndex, backend_names
>>> points = np.random.default_rng(1).uniform(-5, 5, (1000, 3)).astype(np.float32)
>>> index = PointCloudIndex(points)
>>> sorted(backend_names())[:2]
['baseline-batched', 'baseline-perquery']
>>> index.radius_search(points[:8], radius=0.5, backend="bonsai-batched").n_queries
8
"""

from .backends import (
    BaselineBatchedBackend,
    BaselinePerQueryBackend,
    BonsaiBatchedBackend,
    BonsaiPerQueryBackend,
    SearchBackend,
)
from .execution import ExecutionConfig
from .index import PointCloudIndex
from .registry import backend_names, get_backend, register_backend
from .sharded import ShardedPointCloudIndex

__all__ = [
    "SearchBackend",
    "BaselinePerQueryBackend",
    "BaselineBatchedBackend",
    "BonsaiPerQueryBackend",
    "BonsaiBatchedBackend",
    "ExecutionConfig",
    "PointCloudIndex",
    "ShardedPointCloudIndex",
    "backend_names",
    "get_backend",
    "register_backend",
]
