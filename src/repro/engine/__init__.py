"""Unified execution-backend API for the K-D Bonsai reproduction.

One protocol, two named backends, one facade.  The paper's claims are
comparisons between leaf formats; this layer makes the format a *name*
(``baseline-batched`` / ``bonsai-batched``), each naming one class in the
table of :mod:`repro.engine.backends`, and carried by workload configs as
:class:`ExecutionConfig` data (the name plus a hardware-recording switch
that swaps in the format's recorded per-query walk);
``docs/PERFORMANCE.md`` is the selection guide.

Public API
----------
:class:`PointCloudIndex`
    The facade: builds the k-d tree once, compresses it lazily on first
    Bonsai use, serves radius/kNN queries through any named backend with
    uniform batched results and merged statistics.
:class:`ShardedPointCloudIndex`
    The map-scale sweep's index: XY-grid tiles, one lazily built (and
    lazily compressed) per-tile index each, cross-tile radius batches
    (recorded or not) bitwise identical to the unsharded index's
    (:mod:`repro.engine.sharded`).
:func:`backend_names` / :func:`get_backend`
    The name→class table (the single source of valid backend names).
:class:`ExecutionConfig`
    A workload's execution mode as one value (backend name + hardware
    switch + recorded cache geometry); ``make_backend`` builds its backend,
    with ``hardware=True`` the flavour's recorded per-query walk
    (:class:`BaselinePerQueryBackend` or :class:`BonsaiPerQueryBackend`)
    with a recorder attached and bitwise-identical functional results.
:class:`SearchBackend`
    The protocol every backend implements: the two registered classes
    :class:`BaselineBatchedBackend` and :class:`BonsaiBatchedBackend`, and
    the two recorded walks.

Example
-------
>>> import numpy as np
>>> from repro.engine import PointCloudIndex, backend_names
>>> points = np.random.default_rng(1).uniform(-5, 5, (1000, 3)).astype(np.float32)
>>> index = PointCloudIndex(points)
>>> backend_names()
['baseline-batched', 'bonsai-batched']
>>> index.radius_search(points[:8], radius=0.5, backend="bonsai-batched").n_queries
8
"""

from .backends import (
    BaselineBatchedBackend,
    BaselinePerQueryBackend,
    BonsaiBatchedBackend,
    BonsaiPerQueryBackend,
    SearchBackend,
    backend_names,
    get_backend,
)
from .execution import ExecutionConfig
from .index import PointCloudIndex
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
]
