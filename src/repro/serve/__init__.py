"""The serve layer: one resident compressed index, many consumers.

Two pieces, layered bottom-up:

* :class:`SharedCloudStore` (:mod:`repro.serve.store`) — the map's heavy,
  immutable arrays (points, leaf index lists, Bonsai compressed bytes and
  their decoded mirror) in refcounted POSIX shared memory; built and
  compressed exactly once, attached zero-copy by name.
* :class:`QueryService` (:mod:`repro.serve.service`) — a persistent worker
  pool attached to one store, serving mixed radius/kNN traffic against any
  registered backend.
"""

from .service import QueryService
from .store import SharedCloudStore

__all__ = [
    "QueryService",
    "SharedCloudStore",
]
