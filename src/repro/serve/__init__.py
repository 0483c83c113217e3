"""The serve layer: one resident compressed index, many consumers.

Two pieces, layered bottom-up:

* :class:`SharedCloudStore` (:mod:`repro.serve.store`) — the map's heavy,
  immutable arrays (points, leaf index lists, Bonsai compressed bytes and
  their decoded mirror) in three POSIX shared-memory segments that the
  creating handle owns; built and compressed exactly once, attached
  zero-copy by name.
* :class:`QueryService` (:mod:`repro.serve.service`) — persistent worker
  processes attached to one store, each on its own pipe, serving mixed
  radius/kNN traffic against any registered backend; the calling thread
  sends each request straight to an idle worker.
"""

from .service import QueryService
from .store import SharedCloudStore

__all__ = [
    "QueryService",
    "SharedCloudStore",
]
