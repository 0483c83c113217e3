"""The serve layer: one resident compressed index, many consumers.

Three pieces, layered bottom-up:

* :class:`SharedCloudStore` (:mod:`repro.serve.store`) — the map's heavy,
  immutable arrays (points, leaf index lists, Bonsai compressed bytes and
  their decoded mirror) in refcounted POSIX shared memory; built and
  compressed exactly once, attached zero-copy by name.
* :class:`QueryService` (:mod:`repro.serve.service`) — a persistent worker
  pool attached to one store, serving mixed radius/kNN/pipeline traffic
  against any registered backend.
* :class:`StreamingPipelineRunner` (:mod:`repro.serve.streaming`) — the
  end-to-end pipeline with frame generation and clustering overlapped
  across workers behind a bounded stage queue, folding results in frame
  order so ``metrics()`` stays bitwise identical to the serial runner.
"""

from .service import QueryService
from .store import SharedCloudStore
from .streaming import StreamingPipelineRunner

__all__ = [
    "QueryService",
    "SharedCloudStore",
    "StreamingPipelineRunner",
]
