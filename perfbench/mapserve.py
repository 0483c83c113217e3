"""The ``map-serve`` workload: two closed-loop clients over one shared map.

Set-up samples a ``city_block`` map cloud, publishes it once through
``SharedCloudStore.create`` (the one build and compression pass) and starts
a 2-worker ``QueryService`` whose workers attach by name; a warm-up request
per worker ends set-up.

Two client threads then each send their next request only after the
previous one returned: ``bonsai-batched`` radius batches of 64, 256 and
1024 queries at 0.6 m plus kNN batches (k = 5).  Client A follows a path
through the map, client B draws uniformly.  The clients run in step: each
waits for the other at every cycle boundary, where the host-speed kernel is
timed while nothing else runs.  So both serve the same number of whole
cycles (the mix of requests, and with it where the median and the tail
fall, does not depend on the host's speed), and the kernel samples the
host all through the run.  A later run goes on where the previous one
stopped.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import inputs, layers
from .hostspeed import HostSpeed, slowdown_of
from .tracing import Tracer

BACKEND = "bonsai-batched"
N_WORKERS = 2
#: Kernel runs at each cycle boundary (a cycle takes about two seconds).
KERNEL_RUNS_PER_CYCLE = 2
#: How long a client may wait for the other, or the run for its clients,
#: beyond the run's length.
CLIENT_TIMEOUT_S = 120.0
#: Op ids of the in-process replay start here (client requests count from 0).
REPLAY_OP_BASE = 1_000_000


@dataclass
class Served:
    """One completed client request."""

    client: str
    number: int
    size: int
    seconds: float
    error: Optional[str]
    response_bytes: int
    traced: bool
    #: The run's cycle it belongs to, and that cycle's host slowdown.
    cycle: int
    slowdown: float = 1.0


class Lockstep:
    """The cycle boundaries at which the two clients wait for each other.

    At each, one client times the host-speed kernel while the other waits
    and the workers are idle, and the deadline is checked.  A cycle's
    slowdown is taken from the kernel samples at its two ends.
    """

    def __init__(self, host: HostSpeed, deadline: float, clients: int):
        self.host = host
        self.deadline = deadline
        #: The kernel samples, and when the kernel started and ended, at
        #: each boundary so far.
        self.kernel_s: List[List[float]] = []
        self.marks: List[Tuple[float, float]] = []
        self.stop = False
        self.barrier = threading.Barrier(clients, action=self._at_boundary,
                                         timeout=CLIENT_TIMEOUT_S)

    def _at_boundary(self) -> None:
        start = time.perf_counter()
        self.kernel_s.append(self.host.sample(KERNEL_RUNS_PER_CYCLE))
        self.marks.append((start, time.perf_counter()))
        self.stop = start >= self.deadline

    def wait(self) -> Optional[int]:
        """Wait for the other client: the cycle to serve next, or ``None``
        once the deadline has passed."""
        self.barrier.wait()
        return None if self.stop else len(self.marks) - 1

    def seconds(self, cycle: int) -> float:
        """Wall time of ``cycle``, from the end of the kernel before it to
        the start of the one after it."""
        return self.marks[cycle + 1][0] - self.marks[cycle][1]

    def slowdown(self, cycle: int) -> float:
        return slowdown_of(self.kernel_s[cycle] + self.kernel_s[cycle + 1])


class MapServeWorkload:
    def __init__(self, seed: int):
        self.seed = seed
        self.points: Optional[np.ndarray] = None
        self.store = None
        self.service = None
        self.requests: Dict[str, List[inputs.Request]] = {}
        self.references: Dict[str, List[object]] = {}
        #: Each client's next request number.
        self.next_number = {"A": 0, "B": 0}

    # ------------------------------------------------------------------
    def setup(self, tracer: Optional[Tracer] = None) -> float:
        """Sample, publish and serve the map once; returns its seconds.

        A repeated set-up replaces (and closes) the previous store and
        service.
        """
        from repro.serve import QueryService, SharedCloudStore

        self.close()
        start = time.perf_counter()
        self.points = inputs.map_points(self.seed)
        self.store = SharedCloudStore.create(self.points)
        pool_start = time.perf_counter_ns()
        self.service = QueryService(self.store, n_workers=N_WORKERS)
        warm = np.asarray(self.points[:8], dtype=np.float64)
        self.service.serve([("radius", warm, inputs.RADIUS_M, BACKEND),
                            ("knn", warm, inputs.KNN_K, BACKEND)] * N_WORKERS)
        if tracer is not None:
            tracer.record("serve.pool_start", pool_start, time.perf_counter_ns())
        return time.perf_counter() - start

    def build_references(self) -> None:
        """Request streams and their scipy answers (untimed).

        scipy is first imported here, after the last set-up forked the
        workers, so its pages never count as a worker's memory.
        """
        from scipy.spatial import cKDTree

        from . import oracle

        cloud = np.asarray(self.points, dtype=np.float64)
        tree = cKDTree(cloud)
        for client in ("A", "B"):
            stream = inputs.client_requests(self.points, self.seed, client)
            self.requests[client] = stream
            self.references[client] = [
                oracle.RadiusReference(tree, r.queries, inputs.RADIUS_M) if r.kind == "radius"
                else oracle.KNNReference(tree, cloud, r.queries, inputs.KNN_K)
                for r in stream]

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
        if self.store is not None:
            self.store.close()
            self.store = None

    # ------------------------------------------------------------------
    def run(self, seconds: float, tracer: Optional[Tracer],
            host: HostSpeed) -> Tuple[List[Served], float, float]:
        """Both clients' closed loops, in step by cycle.

        Returns every completed request, each with the slowdown of its
        cycle; the wall time of the cycles; and that time for the nominal
        host, each cycle divided by its slowdown.
        """
        step = Lockstep(host, time.perf_counter() + seconds, len(self.requests))
        served: Dict[str, List[Served]] = {client: [] for client in self.requests}
        threads = [threading.Thread(target=self._client, daemon=True,
                                    args=(client, step, tracer, served[client]))
                   for client in self.requests]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + CLIENT_TIMEOUT_S)
            if thread.is_alive() or step.barrier.broken:
                raise RuntimeError("a map-serve client did not finish")
        done = served["A"] + served["B"]
        for s in done:
            s.slowdown = step.slowdown(s.cycle)
        cycles = range(len(step.kernel_s) - 1)
        return (done, sum(step.seconds(c) for c in cycles),
                sum(step.seconds(c) / step.slowdown(c) for c in cycles))

    def _client(self, client: str, step: Lockstep, tracer: Optional[Tracer],
                out: List[Served]) -> None:
        try:
            self._serve_cycles(client, step, tracer, out)
        except BaseException:
            step.barrier.abort()  # the other client must not wait for this one
            raise

    def _serve_cycles(self, client: str, step: Lockstep, tracer: Optional[Tracer],
                      out: List[Served]) -> None:
        stream = self.requests[client]
        references = self.references[client]
        cycle = len(inputs.REQUEST_CYCLE)
        number = self.next_number[client]
        while True:
            if number % cycle == 0:
                current = step.wait()
                if current is None:
                    break
            request = stream[number % len(stream)]
            # Alternate traced and untraced requests, flipping the parity
            # every cycle so each request position is seen both ways.
            traced = tracer is not None and (number + number // cycle) % 2 == 1
            start = time.perf_counter_ns()
            try:
                if request.kind == "radius":
                    result = self.service.radius(request.queries, inputs.RADIUS_M,
                                                 backend=BACKEND)
                    arrays = (result.offsets, result.point_indices)
                else:
                    result = self.service.knn(request.queries, inputs.KNN_K,
                                              backend=BACKEND)
                    arrays = (result.indices, result.distances)
                error = None
            except Exception:  # a failed request is counted, the client goes on
                traceback.print_exc()
                arrays, error = (), "exception"
            end = time.perf_counter_ns()
            if traced:
                tracer.record("serve.request", start, end, op=number * 2 + (client == "B"))
            if error is None:
                error = references[number % len(stream)].check(*arrays)
            out.append(Served(client, number, len(request.queries),
                              (end - start) / 1e9, error,
                              sum(a.nbytes for a in arrays), traced, current))
            number += 1
        self.next_number[client] = number

    # ------------------------------------------------------------------
    def replay(self, tracer: Tracer) -> Dict[str, float]:
        """Replay each client's first cycle in-process, traced; exact counts.

        The parent's own index over the attached store answers the same
        requests the workers answered, so ``serve.inproc`` is the request
        without IPC or queueing.
        """
        index = self.store.index()
        index.backend(BACKEND)  # attach-time tree rebuild, outside the spans
        first = [r for client in ("A", "B")
                 for r in self.requests[client][:len(inputs.REQUEST_CYCLE)]]
        with tracer.installed(layers.replay_targets()):
            for offset, request in enumerate(first):
                with tracer.op(REPLAY_OP_BASE + offset, name="serve.inproc"):
                    if request.kind == "radius":
                        index.radius_search(request.queries, inputs.RADIUS_M, backend=BACKEND)
                    else:
                        index.knn(request.queries, inputs.KNN_K, backend=BACKEND)
        stats = index.search_stats
        bonsai = index.bonsai_stats
        return {
            "replayed": len(first),
            "runtime.queries": stats.queries,
            "runtime.leaves_visited": stats.leaves_visited,
            "runtime.points_examined": stats.points_examined,
            "runtime.point_bytes_loaded": stats.point_bytes_loaded,
            "core.leaf_visits": bonsai.leaf_visits,
            "core.compressed_bytes_loaded": bonsai.compressed_bytes_loaded,
            "core.recompute_bytes_loaded": bonsai.recompute_bytes_loaded,
            "core.points_classified": bonsai.points_classified,
            "core.inconclusive": bonsai.inconclusive,
        }

    def compression_ratio(self) -> float:
        """Compressed leaf bytes over 16 B per point (the paper's baseline)."""
        tree = self.store.tree()
        return tree.compressed_array.total_bytes / (16 * tree.n_points)
