import time
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import inputs, mapserve
from perfbench.hostspeed import HostSpeed


class FakeService:
    """Answers every request empty, after a delay that grows with its size."""

    def radius(self, queries, radius, backend):
        time.sleep(1e-5 * len(queries))
        return SimpleNamespace(offsets=np.zeros(len(queries) + 1, dtype=np.int64),
                               point_indices=np.zeros(0, dtype=np.int64))

    def knn(self, queries, k, backend):
        time.sleep(1e-5 * len(queries))
        return SimpleNamespace(indices=np.zeros((len(queries), k), dtype=np.int64),
                               distances=np.zeros((len(queries), k)))


class Accept:
    def check(self, *arrays):
        return None


def fake_workload(sizes):
    """Client B's batches are ``sizes[1]`` / ``sizes[0]`` times client A's."""
    workload = mapserve.MapServeWorkload(seed=1)
    workload.service = FakeService()
    for client, scale in zip(("A", "B"), sizes):
        workload.requests[client] = [
            inputs.Request(kind, np.zeros((scale * size // 64, 3)))
            for kind, size in inputs.REQUEST_CYCLE * 2]
        workload.references[client] = [Accept()] * len(workload.requests[client])
    return workload


def test_clients_serve_the_same_whole_cycles_and_sample_the_host_at_each_boundary():
    workload = fake_workload((1, 4))
    host = HostSpeed()
    served, wall, nominal_wall = workload.run(0.3, None, host)
    cycle = len(inputs.REQUEST_CYCLE)
    per_client = {c: [s.number for s in served if s.client == c] for c in ("A", "B")}
    assert per_client["A"] == per_client["B"] == list(range(len(per_client["A"])))
    cycles = len(per_client["A"]) // cycle
    assert cycles >= 1 and len(per_client["A"]) == cycles * cycle
    assert sorted({s.cycle for s in served}) == list(range(cycles))
    assert len(host.kernel_s) == (cycles + 1) * mapserve.KERNEL_RUNS_PER_CYCLE
    assert 0 < wall and 0 < nominal_wall
    assert all(s.slowdown > 0 for s in served)
    # A later run goes on where this one stopped.
    more, _, _ = workload.run(0.05, None, host)
    assert min(s.number for s in more) == cycles * cycle


@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_a_failing_client_stops_the_other(monkeypatch):
    workload = fake_workload((1, 1))
    monkeypatch.setattr(mapserve, "CLIENT_TIMEOUT_S", 5.0)
    workload.references["B"] = None  # client B fails on its first check
    start = time.perf_counter()
    with pytest.raises(RuntimeError):
        workload.run(0.2, None, HostSpeed())
    assert time.perf_counter() - start < 5.0
