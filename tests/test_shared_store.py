"""Lifecycle and parity tests of the shared-memory serve layer.

Covers the :class:`~repro.serve.store.SharedCloudStore` ownership contract
(the creator unlinks, attached handles only unmap and keep answering,
double-close idempotence), the orphaned-segment story (a killed attached
holder leaves nothing behind; a killed creator's segments stay until
``force_unlink``), cross-process attach through the
:class:`~repro.serve.service.QueryService` workers (their start under
concurrent first requests, concurrent callers, worker errors and dead
workers), and bitwise parity of every registered backend over an attached
tree vs. a process-local index.

Every test runs under a leak-check fixture: no ``repro-store-*`` segment may
survive a test, whatever path it took through the API.
"""

from __future__ import annotations

import glob
import itertools
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.compressed_leaf import compress_tree, compression_pass_count
from repro.engine import PointCloudIndex, backend_names
from repro.kdtree import KDTree, build_kdtree
from repro.serve import QueryService, SharedCloudStore

REPO = Path(__file__).resolve().parent.parent
SEGMENT_GLOB = "/dev/shm/repro-store-*"


def _segments() -> list:
    return sorted(glob.glob(SEGMENT_GLOB))


@pytest.fixture(autouse=True)
def no_segment_leaks():
    """Every test must unlink every shared segment it created."""
    before = _segments()
    yield
    leaked = [name for name in _segments() if name not in before]
    for name in leaked:  # clean up so one failure doesn't cascade
        try:
            os.unlink(name)
        except OSError:
            pass
    assert leaked == [], f"leaked shared-memory segments: {leaked}"


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(41)
    return rng.uniform(-12.0, 12.0, (2500, 3)).astype(np.float32)


@pytest.fixture(scope="module")
def queries(cloud):
    rng = np.random.default_rng(42)
    base = cloud[rng.integers(0, len(cloud), 80)]
    return base.astype(np.float64) + rng.normal(0.0, 0.25, base.shape)


# ----------------------------------------------------------------------
# Ownership: the creator unlinks, attached handles only unmap
# ----------------------------------------------------------------------
class TestOwnership:
    def test_creator_close_unlinks_under_an_open_attach(self, cloud, queries):
        """The creator unlinks while a handle is attached; the attached
        index keeps answering from its live mappings, bit for bit."""
        store = SharedCloudStore.create(cloud)
        with SharedCloudStore.attach(store.name) as client, \
                client.index() as served:
            before = {name: served.radius_search(queries, 0.6, backend=name)
                      for name in backend_names()}
            store.close()
            assert not SharedCloudStore.exists(store.name)
            assert [path for path in _segments() if store.name in path] == []
            for name, want in before.items():
                got = served.radius_search(queries, 0.6, backend=name)
                assert np.array_equal(got.offsets, want.offsets), name
                assert np.array_equal(got.point_indices,
                                      want.point_indices), name

    def test_attached_close_never_unlinks(self, cloud):
        with SharedCloudStore.create(cloud) as store:
            for _ in range(2):
                attached = SharedCloudStore.attach(store.name)
                attached.close()
                assert SharedCloudStore.exists(store.name)
            assert store.tree().n_points == len(cloud)

    def test_attach_after_creator_closed_raises(self, cloud):
        store = SharedCloudStore.create(cloud)
        store.close()
        with pytest.raises(FileNotFoundError):
            SharedCloudStore.attach(store.name)

    def test_double_close_is_idempotent(self, cloud):
        store = SharedCloudStore.create(cloud)
        second = SharedCloudStore.attach(store.name)
        second.close()
        second.close()
        assert SharedCloudStore.exists(store.name)
        store.close()
        store.close()
        assert not SharedCloudStore.exists(store.name)

    def test_attach_missing_store_raises(self):
        with pytest.raises(FileNotFoundError):
            SharedCloudStore.attach("repro-store-nonexistent")

    def test_context_manager(self, cloud):
        with SharedCloudStore.create(cloud) as store:
            name = store.name
            assert SharedCloudStore.exists(name)
        assert store.closed
        assert not SharedCloudStore.exists(name)

    def test_closed_store_refuses_tree(self, cloud):
        store = SharedCloudStore.create(cloud)
        store.close()
        with pytest.raises(ValueError):
            store.tree()


# ----------------------------------------------------------------------
# Orphan cleanup (killed holder, killed creator)
# ----------------------------------------------------------------------
def _hold_attached(name, started):
    store = SharedCloudStore.attach(name)
    started.set()
    time.sleep(60)  # killed long before this expires
    store.close()  # pragma: no cover - never reached


class TestOrphanCleanup:
    def test_killed_attached_holder_leaves_nothing_behind(self, cloud):
        store = SharedCloudStore.create(cloud)
        ctx = multiprocessing.get_context("fork")
        started = ctx.Event()
        holder = ctx.Process(target=_hold_attached,
                             args=(store.name, started), daemon=True)
        holder.start()
        assert started.wait(timeout=30)
        os.kill(holder.pid, signal.SIGKILL)
        holder.join(timeout=30)

        store.close()
        assert not SharedCloudStore.exists(store.name)
        assert [path for path in _segments() if store.name in path] == []

    def test_killed_creator_leaves_segments_until_force_unlink(self):
        script = (
            "import time\n"
            "import numpy as np\n"
            "from repro.serve import SharedCloudStore\n"
            "points = np.random.default_rng(3).uniform(-5, 5, (300, 3))\n"
            "store = SharedCloudStore.create(points.astype(np.float32))\n"
            "print(store.name, flush=True)\n"
            "time.sleep(120)\n"
        )
        with subprocess.Popen(
                [sys.executable, "-c", script], stdout=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONPATH": str(REPO / "src")}) as proc:
            try:
                ready, _, _ = select.select([proc.stdout], [], [], 60)
                name = proc.stdout.readline().strip() if ready else ""
            finally:
                proc.kill()
        assert name.startswith("repro-store-")
        leftovers = [path for path in _segments() if name in path]
        assert sorted(Path(path).name for path in leftovers) == [
            f"{name}-{suffix}" for suffix in ("data", "dec", "meta")]
        assert SharedCloudStore.exists(name)

        # force_unlink is the supervisor-side cleanup for exactly this.
        assert SharedCloudStore.force_unlink(name)
        assert not SharedCloudStore.exists(name)
        assert not SharedCloudStore.force_unlink(name)  # idempotent


# ----------------------------------------------------------------------
# Parity and compression accounting
# ----------------------------------------------------------------------
class TestAttachedTreeParity:
    def test_all_backends_bitwise_match_local_index(self, cloud, queries):
        with PointCloudIndex(cloud) as local, \
                SharedCloudStore.create(cloud) as store, \
                SharedCloudStore.attach(store.name) as client:
            with client.index() as served:
                # Every backend, and its recorded walk, over the attached tree.
                for name, recorded in itertools.product(backend_names(),
                                                        (False, True)):
                    backend = served.backend(name, recorded=recorded)
                    got = backend.radius_search(queries, 0.6)
                    ref = local.radius_search(queries, 0.6, backend=name)
                    assert np.array_equal(got.offsets, ref.offsets), name
                    assert np.array_equal(got.point_indices,
                                          ref.point_indices), name
                    got_k = backend.knn(queries, 5)
                    ref_k = local.knn(queries, 5, backend=name)
                    assert np.array_equal(got_k.indices, ref_k.indices), name
                    assert np.array_equal(got_k.distances,
                                          ref_k.distances), name

    def test_attached_index_never_recompresses(self, cloud, queries):
        with SharedCloudStore.create(cloud) as store, \
                SharedCloudStore.attach(store.name) as client:
            passes_before = compression_pass_count()
            with client.index() as served:
                served.radius_search(queries, 0.6, backend="bonsai-batched")
                served.backend("bonsai-batched", recorded=True).knn(queries, 5)
            assert compression_pass_count() == passes_before

    def test_create_runs_exactly_one_pass(self, cloud):
        passes_before = compression_pass_count()
        with SharedCloudStore.create(cloud):
            assert compression_pass_count() == passes_before + 1

    def test_precompressed_tree_is_reused(self, cloud):
        """Creating a store from an already-compressed tree adds no pass."""
        index = PointCloudIndex(cloud)
        index.ensure_compressed()
        passes_before = compression_pass_count()
        with SharedCloudStore.create(index.tree) as store:
            assert compression_pass_count() == passes_before
            assert store.n_points == len(cloud)
        index.close()

    def test_attached_tree_serves_batches_without_node_objects(
            self, cloud, queries, monkeypatch):
        """Batched searches read the published arrays; the node lists the
        per-query walks read are never converted."""
        local = PointCloudIndex(cloud)
        expected = [local.radius_search(queries, 0.6, backend=name)
                    for name in ("baseline-batched", "bonsai-batched")]
        expected_knn = local.knn(queries, 5)
        local.close()

        def refuse(tree):
            raise AssertionError("node lists converted")

        monkeypatch.setattr(KDTree, "node_lists", property(refuse))
        with SharedCloudStore.create(cloud) as store, \
                SharedCloudStore.attach(store.name) as client:
            with client.index() as served:
                for name, want in zip(("baseline-batched", "bonsai-batched"),
                                      expected):
                    got = served.radius_search(queries, 0.6, backend=name)
                    assert np.array_equal(got.point_indices, want.point_indices)
                    got_k = served.knn(queries, 5, backend=name)
                    assert np.array_equal(got_k.indices, expected_knn.indices)
        monkeypatch.undo()
        with SharedCloudStore.create(cloud) as store:
            # A recorded per-query walk converts the node lists on first use.
            hits = store.index().backend(
                "bonsai-batched", recorded=True).radius_search(queries, 0.6)
            assert np.array_equal(hits.point_indices, expected[1].point_indices)
            store.index().close()

    def test_shared_arrays_are_readonly_views(self, cloud):
        with SharedCloudStore.create(cloud) as store:
            tree = store.tree()
            assert not tree.points.flags.writeable
            with pytest.raises(ValueError):
                tree.points[0, 0] = 0.0

    def test_attached_mirror_is_readonly_and_matches_creator(self, cloud):
        """Attachers map the creator's decoded mirror: same bits, no pass."""
        local = build_kdtree(cloud)
        compress_tree(local)
        with SharedCloudStore.create(cloud) as store:
            passes_before = compression_pass_count()
            with SharedCloudStore.attach(store.name) as client:
                array = client.tree().compressed_array
                mirror = array.mirror
                expected = local.compressed_array.mirror
                for name in ("reduced", "max_delta", "starts"):
                    view, want = getattr(mirror, name), getattr(expected, name)
                    assert not view.flags.writeable, name
                    assert view.dtype == want.dtype, name
                    assert np.array_equal(view.view(np.uint8), want.view(np.uint8)), name
                with pytest.raises(ValueError):
                    mirror.reduced[0, 0] = 0.0
                assert array.data == local.compressed_array.data
                served = client.index().radius_search(cloud[:40], 0.6,
                                                      backend="bonsai-batched")
                assert served.total_matches > 0
            assert compression_pass_count() == passes_before


# ----------------------------------------------------------------------
# QueryService over the store
# ----------------------------------------------------------------------
class TestQueryService:
    def test_mixed_traffic_matches_local(self, cloud, queries):
        with PointCloudIndex(cloud) as local, \
                QueryService(cloud, n_workers=2) as service:
            got = service.radius(queries, 0.6, backend="bonsai-batched")
            ref = local.radius_search(queries, 0.6, backend="bonsai-batched")
            assert np.array_equal(got.offsets, ref.offsets)
            assert np.array_equal(got.point_indices, ref.point_indices)

            got_k = service.knn(queries, 5, backend="baseline-batched")
            ref_k = local.knn(queries, 5, backend="baseline-batched")
            assert np.array_equal(got_k.indices, ref_k.indices)
            assert np.array_equal(got_k.distances, ref_k.distances)

    def test_serve_preserves_request_order(self, cloud, queries):
        with QueryService(cloud, n_workers=2) as service:
            requests = [("radius", queries, 0.4, "baseline-batched"),
                        ("knn", queries, 3, "bonsai-batched"),
                        ("radius", queries, 0.8, "bonsai-batched")]
            results = service.serve(requests)
            assert len(results) == 3
            # Radius results are (offsets, point_indices) pairs; a larger
            # radius can only grow the hit count — order would scramble this.
            assert results[0][0][-1] <= results[2][0][-1]

    def test_serial_and_pooled_results_identical(self, cloud, queries):
        with QueryService(cloud, n_workers=2) as pooled, \
                QueryService(cloud, n_workers=1) as serial:
            a = pooled.radius(queries, 0.6, backend="bonsai-batched")
            b = serial.radius(queries, 0.6, backend="bonsai-batched")
            assert np.array_equal(a.offsets, b.offsets)
            assert np.array_equal(a.point_indices, b.point_indices)

    def test_serial_service_answers_from_its_own_index(self, cloud, queries):
        """Two serial services in one process never swap maps, however
        their requests interleave."""
        other_cloud = cloud + np.float32(100.0)  # no point near ``queries``
        with QueryService(cloud, n_workers=1) as mine, \
                QueryService(other_cloud, n_workers=1) as other:
            want = mine.radius(queries, 0.6)
            assert want.total_matches > 0
            request = ("radius", queries, 0.6, "baseline-batched")
            for _ in range(2):
                assert other.radius(queries, 0.6).total_matches == 0
                for offsets, point_indices in mine.serve([request, request]):
                    assert np.array_equal(offsets, want.offsets)
                    assert np.array_equal(point_indices, want.point_indices)

    def test_borrowed_store_survives_service_close(self, cloud, queries):
        with SharedCloudStore.create(cloud) as store:
            service = QueryService(store, n_workers=1)
            service.radius(queries, 0.5)
            service.close()
            # The service borrowed the store: closing it must not unlink.
            assert SharedCloudStore.exists(store.name)
            with pytest.raises(ValueError):
                service.serve([("radius", queries, 0.5, "baseline-batched")])

    def test_worker_errors_raise_after_every_reply_is_read(self, cloud,
                                                           queries):
        """A request that fails in a worker, or does not pickle, raises in
        the caller, and every connection goes back with no reply unread."""
        with PointCloudIndex(cloud) as local, \
                QueryService(cloud, n_workers=2) as service:
            good = ("radius", queries, 0.6, "baseline-batched")
            with pytest.raises(ValueError, match="unknown service request"):
                service.serve([good, ("bogus",), good, good])
            with pytest.raises(KeyError, match="no-such-backend"):
                service.knn(queries, 3, backend="no-such-backend")
            with pytest.raises(Exception, match="pickle"):
                service.serve([good, ("radius", lambda: 0, 0.6, "x"), good])
            want = local.radius_search(queries, 0.6, backend="baseline-batched")
            for offsets, point_indices in service.serve([good] * 5):
                assert np.array_equal(offsets, want.offsets)
                assert np.array_equal(point_indices, want.point_indices)

    def test_concurrent_first_requests_start_one_set_of_workers(
            self, cloud, queries):
        """Two threads making a fresh service's first request together
        start exactly ``n_workers`` worker processes between them."""
        before = set(multiprocessing.active_children())
        barrier = threading.Barrier(2)
        results, errors = [], []

        def first_request():
            try:
                barrier.wait(timeout=30)
                results.append(service.radius(queries, 0.6))
            except Exception as exc:
                errors.append(exc)

        with QueryService(cloud, n_workers=2) as service:
            threads = [threading.Thread(target=first_request)
                       for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            started = set(multiprocessing.active_children()) - before
            assert errors == [] and len(results) == 2
            assert len(started) == service.n_workers
            assert np.array_equal(results[0].point_indices,
                                  results[1].point_indices)
        assert set(multiprocessing.active_children()) - before == set()

    def test_killed_workers_raise_instead_of_hanging(self):
        """Every worker killed: the next requests raise ``RuntimeError``
        naming a worker, ``close()`` returns and no worker is left.  Runs in
        a subprocess so a hang fails by timeout."""
        script = (
            "import multiprocessing, os, signal\n"
            "import numpy as np\n"
            "from repro.serve import QueryService\n"
            "rng = np.random.default_rng(5)\n"
            "points = rng.uniform(-5.0, 5.0, (400, 3)).astype(np.float32)\n"
            "queries = points[:20].astype(np.float64)\n"
            "service = QueryService(points, n_workers=2)\n"
            "service.radius(queries, 0.5)\n"
            "pids = [child.pid for child in multiprocessing.active_children()]\n"
            "print(len(pids))\n"
            "for pid in pids:\n"
            "    os.kill(pid, signal.SIGKILL)\n"
            "for attempt in range(2):\n"
            "    try:\n"
            "        service.radius(queries, 0.5)\n"
            "    except RuntimeError as exc:\n"
            "        print(any(f'worker {pid} died (exit code -9)' in str(exc)\n"
            "                  for pid in pids))\n"
            "service.close()\n"
            "print(multiprocessing.active_children())\n"
            "for pid in pids:\n"
            "    try:\n"
            "        os.kill(pid, 0)\n"
            "    except ProcessLookupError:\n"
            "        print('gone')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["2", "True", "True", "[]", "gone", "gone"]

    def test_workers_exit_when_the_service_process_dies(self, cloud):
        """A service process killed without any cleanup leaves no worker
        behind: each sees EOF on its pipe and ends."""
        script = (
            "import multiprocessing, sys, time\n"
            "import numpy as np\n"
            "from repro.serve import QueryService, SharedCloudStore\n"
            "store = SharedCloudStore.attach(sys.argv[1])\n"
            "service = QueryService(store, n_workers=2)\n"
            "service.radius(np.zeros((4, 3)), 0.5)\n"
            "print(*(c.pid for c in multiprocessing.active_children()),\n"
            "      flush=True)\n"
            "time.sleep(120)\n"
        )

        def running(pid):
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except OSError:
                return False
            return stat.rsplit(")", 1)[1].split()[0] not in "ZX"

        with SharedCloudStore.create(cloud) as store, subprocess.Popen(
                [sys.executable, "-c", script, store.name],
                stdout=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": str(REPO / "src")}) as proc:
            try:
                ready, _, _ = select.select([proc.stdout], [], [], 60)
                pids = [int(pid) for pid in proc.stdout.readline().split()] \
                    if ready else []
            finally:
                proc.kill()
        assert len(pids) == 2
        deadline = time.monotonic() + 30
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(running, pids))

    def test_concurrent_callers_get_their_own_replies(self, cloud):
        """Four client threads, more than the two workers, each send mixed
        radius/kNN requests over their own query set (singly and in
        batches) while the interpreter switches threads as often as it
        can; every reply must be the local index's answer to that very
        request."""
        rng = np.random.default_rng(44)
        streams = []
        with PointCloudIndex(cloud) as local:
            for _ in range(4):
                mine = cloud[rng.integers(0, len(cloud), 40)].astype(
                    np.float64) + rng.normal(0.0, 0.3, (40, 3))
                requests, expected = [], []
                for number in range(25):
                    backend = ("baseline-batched", "bonsai-batched")[number % 2]
                    if number % 3 == 2:
                        k = 1 + number % 7
                        result = local.knn(mine, k, backend=backend)
                        requests.append(("knn", mine, k, backend))
                        expected.append((result.indices, result.distances))
                    else:
                        radius = 0.3 + 0.05 * number
                        result = local.radius_search(mine, radius,
                                                     backend=backend)
                        requests.append(("radius", mine, radius, backend))
                        expected.append((result.offsets,
                                         result.point_indices))
                streams.append((requests, expected))

        mismatches, errors = [], []

        def client(requests, expected):
            try:
                start = 0
                for size in (1, 3, 1, 2, 5, 1, 4, 2, 1, 5):
                    replies = service.serve(requests[start:start + size])
                    for offset, reply in enumerate(replies):
                        want = expected[start + offset]
                        if not all(np.array_equal(a, b)
                                   for a, b in zip(reply, want)):
                            mismatches.append(start + offset)
                    start += size
            except Exception as exc:
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with QueryService(cloud, n_workers=2) as service:
                threads = [threading.Thread(target=client, args=stream)
                           for stream in streams]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                alive = [thread for thread in threads if thread.is_alive()]
        finally:
            sys.setswitchinterval(switch)
        assert alive == []
        assert errors == [] and mismatches == []
