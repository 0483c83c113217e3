"""Lifecycle and parity tests of the shared-memory serve layer.

Covers the :class:`~repro.serve.store.SharedCloudStore` refcount contract
(attach/detach/unlink, double-close idempotence, borrowed attaches), the
orphaned-segment story (a killed refcounted holder leaks by design until
``force_unlink``), cross-process attach through the
:class:`~repro.serve.service.QueryService` pool, and bitwise parity of every
registered backend over an attached tree vs. a process-local index.

Every test runs under a leak-check fixture: no ``repro-store-*`` segment may
survive a test, whatever path it took through the API.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.core.compressed_leaf import compress_tree, compression_pass_count
from repro.engine import PointCloudIndex, backend_names
from repro.kdtree import KDTree, build_kdtree
from repro.serve import QueryService, SharedCloudStore

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
# Refcount lifecycle
# ----------------------------------------------------------------------
class TestRefcounting:
    def test_create_attach_detach_unlink(self, cloud):
        store = SharedCloudStore.create(cloud)
        assert store.refcount == 1
        assert SharedCloudStore.exists(store.name)

        second = SharedCloudStore.attach(store.name)
        assert store.refcount == 2
        second.close()
        assert store.refcount == 1
        assert SharedCloudStore.exists(store.name)

        store.close()
        assert not SharedCloudStore.exists(store.name)

    def test_last_closer_unlinks_regardless_of_order(self, cloud):
        store = SharedCloudStore.create(cloud)
        second = SharedCloudStore.attach(store.name)
        # The creator closes first; the attacher keeps the store alive.
        store.close()
        assert SharedCloudStore.exists(store.name)
        assert second.refcount == 1
        second.close()
        assert not SharedCloudStore.exists(store.name)

    def test_double_close_is_idempotent(self, cloud):
        store = SharedCloudStore.create(cloud)
        second = SharedCloudStore.attach(store.name)
        second.close()
        second.close()  # must not decrement twice
        assert store.refcount == 1
        store.close()
        store.close()
        assert not SharedCloudStore.exists(store.name)

    def test_borrowed_attach_does_not_refcount(self, cloud):
        store = SharedCloudStore.create(cloud)
        borrowed = SharedCloudStore.attach(store.name, refcounted=False)
        assert store.refcount == 1
        # A borrowed close must not decrement either.
        borrowed.close()
        assert store.refcount == 1
        assert SharedCloudStore.exists(store.name)
        store.close()

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
# Orphan cleanup (killed holder)
# ----------------------------------------------------------------------
def _hold_attached(name, started):
    store = SharedCloudStore.attach(name)
    started.set()
    time.sleep(60)  # killed long before this expires
    store.close()  # pragma: no cover - never reached


class TestOrphanCleanup:
    def test_killed_holder_orphans_then_force_unlink(self, cloud):
        store = SharedCloudStore.create(cloud)
        ctx = multiprocessing.get_context("fork")
        started = ctx.Event()
        holder = ctx.Process(target=_hold_attached,
                             args=(store.name, started), daemon=True)
        holder.start()
        assert started.wait(timeout=30)
        assert store.refcount == 2

        os.kill(holder.pid, signal.SIGKILL)
        holder.join(timeout=30)

        # The SIGKILLed holder never decremented: closing the last live
        # handle leaves the segments orphaned by design (refcount still 1)
        # rather than unlinking memory another process might still map.
        store.close()
        assert SharedCloudStore.exists(store.name)

        # force_unlink is the supervisor-side cleanup for exactly this.
        assert SharedCloudStore.force_unlink(store.name)
        assert not SharedCloudStore.exists(store.name)
        assert not SharedCloudStore.force_unlink(store.name)  # idempotent


# ----------------------------------------------------------------------
# Parity and compression accounting
# ----------------------------------------------------------------------
class TestAttachedTreeParity:
    def test_all_backends_bitwise_match_local_index(self, cloud, queries):
        with PointCloudIndex(cloud) as local, \
                SharedCloudStore.create(cloud) as store, \
                SharedCloudStore.attach(store.name) as client:
            with client.index() as served:
                for name in backend_names():
                    got = served.radius_search(queries, 0.6, backend=name)
                    ref = local.radius_search(queries, 0.6, backend=name)
                    assert np.array_equal(got.offsets, ref.offsets), name
                    assert np.array_equal(got.point_indices,
                                          ref.point_indices), name
                    got_k = served.knn(queries, 5, backend=name)
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
                served.knn(queries, 5, backend="bonsai-perquery")
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
            # A per-query path converts the node lists on first use.
            hits = store.index().radius_search(queries, 0.6,
                                               backend="bonsai-perquery")
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

    def test_serial_service_answers_from_its_own_index(
            self, cloud, queries, monkeypatch):
        """Two serial services in one process never swap maps.

        Each answers from its own index even when the module-global worker
        state names the other service's, as a second serial service in
        another thread could make it.  The other service's state is
        installed in the middle of the first request instead of racing two
        threads.
        """
        from repro.serve import service as service_module

        other_cloud = cloud + np.float32(100.0)  # no point near ``queries``
        with QueryService(cloud, n_workers=1) as mine, \
                QueryService(other_cloud, n_workers=1) as other:
            want = mine.radius(queries, 0.6)
            assert other.radius(queries, 0.6).total_matches == 0
            index = mine._local_index
            search = index.radius_search

            def swap_then_search(*args, **kwargs):
                monkeypatch.setattr(service_module, "_SERVICE_STATE",
                                    (other.store, other._local_index))
                return search(*args, **kwargs)

            monkeypatch.setattr(index, "radius_search", swap_then_search)
            request = ("radius", queries, 0.6, "baseline-batched")
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
