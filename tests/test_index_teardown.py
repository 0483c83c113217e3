"""Teardown/reuse tests of the backend cache and the query service's pool.

``PointCloudIndex.close()`` must be idempotent, must never crash on
double-close, and must leave the index fully usable afterwards — the next
call rebuilds a fresh backend and returns identical results.  A
:class:`~repro.serve.QueryService` left open at interpreter exit must shut
its worker pool and its shared store down cleanly.
"""

from __future__ import annotations

import glob

import numpy as np
import pytest

from repro.engine import PointCloudIndex
from repro.kdtree import build_kdtree


@pytest.fixture(scope="module")
def case():
    rng = np.random.default_rng(23)
    points = rng.uniform(-7.0, 7.0, (500, 3)).astype(np.float32)
    queries = points[:60].astype(np.float64) \
        + rng.normal(0.0, 0.25, (60, 3))
    return build_kdtree(points), queries


class TestPointCloudIndexClose:
    def test_close_is_idempotent(self, case):
        tree, queries = case
        index = PointCloudIndex(tree)
        index.radius_search(queries, 0.5)
        index.close()
        index.close()  # double close must be a no-op, not a crash
        index.close()

    def test_close_empties_the_backend_cache(self, case):
        tree, queries = case
        index = PointCloudIndex(tree)
        before = index.backend("baseline-batched")
        index.radius_search(queries, 0.5)
        index.close()
        after = index.backend("baseline-batched")
        assert after is not before
        # And the fresh backend is cached again.
        assert index.backend("baseline-batched") is after

    def test_index_usable_after_close_with_identical_results(self, case):
        tree, queries = case
        index = PointCloudIndex(tree)
        first = index.radius_search(queries, 0.5)
        index.close()
        second = index.radius_search(queries, 0.5)
        assert np.array_equal(first.offsets, second.offsets)
        assert np.array_equal(first.point_indices, second.point_indices)

    def test_repeated_close_reuse_cycles(self, case):
        tree, queries = case
        index = PointCloudIndex(tree)
        reference = index.radius_search(queries, 0.5)
        for _ in range(3):
            result = index.radius_search(
                queries, 0.5, backend="bonsai-batched")
            assert np.array_equal(result.point_indices,
                                  reference.point_indices)
            index.close()
            assert index._backends == {}


class TestContextManagers:
    def test_index_as_context_manager(self, case):
        tree, queries = case
        with PointCloudIndex(tree) as index:
            backend = index.backend("bonsai-batched")
            backend.radius_search(queries, 0.5)
            assert index._backends
        # __exit__ cleared the cache; the next request builds afresh.
        assert index._backends == {}
        assert index.backend("bonsai-batched") is not backend

    def test_context_manager_closes_on_exception(self, case):
        tree, queries = case
        with pytest.raises(RuntimeError, match="boom"):
            with PointCloudIndex(tree) as index:
                index.radius_search(queries, 0.5, backend="bonsai-batched")
                raise RuntimeError("boom")
        assert index._backends == {}

    def test_sharded_index_as_context_manager(self, case):
        from repro.engine import ShardedPointCloudIndex

        tree, queries = case
        points = np.asarray(tree.points)
        with ShardedPointCloudIndex(points, tile_size=5.0) as sharded:
            result = sharded.radius_search(queries, 0.5)
            assert result.offsets[-1] > 0
        # Shards are closed; the index stays reusable per close() contract.
        again = sharded.radius_search(queries, 0.5)
        assert np.array_equal(result.offsets, again.offsets)
        sharded.close()

    def test_exit_without_close_in_subprocess_is_clean(self):
        """Interpreter exit with a live service pool must not traceback
        and must unlink the service's shared store."""
        import subprocess
        import sys

        code = (
            "import numpy as np\n"
            "from repro.serve import QueryService\n"
            "rng = np.random.default_rng(23)\n"
            "points = rng.uniform(-7.0, 7.0, (500, 3)).astype(np.float32)\n"
            "service = QueryService(points, n_workers=2)\n"
            "service.radius(points[:60].astype(np.float64), 0.5)\n"
            "assert service._pool is not None\n"
            "print(service.store.name)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        store_name = proc.stdout.strip()
        assert store_name.startswith("repro-store-")
        assert glob.glob(f"/dev/shm/{store_name}-*") == []
