"""Invalid search arguments fail loudly, and the same way, on every path.

A NaN radius, a NaN or infinite query coordinate, or a ``k`` that is not an
integer of at least 1 must raise ``ValueError`` from every registered
backend, each flavour's recorded per-query walk, the sharded index, the
query service and the single-query searches, instead of returning empty or
backend-dependent results.  So must a radius that is not a real number
(a bool, a string, a complex number, a sequence, ``None``) and queries that
are not real numbers in rows of three (strings, complex numbers, bools,
ragged rows), each with a message naming the argument.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import PointCloudIndex, ShardedPointCloudIndex
from repro.kdtree import build_kdtree, nearest_neighbors, radius_search
from repro.runtime.queries import as_query_batch, as_query_point, check_k, check_radius
from repro.serve import QueryService

BAD_RADII = [float("nan"), 0.0, -0.5, float("-inf"), np.array([0.5]), None, [0.5],
             0.5 + 0j, "abc", "0.5", True, np.bool_(True)]
BAD_K = [0, -2, 2.0, 2.5, True, "3", None]
BAD_QUERIES = [
    [[0.0, 0.0, float("nan")]],
    [[1.0, 2.0, 3.0], [float("inf"), 0.0, 0.0]],
    [[0.0, float("-inf"), 0.0]],
]
#: Queries that are not real numbers in rows of three.
NON_NUMERIC_QUERIES = [
    [["1", "2", "3"]],
    [[1.0, 2.0, 3.0 + 0.5j]],
    [[1.0, 2.0, 3.0], [1.0, 2.0]],
    [[True, False, True]],
    None,
    "abc",
]
NON_NUMERIC = "queries must be real numbers"

#: Every search path, by test id: ``(backend name, recorded)``.  The
#: ``*-perquery`` ids are each flavour's recorded per-query walk.
PATHS = {
    "baseline-batched": ("baseline-batched", False),
    "baseline-perquery": ("baseline-batched", True),
    "bonsai-batched": ("bonsai-batched", False),
    "bonsai-perquery": ("bonsai-batched", True),
}


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(7)
    return rng.uniform(-10.0, 10.0, (600, 3)).astype(np.float32)


@pytest.fixture(scope="module")
def good(cloud):
    return cloud[:4].astype(np.float64)


@pytest.fixture(scope="module")
def index(cloud):
    with PointCloudIndex(cloud) as idx:
        yield idx


class TestChecks:
    @pytest.mark.parametrize("radius", BAD_RADII)
    def test_radius(self, radius):
        with pytest.raises(ValueError, match="radius"):
            check_radius(radius)

    def test_radius_beyond_float(self):
        with pytest.raises(ValueError, match="radius"):
            check_radius(10 ** 400)

    @pytest.mark.parametrize("k", BAD_K)
    def test_k(self, k):
        with pytest.raises(ValueError, match="k must be"):
            check_k(k)

    @pytest.mark.parametrize("queries", BAD_QUERIES)
    def test_queries(self, queries):
        with pytest.raises(ValueError, match="finite"):
            as_query_batch(queries)

    @pytest.mark.parametrize("queries", NON_NUMERIC_QUERIES)
    def test_non_numeric_queries(self, queries):
        with pytest.raises(ValueError, match=NON_NUMERIC):
            as_query_batch(queries)

    def test_non_numeric_query_point(self):
        with pytest.raises(ValueError, match="query must be real numbers"):
            as_query_point(["1", "2", "3"])
        with pytest.raises(ValueError, match="query must be real numbers"):
            as_query_point([1.0, 2.0, 3.0 + 0.5j])

    def test_valid_arguments_pass_through(self):
        assert check_radius(np.float32(0.5)) == 0.5
        assert check_radius(float("inf")) == float("inf")
        assert check_radius(2) == 2.0 and type(check_radius(np.int64(2))) is float
        assert check_k(np.int64(3)) == 3 and type(check_k(np.int64(3))) is int
        assert as_query_batch([1.0, 2.0, 3.0]).shape == (1, 3)
        assert as_query_batch([[1, 2, 3]]).dtype == np.float64
        assert as_query_batch(np.zeros((2, 3), dtype=np.float32)).dtype == np.float64


@pytest.fixture()
def backend(request, index):
    name, recorded = PATHS[request.param]
    return index.backend(name, recorded=recorded)


@pytest.mark.parametrize("backend", sorted(PATHS), indirect=True)
class TestEveryBackend:
    @pytest.mark.parametrize("radius", BAD_RADII)
    def test_bad_radius(self, backend, good, radius):
        with pytest.raises(ValueError, match="radius"):
            backend.radius_search(good, radius)

    @pytest.mark.parametrize("k", BAD_K)
    def test_bad_k(self, backend, good, k):
        with pytest.raises(ValueError, match="k must be"):
            backend.knn(good, k)

    @pytest.mark.parametrize("queries", BAD_QUERIES)
    def test_nonfinite_queries(self, backend, queries):
        with pytest.raises(ValueError, match="finite"):
            backend.radius_search(queries, 0.5)
        with pytest.raises(ValueError, match="finite"):
            backend.knn(queries, 3)

    @pytest.mark.parametrize("queries", NON_NUMERIC_QUERIES)
    def test_non_numeric_queries(self, backend, queries):
        with pytest.raises(ValueError, match=NON_NUMERIC):
            backend.radius_search(queries, 0.5)
        with pytest.raises(ValueError, match=NON_NUMERIC):
            backend.knn(queries, 3)

    def test_nonfinite_single_query(self, backend):
        """One query given as a point, not a batch (the recorded walks'
        ``search`` takes one too)."""
        query = [0.0, float("nan"), 0.0]
        with pytest.raises(ValueError, match="finite"):
            backend.radius_search(query, 0.5)
        if hasattr(backend, "search"):
            with pytest.raises(ValueError, match="finite"):
                backend.search(query, 0.5)


class TestOtherEntryPoints:
    def test_single_query_searches(self, cloud):
        tree = build_kdtree(cloud)
        nan_query = [0.0, 0.0, float("nan")]
        with pytest.raises(ValueError, match="radius"):
            radius_search(tree, cloud[0], float("nan"))
        with pytest.raises(ValueError, match="finite"):
            radius_search(tree, nan_query, 0.5)
        with pytest.raises(ValueError, match="k must be"):
            nearest_neighbors(tree, cloud[0], 1.5)
        with pytest.raises(ValueError, match="finite"):
            nearest_neighbors(tree, nan_query, 2)
        for radius in BAD_RADII:
            with pytest.raises(ValueError, match="radius"):
                radius_search(tree, cloud[0], radius)
        with pytest.raises(ValueError, match="query must be real numbers"):
            radius_search(tree, ["1", "2", "3"], 0.5)
        with pytest.raises(ValueError, match="query must be real numbers"):
            nearest_neighbors(tree, [0.0, 0.5j, 0.0], 2)

    def test_sharded_index(self, cloud, good):
        with ShardedPointCloudIndex(cloud, tile_size=8.0) as sharded:
            for radius in BAD_RADII:
                with pytest.raises(ValueError, match="radius"):
                    sharded.radius_search(good, radius)
            for queries in BAD_QUERIES:
                with pytest.raises(ValueError, match="finite"):
                    sharded.radius_search(queries, 0.5)
            for queries in NON_NUMERIC_QUERIES:
                with pytest.raises(ValueError, match=NON_NUMERIC):
                    sharded.radius_search(queries, 0.5)

    def test_query_service(self, cloud, good):
        with QueryService(cloud, n_workers=2) as service:
            for radius in BAD_RADII:
                with pytest.raises(ValueError, match="radius"):
                    service.radius(good, radius)
            with pytest.raises(ValueError, match="k must be"):
                service.knn(good, 2.5)
            with pytest.raises(ValueError, match="finite"):
                service.radius(BAD_QUERIES[2], 0.5)
            with pytest.raises(ValueError, match="finite"):
                service.knn(BAD_QUERIES[0], 3)
            for queries in NON_NUMERIC_QUERIES:
                with pytest.raises(ValueError, match=NON_NUMERIC):
                    service.radius(queries, 0.5)
                with pytest.raises(ValueError, match=NON_NUMERIC):
                    service.knn(queries, 3)
