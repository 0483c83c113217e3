"""Invalid search arguments fail loudly, and the same way, on every path.

A NaN radius, a NaN or infinite query coordinate, or a ``k`` that is not an
integer of at least 1 must raise ``ValueError`` from every registered
backend, the sharded index, the query service and the single-query
searches, instead of returning empty or backend-dependent results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import PointCloudIndex, ShardedPointCloudIndex, backend_names
from repro.kdtree import build_kdtree, nearest_neighbors, radius_search
from repro.runtime.queries import as_query_batch, check_k, check_radius
from repro.serve import QueryService

BAD_RADII = [float("nan"), 0.0, -0.5, float("-inf")]
BAD_K = [0, -2, 2.0, 2.5, True, "3", None]
BAD_QUERIES = [
    [[0.0, 0.0, float("nan")]],
    [[1.0, 2.0, 3.0], [float("inf"), 0.0, 0.0]],
    [[0.0, float("-inf"), 0.0]],
]


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

    @pytest.mark.parametrize("k", BAD_K)
    def test_k(self, k):
        with pytest.raises(ValueError, match="k must be"):
            check_k(k)

    @pytest.mark.parametrize("queries", BAD_QUERIES)
    def test_queries(self, queries):
        with pytest.raises(ValueError, match="finite"):
            as_query_batch(queries)

    def test_valid_arguments_pass_through(self):
        assert check_radius(np.float32(0.5)) == 0.5
        assert check_radius(float("inf")) == float("inf")
        assert check_k(np.int64(3)) == 3 and type(check_k(np.int64(3))) is int
        assert as_query_batch([1.0, 2.0, 3.0]).shape == (1, 3)


@pytest.mark.parametrize("name", backend_names())
class TestEveryBackend:
    @pytest.mark.parametrize("radius", BAD_RADII)
    def test_bad_radius(self, index, good, name, radius):
        with pytest.raises(ValueError, match="radius"):
            index.radius_search(good, radius, backend=name)

    @pytest.mark.parametrize("k", BAD_K)
    def test_bad_k(self, index, good, name, k):
        with pytest.raises(ValueError, match="k must be"):
            index.knn(good, k, backend=name)

    @pytest.mark.parametrize("queries", BAD_QUERIES)
    def test_nonfinite_queries(self, index, name, queries):
        with pytest.raises(ValueError, match="finite"):
            index.radius_search(queries, 0.5, backend=name)
        with pytest.raises(ValueError, match="finite"):
            index.knn(queries, 3, backend=name)

    def test_nonfinite_single_query(self, index, name):
        with pytest.raises(ValueError, match="finite"):
            index.backend(name).search([0.0, float("nan"), 0.0], 0.5)


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

    def test_sharded_index(self, cloud, good):
        with ShardedPointCloudIndex(cloud, tile_size=8.0) as sharded:
            with pytest.raises(ValueError, match="radius"):
                sharded.radius_search(good, float("nan"))
            with pytest.raises(ValueError, match="k must be"):
                sharded.knn(good, 2.0)
            with pytest.raises(ValueError, match="finite"):
                sharded.radius_search(BAD_QUERIES[0], 0.5)
            with pytest.raises(ValueError, match="finite"):
                sharded.knn(BAD_QUERIES[1], 3)

    def test_query_service(self, cloud, good):
        with QueryService(cloud, n_workers=2) as service:
            with pytest.raises(ValueError, match="radius"):
                service.radius(good, float("nan"))
            with pytest.raises(ValueError, match="k must be"):
                service.knn(good, 2.5)
            with pytest.raises(ValueError, match="finite"):
                service.radius(BAD_QUERIES[2], 0.5)
            with pytest.raises(ValueError, match="finite"):
                service.knn(BAD_QUERIES[0], 3)
