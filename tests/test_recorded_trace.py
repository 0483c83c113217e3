"""The recorded memory traces, access by access.

Every hardware figure comes from the per-query recorded walk: the cache
model sees the loads and stores a search records, in order.  The goldens
check only the resulting cache counts, so these tests pin the traces
themselves, as SHA-256 digests of every ``(load|store, address, size)``:

* radius batches through each flavour's recorded walk
  (:data:`~repro.engine.backends.RECORDED_BACKENDS`), Bonsai's build-time
  compression pass included, on the degenerate worlds of
  ``test_flat_traversal.py``;
* one recorded euclidean-cluster extraction per flavour on an urban frame;
* recorded kNN batches on the same degenerate worlds, after a hand-checked
  access sequence on a two-leaf tree.

A refactor of the per-query walk, the leaf inspectors or the address map
must leave every digest as it is.  The single-query entry points record
through a recorder alone, exactly as the recorded walks do.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

import numpy as np
import pytest

from repro.core.bonsai_search import BonsaiLeafInspector, compress_and_record
from repro.engine import ExecutionConfig
from repro.engine.backends import RECORDED_BACKENDS
from repro.kdtree import SearchStats, build_kdtree, nearest_neighbors, radius_search
from repro.kdtree.build import KDTreeConfig
from repro.kdtree.layout import INDICES_BASE, NODES_BASE, POINTS_BASE
from repro.perception.euclidean_cluster import EuclideanClusterExtractor
from repro.pointcloud import preprocess_for_clustering
from repro.scenarios import build_sequence
from test_flat_traversal import WORLDS, _world

LOAD, STORE = 0, 1


class ListRecorder:
    """A memory recorder keeping every access in order."""

    def __init__(self):
        self.accesses: List[Tuple[int, int, int]] = []

    def record_load(self, address: int, size: int) -> None:
        self.accesses.append((LOAD, address, size))

    def record_store(self, address: int, size: int) -> None:
        self.accesses.append((STORE, address, size))

    def digest(self) -> str:
        trace = np.array(self.accesses, dtype=np.int64).reshape(-1, 3)
        return hashlib.sha256(trace.tobytes()).hexdigest()


def _world_trace(name: str, flavor: str) -> ListRecorder:
    """Every radius batch of world ``name`` through a recorded backend."""
    points, queries, radii = _world(name)
    recorder = ListRecorder()
    backend = RECORDED_BACKENDS[flavor](build_kdtree(points), recorder=recorder)
    for radius in radii:
        backend.radius_search(queries, radius)
    return recorder


KNN_KS = (1, 4, 9)


def _world_knn_trace(name: str, flavor: str) -> ListRecorder:
    """kNN batches of world ``name`` (every k of ``KNN_KS``) through a recorded backend."""
    points, queries, _ = _world(name)
    recorder = ListRecorder()
    backend = RECORDED_BACKENDS[flavor](build_kdtree(points), recorder=recorder)
    for k in KNN_KS:
        backend.knn(queries, k)
    return recorder


def _urban_frame():
    sequence = build_sequence("urban", n_frames=2, seed=3)
    return preprocess_for_clustering(sequence.frame(1))


WORLD_DIGESTS = {
    ("single-point", "baseline"):
        "b7c1b6ff16f1f1b976226179fc002691e5debb09c593292e53a3143673799baa",
    ("single-point", "bonsai"):
        "032282abf1ce2126a57dd6d7a1acb9b4400c50e95278daa9c909a8ac13fc59ab",
    ("all-duplicates", "baseline"):
        "58f4966c21882f1abd0e2e63a9e636cb71a620a9b33d51ab443b3c2e9ac93bda",
    ("all-duplicates", "bonsai"):
        "6e7bdb49bbd518a19fdbb474d88f4dba10776d018292e1c54d131e95b3f81c60",
    ("duplicates-and-spread", "baseline"):
        "518689f432afac9973d66632d63d1f2aca4914a60a4ec8420e17091b86743d06",
    ("duplicates-and-spread", "bonsai"):
        "3dfb23de612ed463e7969089e852721a01d636b6d53181f7969926094398c777",
    ("on-split-planes", "baseline"):
        "71cbcd18c484a1e97827d0063946ac1d888c9013275cf3b8a94d794b105438da",
    ("on-split-planes", "bonsai"):
        "a4b636ab66a7508b6b24ad3adbeb4cd4b853a443341a7cc932b8e542dd9a7867",
    ("exactly-at-r", "baseline"):
        "85de5cf62929d529674224c4d60fa7f6b43c446053aa9c14b16b7f3b4aa45497",
    ("exactly-at-r", "bonsai"):
        "632bea7f84efd24a200368dae526b6cd3ec03f18c0b81e8ab2377fa32ba2af14",
    ("radius-reaches-every-leaf", "baseline"):
        "d0fe59f522a7c5524f498ca0bb419f58281d604eb394317775620b0884dec848",
    ("radius-reaches-every-leaf", "bonsai"):
        "c3ff56b4d67adce210719147cdf8b55a229411e09ff1fb331d329dfc394b1f2e",
}

KNN_DIGESTS = {
    ("single-point", "baseline"):
        "b7c1b6ff16f1f1b976226179fc002691e5debb09c593292e53a3143673799baa",
    ("single-point", "bonsai"):
        "ea16584b9f34af1536271ce6238e4a62a76fc6f05408a2d65f345b38b67fe714",
    ("all-duplicates", "baseline"):
        "12c89f3b456650a733cbc425a95fadcd42801399af4d0cdd4517348f494438ea",
    ("all-duplicates", "bonsai"):
        "c6517975c1ff0e1c08eae5023cced5a99579e4d02fb9e2b85fb57490fd6fba92",
    ("duplicates-and-spread", "baseline"):
        "290bf245e85e9757a843c1dbcc8e3afc2f3c2da1dcf6a8faf129f6884d2dcbbe",
    ("duplicates-and-spread", "bonsai"):
        "440d2840af06638e6e703e7de5465f0936bceafd52422c7bfe77638e5663a310",
    ("on-split-planes", "baseline"):
        "1d5613b4916c09062bde9f29fe1d61cbfe2a416b1afc2a8b0485390436e11991",
    ("on-split-planes", "bonsai"):
        "3ab85ecc06d4ba598eea4681afd50c2afb7de6afcf6324bb98898f094c248efc",
    ("exactly-at-r", "baseline"):
        "0aa857dea59258c628a99f7c99bcd5b88c366056ef192f6ca7ec4674fd1b7e61",
    ("exactly-at-r", "bonsai"):
        "131b588de730dd4f02c172b69de483430b1a184d818480f1ea050e44f73b7d0b",
    ("radius-reaches-every-leaf", "baseline"):
        "35750f25da132b56d446d24cb6c693fa1593c15cdf0b2f8bf8410e112d2b3bff",
    ("radius-reaches-every-leaf", "bonsai"):
        "e032507c0193c0d7e1faacef832fde149f7e2e99020b88bc576635c0f2595da0",
}

CLUSTER_DIGESTS = {
    "baseline": "4776cfecedfa89a1f6c1b65953b07c23ed638849a5b4d217ba417cee97ba8bec",
    "bonsai": "7de7eefbcc8374c14e8c0e1049f8a682aab916030fd087f7b821d61657bcda8f",
}


class TestPinnedTraces:
    @pytest.mark.parametrize("flavor", ["baseline", "bonsai"])
    @pytest.mark.parametrize("name", WORLDS)
    def test_world_radius_batches(self, name, flavor):
        recorder = _world_trace(name, flavor)
        assert recorder.accesses
        assert recorder.digest() == WORLD_DIGESTS[name, flavor]

    @pytest.mark.parametrize("flavor", ["baseline", "bonsai"])
    def test_cluster_extraction_on_an_urban_frame(self, flavor):
        recorder = ListRecorder()
        extractor = EuclideanClusterExtractor(
            recorder=recorder,
            execution=ExecutionConfig(backend=f"{flavor}-batched"))
        result = extractor.extract(_urban_frame())
        assert result.clusters
        assert recorder.digest() == CLUSTER_DIGESTS[flavor]


class TestRecorderAloneRecords:
    """A recorder passed without anything else records the whole search."""

    def test_radius_search(self):
        points, queries, radii = _world("duplicates-and-spread")
        tree = build_kdtree(points)
        alone, built = ListRecorder(), ListRecorder()
        backend = RECORDED_BACKENDS["baseline"](tree, recorder=built)
        for query in queries:
            radius_search(tree, query, radii[1], recorder=alone)
            backend.search(query, radii[1])
        assert alone.accesses
        assert alone.accesses == built.accesses

    def test_bonsai_radius_search(self):
        points, queries, radii = _world("duplicates-and-spread")
        tree = build_kdtree(points)
        alone, built = ListRecorder(), ListRecorder()
        compress_and_record(tree, recorder=alone)
        inspector = BonsaiLeafInspector(tree.compressed_array)
        backend = RECORDED_BACKENDS["bonsai"](build_kdtree(points), recorder=built)
        for query in queries:
            radius_search(tree, query, radii[1], inspector=inspector,
                          recorder=alone)
            backend.search(query, radii[1])
        assert alone.accesses
        assert alone.accesses == built.accesses


class TestRecordedKNN:
    """A recorded kNN search loads node records and 32-bit leaf points."""

    @staticmethod
    def _two_leaf_tree():
        # Leaf 0 holds points 1 and 3 (x = 0, 1), leaf 1 points 0 and 2
        # (x = 10, 11); the root splits x at 5.5.
        points = np.array([[10, 0, 0], [0, 0, 0], [11, 0, 0], [1, 0, 0]],
                          dtype=np.float32)
        tree = build_kdtree(points, KDTreeConfig(max_leaf_size=2))
        assert tree.arrays.leaf_points.tolist() == [1, 3, 0, 2]
        return tree

    @pytest.mark.parametrize("query, k, expected", [
        # The far leaf's gap (9.8**2) exceeds the best distance: not entered.
        ([0.2, 0.0, 0.0], 1,
         [(LOAD, NODES_BASE, 32), (LOAD, NODES_BASE + 32, 32),
          (LOAD, INDICES_BASE + 4, 4), (LOAD, POINTS_BASE + 16, 16),
          (LOAD, INDICES_BASE + 12, 4), (LOAD, POINTS_BASE + 48, 16)]),
        # Two points cannot fill k = 3, so the far leaf is entered third.
        ([0.2, 0.0, 0.0], 3,
         [(LOAD, NODES_BASE, 32), (LOAD, NODES_BASE + 32, 32),
          (LOAD, INDICES_BASE + 4, 4), (LOAD, POINTS_BASE + 16, 16),
          (LOAD, INDICES_BASE + 12, 4), (LOAD, POINTS_BASE + 48, 16),
          (LOAD, NODES_BASE + 64, 32),
          (LOAD, INDICES_BASE, 4), (LOAD, POINTS_BASE, 16),
          (LOAD, INDICES_BASE + 8, 4), (LOAD, POINTS_BASE + 32, 16)]),
        # The right leaf is the near one, second in visit order.
        ([10.6, 0.0, 0.0], 1,
         [(LOAD, NODES_BASE, 32), (LOAD, NODES_BASE + 32, 32),
          (LOAD, INDICES_BASE, 4), (LOAD, POINTS_BASE, 16),
          (LOAD, INDICES_BASE + 8, 4), (LOAD, POINTS_BASE + 32, 16)]),
    ])
    def test_hand_checked_sequence(self, query, k, expected):
        tree = self._two_leaf_tree()
        alone, built = ListRecorder(), ListRecorder()
        want = nearest_neighbors(tree, query, k)
        assert nearest_neighbors(tree, query, k, recorder=alone) == want
        assert alone.accesses == expected
        backend = RECORDED_BACKENDS["baseline"](tree, recorder=built)
        assert backend.knn(np.array([query]), k).as_lists() == [want]
        assert built.accesses == expected

    @pytest.mark.parametrize("flavor", ["baseline", "bonsai"])
    @pytest.mark.parametrize("name", WORLDS)
    def test_world_knn_batches(self, name, flavor):
        recorder = _world_knn_trace(name, flavor)
        assert recorder.digest() == KNN_DIGESTS[name, flavor]

    @pytest.mark.parametrize("name", WORLDS)
    def test_recording_leaves_results_and_counters(self, name):
        points, queries, _ = _world(name)
        tree = build_kdtree(points)
        plain_stats, recorded_stats = SearchStats(), SearchStats()
        recorded = RECORDED_BACKENDS["baseline"](tree, stats=recorded_stats,
                                                 recorder=ListRecorder())
        for k in KNN_KS:
            want = [nearest_neighbors(tree, query, k, stats=plain_stats)
                    for query in queries]
            assert recorded.knn(queries, k).as_lists() == want
        assert recorded_stats == plain_stats
        assert recorded.recorder.accesses
