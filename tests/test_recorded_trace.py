"""The recorded memory traces, access by access.

Every hardware figure comes from the per-query recorded walk: the cache
model sees the loads and stores a search records, in order.  The goldens
check only the resulting cache counts, so these tests pin the traces
themselves, as SHA-256 digests of every ``(load|store, address, size)``:

* recorded ``baseline-perquery`` and ``bonsai-perquery`` radius batches,
  Bonsai's build-time compression pass included, on the degenerate worlds
  of ``test_flat_traversal.py``;
* one recorded euclidean-cluster extraction per flavour on an urban frame.

A refactor of the per-query walk, the leaf inspectors or the address map
must leave every digest as it is.  The single-query entry points record
through a recorder alone, exactly as the backends built by the registry do.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

import numpy as np
import pytest

from repro.core.bonsai_search import BonsaiRadiusSearch
from repro.engine import ExecutionConfig, get_backend
from repro.kdtree import build_kdtree, radius_search
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
    backend = get_backend(f"{flavor}-perquery", build_kdtree(points),
                          recorder=recorder)
    for radius in radii:
        backend.radius_search(queries, radius)
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
        backend = get_backend("baseline-perquery", tree, recorder=built)
        for query in queries:
            radius_search(tree, query, radii[1], recorder=alone)
            backend.search(query, radii[1])
        assert alone.accesses
        assert alone.accesses == built.accesses

    def test_bonsai_radius_search(self):
        points, queries, radii = _world("duplicates-and-spread")
        alone, built = ListRecorder(), ListRecorder()
        search = BonsaiRadiusSearch(build_kdtree(points), recorder=alone)
        backend = get_backend("bonsai-perquery", build_kdtree(points),
                              recorder=built)
        for query in queries:
            search.search(query, radii[1])
            backend.search(query, radii[1])
        assert alone.accesses
        assert alone.accesses == built.accesses
