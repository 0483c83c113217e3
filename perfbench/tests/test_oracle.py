import numpy as np
from scipy.spatial import cKDTree

from perfbench.oracle import KNNReference, RadiusReference, check_partition, cluster_partition


def cloud(seed=0, n=400):
    return np.random.default_rng(seed).uniform(0.0, 5.0, size=(n, 3))


def brute_radius(points, queries, radius):
    d2 = ((queries[:, None, :] - points[None, :, :]) ** 2).sum(-1)
    hits = [np.flatnonzero(row <= radius * radius) for row in d2]
    offsets = np.concatenate(([0], np.cumsum([len(h) for h in hits])))
    return offsets, np.concatenate(hits)


def test_radius_reference_accepts_exact_hits_and_flags_a_dropped_hit():
    points, queries = cloud(), cloud(1, 30)
    ref = RadiusReference(cKDTree(points), queries, 0.6)
    offsets, indices = brute_radius(points, queries, 0.6)
    assert ref.check(offsets, indices) is None
    dropped_offsets = offsets.copy()
    dropped_offsets[3:] -= 1
    dropped = np.delete(indices, offsets[2])
    assert "counts differ" in ref.check(dropped_offsets, dropped)
    swapped = indices.copy()
    swapped[offsets[2]] = (swapped[offsets[2]] + 1) % len(points)
    assert "hits differ" in ref.check(offsets, swapped)


def brute_knn(points, queries, k):
    diffs = points[None, :, :] - queries[:, None, :]
    d = np.sqrt(np.einsum("qnd,qnd->qn", diffs, diffs))
    order = np.lexsort((np.broadcast_to(np.arange(len(points)), d.shape), d), axis=1)[:, :k]
    return order, np.take_along_axis(d, order, axis=1)


def test_knn_reference_flags_a_swapped_index():
    points, queries = cloud(), cloud(2, 20)
    ref = KNNReference(cKDTree(points), points, queries, 5)
    indices, distances = brute_knn(points, queries, 5)
    assert ref.check(indices, distances) is None
    swapped = indices.copy()
    swapped[4, [0, 1]] = swapped[4, [1, 0]]
    assert "without a distance tie" in ref.check(swapped, distances)
    wrong = distances.copy()
    wrong[2, 3] = np.nextafter(wrong[2, 3], np.inf)
    assert "distances differ" in ref.check(indices, wrong)


def test_knn_reference_allows_either_index_at_a_distance_tie():
    points = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 3.0, 0], [0, 0, 5.0]])
    queries = np.zeros((1, 3))
    ref = KNNReference(cKDTree(points), points, queries, 1)
    distances = np.array([[1.0]])
    assert ref.check(np.array([[0]]), distances) is None
    assert ref.check(np.array([[1]]), distances) is None
    assert ref.check(np.array([[2]]), distances) is not None


def test_cluster_partition_flags_two_merged_clusters():
    rng = np.random.default_rng(3)
    blobs = [rng.normal(center, 0.1, size=(20, 3)) for center in ((0, 0, 0), (5, 0, 0), (0, 5, 0))]
    noise = np.array([[20.0, 20.0, 20.0]])
    points = np.concatenate(blobs + [noise])
    expected = cluster_partition(points, 0.6, min_size=5, max_size=1000)
    assert sorted(len(c) for c in expected) == [20, 20, 20]  # the lone point is dropped
    clusters = [list(range(0, 20)), list(range(20, 40)), list(range(40, 60))]
    assert check_partition(expected, clusters) is None
    merged = [list(range(0, 40)), list(range(40, 60))]
    assert "partition differs" in check_partition(expected, merged)
    assert "twice" in check_partition(expected, clusters + [clusters[0]])
