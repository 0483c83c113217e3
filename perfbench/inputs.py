"""Seeded inputs: the only thing the program receives from the benchmark.

Every generator is a pure function of ``seed``: the same seed gives
bitwise-identical inputs, a different seed a different drive, map or
request stream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

import numpy as np

#: Frames per cycle of the ``frames-bonsai`` workload.  Op ``j`` clusters frame
#: ``j + 1`` and registers it against frame ``j``, so a cycle needs
#: ``FRAMES_PER_CYCLE + 1`` generated frames.
FRAMES_PER_CYCLE = 8
#: Points in the ``map-serve`` map cloud.
MAP_POINTS = 100_000
#: Euclidean-cluster tolerance (m): the radius of every map-serve radius query.
RADIUS_M = 0.6
KNN_K = 5
#: One client cycle: (kind, batch size).  Five of the eight requests are the
#: largest batch, so both the median and the tail percentile lie inside a
#: 1024-query mode (the path client's and the uniform client's, which
#: differ about twofold) rather than on the edge between two modes.
REQUEST_CYCLE = (("radius", 64), ("knn", 256), ("radius", 256),
                 ("radius", 1024), ("radius", 1024), ("radius", 1024),
                 ("radius", 1024), ("radius", 1024))
#: Distinct request cycles generated per client (the stream wraps after
#: them).  Short enough that a run laps the stream several times, so the
#: requests a run serves, and with them its work, hardly depend on the seed.
CYCLES_PER_CLIENT = 4
#: Client A drives one lap of a fixed loop of streets (corners as fractions
#: of the map's xy bounding box) per request stream; each request samples
#: map points within ``PATH_DISC_M`` of its waypoint, and consecutive
#: waypoints are about 11 m apart, so consecutive requests overlap.  The
#: waypoints are the same for every seed (a seed-drawn starting point would
#: move the large batches between dense and sparse streets, and with them
#: the work per request); the seed draws the queries around them.
PATH_LOOP = ((0.25, 0.5), (0.75, 0.5), (0.75, 0.75), (0.25, 0.75))
PATH_DISC_M = 50.0


@dataclass
class Drive:
    """An urban drive: the sequence (for ground truth) and its frames."""

    sequence: object
    frames: List[object]


def urban_drive(seed: int, n_frames: int = FRAMES_PER_CYCLE + 1) -> Drive:
    """The first ``n_frames`` frames of an ``urban`` drive scanned with ``seed``.

    The world is the scenario's default one, so every seed drives the same
    street; the seed drives the sensor (range noise and dropout).  A
    per-seed world changes the per-frame work along with the geometry.
    """
    from repro.pointcloud.sequence import DrivingSequence
    from repro.scenarios import get_scenario

    default = get_scenario("urban").sequence(n_frames=n_frames)
    config = replace(default.config, lidar=replace(default.config.lidar, seed=seed))
    sequence = DrivingSequence(config, scene=default.scene)
    return Drive(sequence=sequence,
                 frames=[sequence.frame(i) for i in range(n_frames)])


def map_points(seed: int, n_points: int = MAP_POINTS) -> np.ndarray:
    """A ``city_block`` map cloud (float32 ``(n, 3)``) sampled with ``seed``.

    The city itself is the scenario's default world, so every seed maps the
    same streets and buildings; the seed draws the surface samples.  (A
    per-seed city changes building heights and with them the point density
    on the facades, and so the work per request.)
    """
    from repro.scenarios import get_scenario
    from repro.scenarios.map_scale import sample_map_cloud

    return sample_map_cloud(get_scenario("city_block").scene(), n_points, seed=seed)


@dataclass(frozen=True)
class Request:
    """One service request: ``kind`` is ``"radius"`` or ``"knn"``."""

    kind: str
    queries: np.ndarray


def client_requests(points: np.ndarray, seed: int, client: str,
                    cycles: int = CYCLES_PER_CLIENT) -> List[Request]:
    """The request stream of client ``"A"`` (path) or ``"B"`` (uniform).

    Queries are map points plus a small jitter, so radius queries hit
    surfaces.  Client A draws its queries near a waypoint that advances
    around a fixed loop of streets, so consecutive requests share leaves;
    client B draws uniformly over the whole map.
    """
    from scipy.spatial import cKDTree

    if client not in ("A", "B"):
        raise ValueError(f"unknown client {client!r}")
    rng = np.random.default_rng([seed, ord(client)])
    cloud = np.asarray(points, dtype=np.float64)
    n_requests = cycles * len(REQUEST_CYCLE)
    if client == "A":
        index = cKDTree(cloud[:, :2])
        waypoints = loop_waypoints(cloud[:, :2].min(axis=0), cloud[:, :2].max(axis=0),
                                   n_requests)
    requests: List[Request] = []
    for number in range(n_requests):
        kind, size = REQUEST_CYCLE[number % len(REQUEST_CYCLE)]
        if client == "A":
            nearby = index.query_ball_point(waypoints[number], PATH_DISC_M)
            if not nearby:
                nearby = [int(index.query(waypoints[number])[1])]
            chosen = np.asarray(nearby)[rng.integers(len(nearby), size=size)]
        else:
            chosen = rng.integers(len(cloud), size=size)
        queries = cloud[chosen] + rng.normal(0.0, 0.1, size=(size, 3))
        requests.append(Request(kind, queries))
    return requests


def loop_waypoints(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """``n`` evenly spaced points on the :data:`PATH_LOOP` polygon, from its first corner."""
    corners = lo + (hi - lo) * np.asarray(PATH_LOOP)
    edges = np.roll(corners, -1, axis=0) - corners
    lengths = np.linalg.norm(edges, axis=1)
    along = (np.arange(n) / n) * lengths.sum()
    edge = np.searchsorted(np.cumsum(lengths), along, side="right")
    start = np.concatenate(([0.0], np.cumsum(lengths)[:-1]))[edge]
    return corners[edge] + edges[edge] * ((along - start) / lengths[edge])[:, None]
