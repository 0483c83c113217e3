"""Randomized worlds for the differential-testing campaign.

A campaign *world* is a fully seed-deterministic test case: one registered
scenario, degraded or densified by randomized obstacle density, sensor
resolution, range noise and dropout, plus a randomized mix of query
operations (batched radius searches, kNN batches, short end-to-end pipeline
runs).  :func:`random_world` samples a :class:`WorldSpec` from a single
integer seed; the same seed always produces the same world, the same point
cloud and the same query arrays, so any divergence a campaign finds can be
replayed from the manifest alone.

The spec is plain data (JSON-serialisable via :meth:`WorldSpec.as_dict` /
:meth:`WorldSpec.from_dict`), which is what the campaign manifest stores and
what the shrinker starts from.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..pointcloud.cloud import PointCloud
from ..pointcloud.lidar import Lidar, LidarConfig
from ..pointcloud.scene import Scene
from ..scenarios import get_scenario, scenario_names

__all__ = ["QueryOp", "WorldSpec", "random_world"]

#: Query-operation kinds a world may carry.
OP_KINDS = ("radius", "knn", "pipeline", "service")


@dataclass(frozen=True)
class QueryOp:
    """One query operation fired at every backend of a campaign trial.

    ``kind`` selects which fields are meaningful: ``"radius"`` uses
    ``n_queries``/``radius``, ``"knn"`` uses ``n_queries``/``k``,
    ``"pipeline"`` uses ``n_frames`` (a short end-to-end run of the world's
    scenario) and ``"service"`` uses ``n_queries``/``radius``/``k`` (the
    same query batch routed through a shared-memory
    :class:`~repro.serve.store.SharedCloudStore` attach, diffed against the
    process-local reference index).
    """

    kind: str
    n_queries: int = 0
    radius: float = 0.0
    k: int = 0
    n_frames: int = 0

    def __post_init__(self) -> None:
        if self.kind not in OP_KINDS:
            raise ValueError(f"unknown op kind {self.kind!r}; one of {OP_KINDS}")

    def describe(self) -> str:
        """Short human-readable label (used in divergence reports)."""
        if self.kind == "radius":
            return f"radius(n={self.n_queries}, r={self.radius:.3f})"
        if self.kind == "knn":
            return f"knn(n={self.n_queries}, k={self.k})"
        if self.kind == "service":
            return (f"service(n={self.n_queries}, r={self.radius:.3f}, "
                    f"k={self.k})")
        return f"pipeline(frames={self.n_frames})"


@dataclass(frozen=True)
class WorldSpec:
    """A sampled campaign world: scenario + degradations + query mix.

    Everything downstream — the scene, the point cloud, every query array —
    is a pure function of this spec, so two processes holding equal specs
    build bitwise-identical cases.
    """

    seed: int
    scenario: str
    #: Fraction of the scenario's obstacles kept (seeded subset).
    obstacle_keep: float
    n_beams: int
    n_azimuth_steps: int
    range_noise_std: float
    dropout_rate: float
    ops: Tuple[QueryOp, ...]

    # ------------------------------------------------------------------
    # Construction of the concrete case
    # ------------------------------------------------------------------
    def build_scene(self) -> Scene:
        """The world's scene: the scenario's, with a seeded obstacle subset."""
        scene = get_scenario(self.scenario).scene(seed=self.seed)
        if self.obstacle_keep >= 1.0 or not scene.obstacles:
            return scene
        rng = np.random.default_rng(self.seed * 977 + 3)
        mask = rng.random(len(scene.obstacles)) < self.obstacle_keep
        kept = [obstacle for obstacle, keep in zip(scene.obstacles, mask) if keep]
        return Scene(kept, ground_z=scene.ground_z, extent=scene.extent,
                     path_length=scene.path_length)

    def build_cloud(self, scene: Optional[Scene] = None) -> PointCloud:
        """One LiDAR frame of the world (never empty: the ground plane hits).

        The raw scan is used — no clustering pre-filter — because the
        campaign's object under test is the search engines, and the ground
        plane guarantees a non-degenerate cloud at any dropout rate.
        """
        scene = self.build_scene() if scene is None else scene
        lidar = Lidar(LidarConfig(
            n_beams=self.n_beams,
            n_azimuth_steps=self.n_azimuth_steps,
            range_noise_std=self.range_noise_std,
            dropout_rate=self.dropout_rate,
            seed=self.seed * 101,
        ))
        return lidar.scan(scene, t=0.0)

    def op_queries(self, op_index: int, cloud: PointCloud) -> np.ndarray:
        """The query array of ``ops[op_index]`` over ``cloud`` (seeded).

        Queries are cloud points perturbed by seeded Gaussian noise, so they
        land in populated space (radius searches actually hit) while not
        coinciding with indexed points (kNN ties stay interesting).
        """
        op = self.ops[op_index]
        rng = np.random.default_rng(self.seed * 6151 + op_index * 7919 + 11)
        base = cloud.points[rng.integers(0, len(cloud), op.n_queries)]
        return base.astype(np.float64) + rng.normal(0.0, 0.35, base.shape)

    # ------------------------------------------------------------------
    # JSON round-trip (manifest storage)
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-serialisable form (exact round-trip via :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "WorldSpec":
        ops = tuple(QueryOp(**op) for op in data["ops"])
        return cls(**{**{k: v for k, v in data.items() if k != "ops"},
                      "ops": ops})


def random_world(seed: int,
                 scenarios: Optional[Sequence[str]] = None,
                 pipeline_ops: bool = True) -> WorldSpec:
    """Sample a fully deterministic :class:`WorldSpec` from ``seed``.

    The sampler composes the registered scenario library with randomized
    obstacle density (30–100 % of the world's obstacles kept), LiDAR
    resolution (8–20 beams x 60–160 azimuth steps — cloud sizes from a few
    hundred to a few thousand points), range noise (0–12 cm), dropout
    (0–20 %) and one to three query operations.  Pipeline ops (short
    end-to-end runs) are rare and tiny because they cost a full pipeline run
    per backend; ``pipeline_ops=False`` disables them entirely (the
    shrinker's re-sampling path does).  Service ops (shared-store attach
    routing) are capped at one per world because each rebuilds a
    shared-memory store.
    """
    rng = np.random.default_rng(seed)
    names = sorted(scenarios) if scenarios is not None else scenario_names()
    scenario = names[int(rng.integers(0, len(names)))]
    obstacle_keep = float(rng.uniform(0.3, 1.0))
    n_beams = int(rng.integers(8, 21))
    n_azimuth_steps = int(rng.integers(60, 161))
    range_noise_std = float(rng.uniform(0.0, 0.12))
    dropout_rate = float(rng.uniform(0.0, 0.2))

    ops = []
    for _ in range(int(rng.integers(1, 4))):
        roll = float(rng.random())
        if pipeline_ops and roll < 0.15 and not any(
                op.kind == "pipeline" for op in ops):
            ops.append(QueryOp(kind="pipeline", n_frames=2))
        elif roll < 0.30 and not any(op.kind == "service" for op in ops):
            # At most one service op per world: it rebuilds a shared store
            # (one compression pass + shared-memory segments) per trial.
            ops.append(QueryOp(
                kind="service",
                n_queries=int(rng.integers(8, 96)),
                radius=float(rng.uniform(0.3, 1.2)),
                k=int(rng.integers(1, 7)),
            ))
        elif roll < 0.575:
            ops.append(QueryOp(
                kind="radius",
                n_queries=int(rng.integers(8, 120)),
                radius=float(rng.uniform(0.3, 1.5)),
            ))
        else:
            ops.append(QueryOp(
                kind="knn",
                n_queries=int(rng.integers(8, 120)),
                k=int(rng.integers(1, 9)),
            ))
    return WorldSpec(
        seed=seed,
        scenario=scenario,
        obstacle_keep=obstacle_keep,
        n_beams=n_beams,
        n_azimuth_steps=n_azimuth_steps,
        range_noise_std=range_noise_std,
        dropout_rate=dropout_rate,
        ops=tuple(ops),
    )
