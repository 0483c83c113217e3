"""Map-scale cache-geometry sensitivity: the ``l2-*`` cut, finally mapped.

The frame-scale cache sweep (:mod:`repro.analysis.cache_sweep`) showed the
``l2-256k`` / ``l2-4m`` rows barely moving: a LiDAR frame's tree fits in
any of those L2s, so DRAM traffic stays compulsory-miss dominated and the
L2 axis is flat.  This sweep rebuilds the experiment at **map scale**: a
1M+-point map cloud sampled from a map-scale scenario
(:func:`~repro.scenarios.map_scale.sample_map_cloud`), indexed by a
:class:`~repro.engine.sharded.ShardedPointCloudIndex`, and probed with a
fuzzed batch of relocalization-style radius queries whose tree accesses
stream through the trace-driven cache simulation — once per (geometry,
flavour) cell.

Per cell the sweep reports the recorded hierarchy totals, summed over the
tiles the queries touched: demand bytes (geometry-invariant), the line-fill
traffic per level (``L2->L1`` = L1 misses x line size, ``DRAM->L2`` =
memory accesses x line size) and the per-level miss ratios.  Cycle/energy
folding is deliberately out of scope — those models need the pipeline's
instruction estimates, and the map-scale question is a *traffic* question:
where does the compressed-leaf byte win keep paying once the working set
overflows the L2?

Recording always runs the per-query paths (the recorded backend's
contract), so results are exact traces and the sweep is deterministic in
``(scenario, n_points, seed)``.  ``benchmarks/bench_map_scale.py`` renders
the result into ``benchmarks/results/map_scale_sensitivity.txt``;
``docs/PERFORMANCE.md`` explains how to read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..hwmodel.cache import HierarchyStats
from .cache_sweep import GEOMETRIES, CacheGeometry
from .compare import relative_change
from .hw_sweep import SWEEP_BACKENDS, SWEEP_MODES

__all__ = [
    "MAP_SCALE_GEOMETRY_NAMES",
    "MapScaleCell",
    "MapScaleResult",
    "MapScaleSweep",
]

#: Geometry grid of the map-scale sweep: the L2-size cut around the
#: paper's machine — the axis the frame-scale sweep cannot stress.
MAP_SCALE_GEOMETRY_NAMES: Tuple[str, ...] = ("l2-256k", "table-iv", "l2-4m")

#: Radius of every recorded query [m].
RADIUS_M = 2.0

#: Radius of the disc around the map centre the queries fall in [m].
QUERY_EXTENT_M = 30.0


@dataclass
class MapScaleCell:
    """One (geometry, flavour) cell: recorded hierarchy totals at map scale.

    The flavours are :data:`~repro.analysis.hw_sweep.SWEEP_MODES`; a
    recorded run traces the flavour's per-query walk.
    """

    geometry: CacheGeometry
    flavor: str
    hierarchy: HierarchyStats

    @property
    def line_size(self) -> int:
        return self.geometry.cpu().l1d.line_size

    @property
    def l2_to_l1_bytes(self) -> int:
        """Line-fill traffic into L1 (L1 misses x line size)."""
        return self.hierarchy.l1_misses * self.line_size

    @property
    def dram_to_l2_bytes(self) -> int:
        """Line-fill traffic from memory (memory accesses x line size)."""
        return self.hierarchy.memory_accesses * self.line_size

    def totals(self) -> Dict[str, float]:
        """The cell's reported quantities as one flat mapping."""
        return {
            "bytes_loaded": self.hierarchy.bytes_loaded,
            "l2_to_l1_bytes": self.l2_to_l1_bytes,
            "dram_to_l2_bytes": self.dram_to_l2_bytes,
            "l1_miss_ratio": self.hierarchy.l1_miss_ratio,
            "l2_miss_ratio": self.hierarchy.l2_miss_ratio,
        }


@dataclass
class MapScaleResult:
    """All cells of one map-scale sensitivity sweep, geometry-major."""

    scenario: str
    n_points: int
    tile_size: float
    n_tiles: int
    n_touched_tiles: int
    n_queries: int
    radius: float
    seed: int
    geometries: List[CacheGeometry]
    cells: Dict[Tuple[str, str], MapScaleCell] = field(default_factory=dict)

    def cell(self, geometry: str, flavor: str) -> MapScaleCell:
        """The named (geometry, flavour) cell."""
        return self.cells[(geometry, flavor)]

    def comparison_rows(self) -> List[Dict[str, object]]:
        """Per-geometry baseline vs. Bonsai comparison.

        Mirrors :meth:`CacheSweepResult.comparison_rows`: each row carries
        both flavours' traffic totals plus the relative change of the
        Bonsai search — the quantities the sensitivity table renders.
        """
        rows: List[Dict[str, object]] = []
        for geometry in self.geometries:
            base, other = (self.cell(geometry.name, flavor).totals()
                           for flavor in SWEEP_MODES)
            rows.append({
                "geometry": geometry,
                "base": base,
                "other": other,
                "change": {key: relative_change(base[key], other[key])
                           for key in ("bytes_loaded", "l2_to_l1_bytes",
                                       "dram_to_l2_bytes")},
            })
        return rows


class MapScaleSweep:
    """Cache-geometry sensitivity of sharded map-scale radius queries.

    Builds one :class:`~repro.engine.sharded.ShardedPointCloudIndex` over
    the scenario's sampled map cloud, fuzzes ``n_queries`` query points
    around the map's populated extent, then runs the batch of radius
    :data:`RADIUS_M` once per (geometry in :data:`MAP_SCALE_GEOMETRY_NAMES`,
    flavour) cell in recorded mode — each cell gets its own
    per-tile recorders (the tile backend cache keys on the geometry's CPU
    config), so cells never share counters.  One index serves every cell:
    tile trees build once, Bonsai compression runs once.
    """

    def __init__(self, scenario: str = "city_block", *,
                 n_points: int = 1_000_000,
                 tile_size: float = 32.0,
                 n_queries: int = 256,
                 seed: int = 7):
        self.scenario = scenario
        self.n_points = n_points
        self.tile_size = tile_size
        self.n_queries = n_queries
        self.seed = seed
        self.geometries = [GEOMETRIES[name] for name in MAP_SCALE_GEOMETRY_NAMES]

    def build_index(self):
        """The sweep's sharded index over the sampled map cloud."""
        from ..engine.sharded import ShardedPointCloudIndex
        from ..scenarios import build_map_cloud

        cloud = build_map_cloud(self.scenario, self.n_points, seed=self.seed)
        return ShardedPointCloudIndex(cloud, tile_size=self.tile_size)

    def queries(self, index) -> np.ndarray:
        """Fuzzed relocalization-style query batch: one scan's worth.

        Queries concentrate in a disc of radius :data:`QUERY_EXTENT_M`
        around the map centre at sensor heights — the shape of one
        vehicle's scan points probing the map.  The concentration is the
        point: queries re-reference the same few tiles' trees, so the
        recorded caches see *reuse*, and L2 capacity (the swept axis)
        decides how much of a tile's working set survives between queries.
        Deterministic in the sweep seed.
        """
        rng = np.random.default_rng(self.seed * 7919 + 13)
        lo = index.points.min(axis=0).astype(np.float64)
        hi = index.points.max(axis=0).astype(np.float64)
        center = 0.5 * (lo + hi)
        angle = rng.uniform(0.0, 2.0 * np.pi, size=self.n_queries)
        rho = QUERY_EXTENT_M * np.sqrt(
            rng.uniform(0.0, 1.0, size=self.n_queries))
        queries = np.empty((self.n_queries, 3), dtype=np.float64)
        queries[:, 0] = center[0] + rho * np.cos(angle)
        queries[:, 1] = center[1] + rho * np.sin(angle)
        queries[:, 2] = rng.uniform(lo[2], min(hi[2], lo[2] + 4.0),
                                    size=self.n_queries)
        return queries

    def run(self, index=None) -> MapScaleResult:
        """Execute the grid over one shared index and return the result.

        ``index`` may be passed in (benchmarks pre-build it outside the
        timed region); otherwise it is built here and closed afterwards.
        """
        own_index = index is None
        if own_index:
            index = self.build_index()
        try:
            queries = self.queries(index)
            result = MapScaleResult(
                scenario=self.scenario, n_points=index.n_points,
                tile_size=self.tile_size, n_tiles=index.n_tiles,
                n_touched_tiles=0, n_queries=self.n_queries,
                radius=RADIUS_M, seed=self.seed,
                geometries=list(self.geometries))
            for geometry in self.geometries:
                cpu = geometry.cpu()
                for flavor, backend in zip(SWEEP_MODES, SWEEP_BACKENDS):
                    index.radius_search(queries, RADIUS_M, backend=backend,
                                        recorded=True, cpu=cpu)
                    totals = HierarchyStats()
                    for _, tile_index in index.built_tile_indexes():
                        recorded = tile_index.backend(backend, recorded=True,
                                                      cpu=cpu)
                        totals.merge(recorded.hierarchy)
                    result.cells[(geometry.name, flavor)] = MapScaleCell(
                        geometry=geometry, flavor=flavor, hierarchy=totals)
            result.n_touched_tiles = len(index.built_tile_indexes())
            return result
        finally:
            if own_index:
                index.close()
