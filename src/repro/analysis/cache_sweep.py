"""Cache-geometry sensitivity: where does the Bonsai byte win stop paying?

The paper evaluates one machine (Table IV: 32 KB 2-way L1D, 1 MB 16-way L2).
The byte *demand* reduction of the compressed search is geometry-independent
— Bonsai always requests fewer bytes — but how much of that reduction turns
into fewer line fills, fewer DRAM transfers and less energy depends on the
cache geometry: a large enough L1 absorbs the baseline's extra traffic too,
and the win compresses toward the pure demand-byte delta.

:class:`CacheGeometrySweep` maps that boundary in-repo.  It re-runs the
hardware scenario matrix (:mod:`repro.analysis.hw_sweep`) once per **named
geometry variant** — L1/L2 size and associativity variations of the Table IV
machine, threaded into both stage recorders through
``ExecutionConfig.cache_config`` — and aggregates, per geometry, the bytes
each hierarchy level moved and the energy each mode spent.

Every (geometry, scenario, backend) cell is an independent deterministic
pipeline run, so the sweep flattens all cells into one task list and runs
them across a single process pool (``n_jobs``), collecting by task index —
the same deterministic-merge contract as the parallel hardware sweep.

``benchmarks/bench_cache_sensitivity.py`` renders the result into
``benchmarks/results/cache_sensitivity.txt``; ``docs/PERFORMANCE.md``
explains how to read the table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .compare import relative_change
from .hw_sweep import (
    SWEEP_BACKENDS,
    SWEEP_MODES,
    HardwareSweepResult,
    SweepTask,
    run_sweep_task,
)

__all__ = [
    "CacheGeometry",
    "CacheGeometrySweep",
    "CacheSweepResult",
    "GeometryRun",
    "GEOMETRIES",
    "DEFAULT_GEOMETRY_NAMES",
    "geometry_names",
]


@dataclass(frozen=True)
class CacheGeometry:
    """A named L1/L2 geometry variation of the paper's Table IV machine.

    Sizes are in **KiB** (the cache model itself takes bytes), associativity
    in ways; line size stays at the machine's 64 B.  ``cpu()`` materialises
    the variant as a :class:`~repro.hwmodel.cpu_config.CPUConfig` suitable
    for ``ExecutionConfig.cache_config`` — only the L1D/L2 geometry differs
    from Table IV, so timing/energy constants stay comparable across
    variants.
    """

    name: str
    l1_kib: int = 32
    l1_assoc: int = 2
    l2_kib: int = 1024
    l2_assoc: int = 16

    @property
    def label(self) -> str:
        """Human-readable geometry, e.g. ``"L1 32K/2w, L2 1024K/16w"``."""
        return (f"L1 {self.l1_kib}K/{self.l1_assoc}w, "
                f"L2 {self.l2_kib}K/{self.l2_assoc}w")

    def cpu(self):
        """This variant as a :class:`~repro.hwmodel.cpu_config.CPUConfig`."""
        from ..hwmodel.cpu_config import TABLE_IV_CPU

        return replace(
            TABLE_IV_CPU,
            name=f"{TABLE_IV_CPU.name} [{self.name}]",
            l1d=replace(TABLE_IV_CPU.l1d, size_bytes=self.l1_kib * 1024,
                        associativity=self.l1_assoc),
            l2=replace(TABLE_IV_CPU.l2, size_bytes=self.l2_kib * 1024,
                       associativity=self.l2_assoc),
        )


#: The named geometry variants, keyed by name.  ``table-iv`` is the paper's
#: machine; the others vary exactly one axis so the sensitivity table reads
#: as a set of one-dimensional cuts.  CLI ``--cache-geometry`` choices and
#: the default sweep grid both come from here.
GEOMETRIES: Dict[str, CacheGeometry] = {
    geometry.name: geometry for geometry in (
        CacheGeometry("table-iv"),
        CacheGeometry("l1-8k", l1_kib=8),
        CacheGeometry("l1-16k", l1_kib=16),
        CacheGeometry("l1-64k", l1_kib=64),
        CacheGeometry("l1-128k", l1_kib=128),
        CacheGeometry("l1-direct", l1_assoc=1),
        CacheGeometry("l1-8way", l1_assoc=8),
        CacheGeometry("l2-256k", l2_kib=256),
        CacheGeometry("l2-4m", l2_kib=4096),
    )
}

#: The default sweep grid: the L1-size cut plus the reference machine —
#: the axis along which the Bonsai byte win visibly stops paying off.
DEFAULT_GEOMETRY_NAMES: Tuple[str, ...] = (
    "l1-8k", "l1-16k", "table-iv", "l1-64k", "l1-128k")


def geometry_names() -> List[str]:
    """Sorted names of all named cache-geometry variants."""
    return sorted(GEOMETRIES)


@dataclass
class GeometryRun:
    """One geometry's full hardware scenario sweep."""

    geometry: CacheGeometry
    sweep: HardwareSweepResult

    def mode_totals(self, mode: str) -> Dict[str, float]:
        """One mode's hardware counters summed over scenarios and stages.

        Keys: ``bytes_loaded`` (demand bytes, geometry-independent),
        ``l2_to_l1_bytes`` / ``dram_to_l2_bytes`` (line-fill traffic, the
        geometry-sensitive quantities), ``cycles`` and ``energy_j``.
        """
        totals = {"bytes_loaded": 0, "l2_to_l1_bytes": 0,
                  "dram_to_l2_bytes": 0, "cycles": 0.0, "energy_j": 0.0}
        for run in self.sweep.runs:
            if run.mode != mode:
                continue
            for stage in run.hardware.values():
                for key in totals:
                    totals[key] += stage[key]
        return totals


@dataclass
class CacheSweepResult:
    """All geometry runs of one sensitivity sweep, in grid order."""

    runs: List[GeometryRun]
    n_frames: int
    n_beams: int
    n_azimuth_steps: int

    def geometries(self) -> List[CacheGeometry]:
        """The swept geometry variants, in sweep order."""
        return [run.geometry for run in self.runs]

    def comparison_rows(self) -> List[Dict[str, object]]:
        """Per-geometry baseline vs. Bonsai aggregate comparison.

        Each row carries both modes' traffic and energy totals (``base``,
        ``other``) plus the relative change of the Bonsai search — the
        numbers the sensitivity table renders.
        """
        rows = []
        for run in self.runs:
            base, other = (run.mode_totals(mode) for mode in SWEEP_MODES)
            rows.append({
                "geometry": run.geometry,
                "base": base,
                "other": other,
                "change": {key: relative_change(base[key], other[key])
                           for key in base},
            })
        return rows


class CacheGeometrySweep:
    """Re-runs the hardware matrix over L1/L2 geometry variations.

    ``geometries`` is a sequence of variant names (keys of
    :data:`GEOMETRIES`) or :class:`CacheGeometry` values, defaulting to the
    L1-size cut (:data:`DEFAULT_GEOMETRY_NAMES`); ``scenarios`` and the
    sensor preset mean the same as in
    :class:`~repro.analysis.hw_sweep.HardwareScenarioSweep`.  All
    (geometry, scenario, backend) cells run across **one** process pool of
    ``n_jobs`` workers and merge by task index, so the result is identical
    to the serial nested loop's.
    """

    def __init__(self, geometries: Optional[Sequence] = None,
                 scenarios: Optional[Sequence[str]] = None, *,
                 n_frames: int = 3, seed: Optional[int] = None,
                 n_beams: int = 18, n_azimuth_steps: int = 180,
                 n_jobs: Optional[int] = None):
        from ..scenarios import scenario_names

        names = geometries if geometries is not None else DEFAULT_GEOMETRY_NAMES
        self.geometries = [g if isinstance(g, CacheGeometry) else GEOMETRIES[g]
                           for g in names]
        self.scenarios = (list(scenarios) if scenarios is not None
                          else scenario_names())
        self.n_frames = n_frames
        self.seed = seed
        self.n_beams = n_beams
        self.n_azimuth_steps = n_azimuth_steps
        self.n_jobs = 1 if n_jobs is None else n_jobs

    def tasks(self) -> List[SweepTask]:
        """Every (geometry, scenario, backend) cell, geometry-major."""
        return [
            SweepTask(scenario=scenario, backend=backend,
                      n_frames=self.n_frames, seed=self.seed,
                      n_beams=self.n_beams,
                      n_azimuth_steps=self.n_azimuth_steps,
                      cache_config=geometry.cpu())
            for geometry in self.geometries
            for scenario in self.scenarios
            for backend in SWEEP_BACKENDS
        ]

    def run(self) -> CacheSweepResult:
        """Execute the grid (serial or pooled) and return the result."""
        from ..engine.parallel import process_map

        all_runs = process_map(run_sweep_task, self.tasks(), n_jobs=self.n_jobs)
        per_geometry = len(self.scenarios) * len(SWEEP_BACKENDS)
        runs: List[GeometryRun] = []
        for index, geometry in enumerate(self.geometries):
            chunk = all_runs[index * per_geometry:(index + 1) * per_geometry]
            runs.append(GeometryRun(
                geometry=geometry,
                sweep=HardwareSweepResult(
                    runs=chunk, n_frames=self.n_frames, n_beams=self.n_beams,
                    n_azimuth_steps=self.n_azimuth_steps),
            ))
        return CacheSweepResult(
            runs=runs, n_frames=self.n_frames, n_beams=self.n_beams,
            n_azimuth_steps=self.n_azimuth_steps)
