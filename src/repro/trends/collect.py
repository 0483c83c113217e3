"""Adapters: existing sweep/benchmark/campaign results -> trend records.

Nothing in this module runs a pipeline, a sweep or a campaign — every
collector takes an **already computed** result object (or an artifact
already on disk: a campaign manifest, a golden snapshot) and reshapes it
into :class:`~repro.trends.schema.TrendRecord` rows.  The caller supplies
the run identity (commit, run id, sequence number); the collectors never
read the clock or the git tree.

The benchmark scripts wire these in behind the ``REPRO_TRENDS_DIR`` knob:
:func:`maybe_record` is a no-op unless that variable is set, in which case
the records land next to the rendered ``benchmarks/results/*.txt`` table —
same numbers, machine-readable, keyed by commit.  Reading the environment
is this module's one named determinism exception (see
``repro.lint.rules_determinism.ENV_READ_ALLOWED``): the knob selects
*where records are persisted*, never what any benchmark computes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from math import isfinite
from pathlib import Path
from typing import (Callable, Dict, List, Mapping, Optional, Sequence)

from .schema import MetricValue, TrendRecord
from .store import TrendStore

__all__ = [
    "FAMILY_CACHE_SENSITIVITY",
    "FAMILY_CAMPAIGN",
    "FAMILY_GOLDEN_HARDWARE",
    "FAMILY_GOLDEN_PIPELINE",
    "FAMILY_MAP_SCALE",
    "FAMILY_SCENARIO_HW",
    "FAMILY_SCENARIO_MATRIX",
    "KNOWN_FAMILIES",
    "TrendContext",
    "collect_cache_sweep",
    "collect_campaign_manifest",
    "collect_golden_snapshots",
    "collect_hw_sweep",
    "collect_map_scale",
    "collect_pipeline_run",
    "flatten_metrics",
    "maybe_record",
    "trend_context",
]

FAMILY_SCENARIO_MATRIX = "scenario-matrix"
FAMILY_SCENARIO_HW = "scenario-hw"
FAMILY_CACHE_SENSITIVITY = "cache-sensitivity"
FAMILY_MAP_SCALE = "map-scale"
FAMILY_CAMPAIGN = "campaign"
FAMILY_GOLDEN_PIPELINE = "golden-pipeline"
FAMILY_GOLDEN_HARDWARE = "golden-hardware"

#: Every family a shipped collector writes, in documentation order
#: (``docs/TRENDS.md`` catalogs these; the docs lockdown keeps them in sync).
KNOWN_FAMILIES = (
    FAMILY_SCENARIO_MATRIX,
    FAMILY_SCENARIO_HW,
    FAMILY_CACHE_SENSITIVITY,
    FAMILY_MAP_SCALE,
    FAMILY_CAMPAIGN,
    FAMILY_GOLDEN_PIPELINE,
    FAMILY_GOLDEN_HARDWARE,
)


def flatten_metrics(mapping: Mapping, prefix: str = "") -> Dict[str, MetricValue]:
    """Flatten a nested metrics mapping into dotted finite numeric leaves.

    Dict values recurse with a ``.``-joined prefix; finite ints and floats
    are kept (bools are not numbers here); everything else — strings,
    lists, ``None``, NaN — is dropped.  The result is exactly the scalar
    surface a trend line can be drawn through.
    """
    flat: Dict[str, MetricValue] = {}
    for name in sorted(mapping):
        value = mapping[name]
        dotted = f"{prefix}{name}"
        if isinstance(value, Mapping):
            flat.update(flatten_metrics(value, prefix=f"{dotted}."))
        elif isinstance(value, bool):
            continue
        elif isinstance(value, int):
            flat[dotted] = value
        elif isinstance(value, float) and isfinite(value):
            flat[dotted] = value
    return flat


def collect_pipeline_run(metrics: Mapping, *, scenario: str, backend: str,
                         commit: str, run_id: str, order: int = 0,
                         family: str = FAMILY_SCENARIO_MATRIX) -> TrendRecord:
    """One pipeline run's deterministic ``metrics()`` dict as one record."""
    return TrendRecord(
        family=family, commit=commit, run_id=run_id, order=order,
        key={"scenario": scenario, "backend": backend},
        metrics=flatten_metrics(metrics))


def collect_hw_sweep(result, *, commit: str, run_id: str,
                     order: int = 0) -> List[TrendRecord]:
    """A :class:`~repro.analysis.hw_sweep.HardwareSweepResult` as records.

    One record per (scenario, backend) run, metrics flattened from the
    run's full ``metrics()`` dict — the functional counters plus the
    per-stage ``hardware.*`` cache/timing/energy section.
    """
    return [
        TrendRecord(
            family=FAMILY_SCENARIO_HW, commit=commit, run_id=run_id,
            order=order,
            key={"scenario": run.scenario, "backend": run.backend},
            metrics=flatten_metrics(run.metrics))
        for run in result.runs
    ]


def collect_cache_sweep(result, *, commit: str, run_id: str,
                        order: int = 0) -> List[TrendRecord]:
    """A :class:`~repro.analysis.cache_sweep.CacheSweepResult` as records.

    One record per (geometry, mode): the mode's hardware counters summed
    over scenarios and stages — the exact quantities the sensitivity table
    renders.
    """
    records = []
    for run in result.runs:
        for mode in result.modes:
            records.append(TrendRecord(
                family=FAMILY_CACHE_SENSITIVITY, commit=commit,
                run_id=run_id, order=order,
                key={"geometry": run.geometry.name, "backend": mode},
                metrics=flatten_metrics(run.mode_totals(mode))))
    return records


def collect_map_scale(result, *, commit: str, run_id: str,
                      order: int = 0) -> List[TrendRecord]:
    """A :class:`~repro.analysis.map_scale.MapScaleResult` as records.

    One record per (geometry, flavour) cell with the cell's traffic totals
    plus the sweep's shape (points, tiles, queries) so a record is
    self-describing across map-size changes.
    """
    shape = {
        "n_points": result.n_points,
        "n_tiles": result.n_tiles,
        "n_touched_tiles": result.n_touched_tiles,
        "n_queries": result.n_queries,
    }
    records = []
    for geometry in result.geometries:
        for flavor in result.flavors:
            cell = result.cell(geometry.name, flavor)
            metrics = dict(shape)
            metrics.update(flatten_metrics(cell.totals()))
            records.append(TrendRecord(
                family=FAMILY_MAP_SCALE, commit=commit, run_id=run_id,
                order=order,
                key={"scenario": result.scenario, "geometry": geometry.name,
                     "flavor": flavor},
                metrics=metrics))
    return records


def collect_campaign_manifest(manifest: Mapping, *, commit: str, run_id: str,
                              order: int = 0) -> List[TrendRecord]:
    """A campaign ``manifest.json`` mapping as records.

    One record per campaign seed: budget, trial/divergence totals and the
    per-kind divergence counts (``divergences.<kind>``) — the dashboard's
    campaign-divergence table reads exactly these.
    """
    campaign = manifest.get("campaign", {})
    trials = manifest.get("trials", [])
    by_kind: Dict[str, int] = {}
    n_ops = 0
    for trial in trials:
        n_ops += len(trial.get("world", {}).get("ops", []))
        for divergence in trial.get("divergences", []):
            kind = divergence.get("kind", "unknown")
            by_kind[kind] = by_kind.get(kind, 0) + 1
    metrics: Dict[str, MetricValue] = {
        "budget": int(campaign.get("budget", len(trials))),
        "n_trials": len(trials),
        "n_backends": len(campaign.get("backends", [])),
        "n_ops": n_ops,
        "n_divergences": int(manifest.get("n_divergences", 0)),
    }
    for kind in sorted(by_kind):
        metrics[f"divergences.{kind}"] = by_kind[kind]
    return [TrendRecord(
        family=FAMILY_CAMPAIGN, commit=commit, run_id=run_id, order=order,
        key={"seed": str(campaign.get("seed", 0))},
        metrics=metrics)]


#: Golden snapshot filename prefixes -> (family, kind key), mirroring
#: ``tests/goldens.py`` KINDS.  ``hw_pipeline`` must be checked first:
#: prefixes overlap.
_GOLDEN_PREFIXES = (
    ("hw_pipeline_", FAMILY_GOLDEN_HARDWARE),
    ("pipeline_", FAMILY_GOLDEN_PIPELINE),
)


def collect_golden_snapshots(golden_dir: Path, *, commit: str, run_id: str,
                             order: int = 0) -> List[TrendRecord]:
    """The committed golden snapshots (``tests/golden/*.json``) as records.

    One record per snapshot file; the (scenario, mode) key is parsed from
    the filename the golden harness writes
    (``<kind>_<scenario>_<mode>.json``), the metrics are the snapshot's
    flattened numeric scalars.  Tracking the goldens themselves means a
    ``--update-golden`` refresh shows up on the dashboard as a step in the
    trend line, not as silent history loss.
    """
    golden_dir = Path(golden_dir)
    records = []
    for path in sorted(golden_dir.glob("*.json")):
        family = None
        for prefix, prefix_family in _GOLDEN_PREFIXES:
            if path.stem.startswith(prefix):
                family = prefix_family
                rest = path.stem[len(prefix):]
                break
        if family is None:
            continue
        scenario, _, mode = rest.rpartition("_")
        if not scenario:
            continue
        snapshot = json.loads(path.read_text(encoding="utf-8"))
        records.append(TrendRecord(
            family=family, commit=commit, run_id=run_id, order=order,
            key={"scenario": scenario, "mode": mode},
            metrics=flatten_metrics(snapshot)))
    return records


# -- benchmark wiring ------------------------------------------------------


@dataclass(frozen=True)
class TrendContext:
    """Where and as whom a benchmark run records its trends."""

    root: Path
    commit: str
    run_id: str
    order: int = 0


def trend_context(
        environ: Optional[Mapping[str, str]] = None) -> Optional[TrendContext]:
    """The recording context from the environment, or ``None`` when off.

    ``REPRO_TRENDS_DIR`` switches recording on and names the store
    directory; ``REPRO_TRENDS_COMMIT`` (default ``local``),
    ``REPRO_TRENDS_RUN_ID`` (default: the commit) and
    ``REPRO_TRENDS_ORDER`` (default 0) identify the run.  CI passes the
    git SHA and the run number.
    """
    env = os.environ if environ is None else environ
    root = env.get("REPRO_TRENDS_DIR", "")
    if not root:
        return None
    commit = env.get("REPRO_TRENDS_COMMIT", "") or "local"
    run_id = env.get("REPRO_TRENDS_RUN_ID", "") or commit
    order_text = env.get("REPRO_TRENDS_ORDER", "") or "0"
    try:
        order = int(order_text)
    except ValueError:
        raise ValueError(
            f"REPRO_TRENDS_ORDER must be an integer, got {order_text!r}")
    return TrendContext(root=Path(root), commit=commit, run_id=run_id,
                        order=order)


def maybe_record(
        build: Callable[[TrendContext], Sequence[TrendRecord]],
        environ: Optional[Mapping[str, str]] = None) -> Optional[List[Path]]:
    """Record a benchmark's rows when ``REPRO_TRENDS_DIR`` is set.

    ``build`` receives the resolved :class:`TrendContext` and returns the
    records (typically one ``collect_*`` call); they are merged into the
    store and the touched paths returned.  Without the knob this is a
    no-op returning ``None`` — the benchmarks' rendered ``.txt`` output is
    unaffected either way.
    """
    context = trend_context(environ)
    if context is None:
        return None
    return TrendStore(context.root).append(build(context))
