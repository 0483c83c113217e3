"""Golden-metric trend tracking: persistent benchmark/campaign history.

The trends layer closes the observability gap left by the golden harness:
goldens gate *one* commit's numbers, trends keep *every* recorded run —
scenario matrices, cache sensitivity, map-scale sweeps, differential
campaigns, the golden snapshots themselves — as versioned JSONL keyed by
commit, with a threshold regression detector and a byte-deterministic
static HTML explorer on top.

* :mod:`repro.trends.schema` — the versioned, exactly-roundtripping
  :class:`TrendRecord` plus migration hooks.
* :mod:`repro.trends.store` — per-family JSONL store with deterministic
  sort/merge appends.
* :mod:`repro.trends.collect` — adapters from the existing result objects
  (nothing is re-run) and the ``REPRO_TRENDS_DIR`` benchmark wiring.
* :mod:`repro.trends.regress` — baseline-vs-head regression detection,
  exact for structural ints, toleranced for modelled/wall-clock values.
* :mod:`repro.trends.dashboard` — the stdlib-only HTML trend explorer.

CLI: ``repro trends record | report | dashboard`` (see ``docs/TRENDS.md``).
"""

from .collect import (FAMILY_CACHE_SENSITIVITY, FAMILY_CAMPAIGN,
                      FAMILY_GOLDEN_HARDWARE, FAMILY_GOLDEN_PIPELINE,
                      FAMILY_MAP_SCALE, FAMILY_SCENARIO_HW,
                      FAMILY_SCENARIO_MATRIX, KNOWN_FAMILIES, TrendContext,
                      collect_cache_sweep, collect_campaign_manifest,
                      collect_golden_snapshots, collect_hw_sweep,
                      collect_map_scale, collect_pipeline_run,
                      flatten_metrics, maybe_record, trend_context)
from .dashboard import render_dashboard
from .regress import (DEFAULT_REL_TOL, DEFAULT_RELATIVE_METRICS, Regression,
                      RegressionPolicy, RegressionReport, find_regressions,
                      render_regressions)
from .schema import (SCHEMA_VERSION, MetricValue, TrendRecord,
                     TrendSchemaError, migrate, register_migration,
                     unregister_migration)
from .store import TrendStore, TrendStoreError

__all__ = [
    "DEFAULT_REL_TOL",
    "DEFAULT_RELATIVE_METRICS",
    "FAMILY_CACHE_SENSITIVITY",
    "FAMILY_CAMPAIGN",
    "FAMILY_GOLDEN_HARDWARE",
    "FAMILY_GOLDEN_PIPELINE",
    "FAMILY_MAP_SCALE",
    "FAMILY_SCENARIO_HW",
    "FAMILY_SCENARIO_MATRIX",
    "KNOWN_FAMILIES",
    "MetricValue",
    "Regression",
    "RegressionPolicy",
    "RegressionReport",
    "SCHEMA_VERSION",
    "TrendContext",
    "TrendRecord",
    "TrendSchemaError",
    "TrendStore",
    "TrendStoreError",
    "collect_cache_sweep",
    "collect_campaign_manifest",
    "collect_golden_snapshots",
    "collect_hw_sweep",
    "collect_map_scale",
    "collect_pipeline_run",
    "find_regressions",
    "flatten_metrics",
    "maybe_record",
    "migrate",
    "register_migration",
    "render_dashboard",
    "render_regressions",
    "trend_context",
    "unregister_migration",
]
