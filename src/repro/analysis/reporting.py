"""Plain-text renderers for the paper's tables and figures.

The benchmark harness prints its results through these helpers so every bench
produces a self-describing block of text (the "regenerated" table or figure)
next to the paper's reported values.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .boxplot import BoxPlotStats
from .compare import ComparisonSummary, MetricComparison, relative_change

__all__ = [
    "render_table",
    "render_fig2",
    "render_table1",
    "render_fig9a",
    "render_fig9b",
    "render_fig10",
    "render_boxplot_figure",
    "render_table5",
    "render_hw_matrix",
]


def render_table(headers: Sequence[str], rows: Iterable[Sequence[str]],
                 title: Optional[str] = None) -> str:
    """Render an ASCII table with column alignment."""
    materialised = [list(map(str, row)) for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def format_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(format_row(headers))
    lines.append("-+-".join("-" * w for w in widths))
    lines.extend(format_row(row) for row in materialised)
    return "\n".join(lines)


def _pct(value: float, signed: bool = False) -> str:
    sign = "+" if signed and value >= 0 else ""
    return f"{sign}{value * 100:.2f}%"


def render_fig2(shares: Sequence, paper_values: Optional[Mapping[str, float]] = None) -> str:
    """Figure 2: share of execution time spent in radius search per task."""
    rows = []
    for share in shares:
        paper = ""
        if paper_values and share.task in paper_values:
            paper = _pct(paper_values[share.task])
        rows.append((share.task, _pct(share.radius_search_share), paper))
    return render_table(
        ("Task", "Radius search share (measured)", "Paper"),
        rows,
        title="Figure 2 - Radius search execution-time share",
    )


def render_table1(errors: Mapping[str, object],
                  paper_values: Optional[Mapping[str, float]] = None) -> str:
    """Table I: misclassification rate per reduced floating-point format."""
    rows = []
    for name, stats in errors.items():
        paper = ""
        if paper_values and name in paper_values:
            paper = _pct(paper_values[name])
        rows.append((name, f"{stats.classifications}", _pct(stats.error_rate), paper))
    return render_table(
        ("Format", "Classifications", "Misclassified (measured)", "Paper"),
        rows,
        title="Table I - Classification error with reduced FP formats",
    )


def render_fig9a(summary: ComparisonSummary,
                 paper_values: Optional[Mapping[str, float]] = None) -> str:
    """Figure 9a: relative change of the extract-kernel hardware metrics."""
    rows = []
    for name, comparison in summary.fig9a.items():
        paper = ""
        if paper_values and name in paper_values:
            paper = _pct(paper_values[name], signed=True)
        rows.append((name, f"{comparison.baseline:.3e}", f"{comparison.bonsai:.3e}",
                     _pct(comparison.relative_change, signed=True), paper))
    return render_table(
        ("Metric", "Baseline", "Bonsai", "Relative change (measured)", "Paper"),
        rows,
        title="Figure 9a - Extract kernel hardware metrics",
    )


def render_fig9b(summary: ComparisonSummary, paper_fraction: float = 0.37) -> str:
    """Figure 9b: bytes loaded to fetch leaf points during the search."""
    rows = [
        ("Baseline", f"{summary.bytes_baseline / 1e6:.2f} MB", ""),
        ("Bonsai-extensions", f"{summary.bytes_bonsai / 1e6:.2f} MB",
         f"{_pct(summary.bytes_fraction)} of baseline (paper: {_pct(paper_fraction)})"),
    ]
    return render_table(
        ("Configuration", "Bytes to load points", "Note"),
        rows,
        title="Figure 9b - Bytes loaded to fetch points during radius search",
    )


def render_fig10(summary: ComparisonSummary,
                 paper_values: Optional[Mapping[str, float]] = None) -> str:
    """Figure 10: accesses per memory-hierarchy level."""
    rows = []
    for name, comparison in summary.fig10.items():
        paper = ""
        if paper_values and name in paper_values:
            paper = _pct(paper_values[name], signed=True)
        rows.append((name, f"{comparison.baseline:.3e}", f"{comparison.bonsai:.3e}",
                     _pct(comparison.relative_change, signed=True), paper))
    return render_table(
        ("Level", "Baseline accesses", "Bonsai accesses", "Relative change", "Paper"),
        rows,
        title="Figure 10 - Memory hierarchy accesses",
    )


def render_boxplot_figure(title: str, baseline: BoxPlotStats, improved: BoxPlotStats,
                          improvements: Mapping[str, float],
                          paper_mean_reduction: Optional[float] = None,
                          unit: str = "") -> str:
    """Figures 11/12: two distributions plus mean/p99 improvements."""
    lo = min(baseline.minimum, improved.minimum)
    hi = max(baseline.maximum, improved.maximum)
    if hi <= lo:
        hi = lo + 1e-12
    lines = [title]
    for stats in (baseline, improved):
        lines.append(
            f"  {stats.label:<20} mean={stats.mean:.4g}{unit} "
            f"median={stats.median:.4g}{unit} p99={stats.p99:.4g}{unit}"
        )
        lines.append(f"  {'':<20} [{stats.ascii_box(lo, hi)}]")
    lines.append(
        f"  Mean improvement: {_pct(improvements['mean_reduction'])}"
        + (f" (paper: {_pct(paper_mean_reduction)})" if paper_mean_reduction is not None else "")
    )
    lines.append(f"  P99 improvement:  {_pct(improvements['p99_reduction'])}")
    return "\n".join(lines)


def render_hw_matrix(sweep) -> str:
    """Hardware scenario matrix: per-stage cache/timing/energy, every world.

    Takes a :class:`~repro.analysis.hw_sweep.HardwareSweepResult` and renders
    one row per (scenario, stage) with the baseline and Bonsai trace-driven
    figures side by side: L1 miss ratios, demand bytes the stage loaded,
    line-fill bytes DRAM served to L2, and the relative cycle and energy
    changes of the Bonsai configuration.
    """
    rows = []
    for scenario in sweep.scenarios():
        baseline, bonsai = sweep.pair(scenario)
        for stage in sorted(baseline.hardware):
            base = baseline.hardware[stage]
            bon = bonsai.hardware[stage]
            change = {key: relative_change(base[key], bon[key])
                      for key in ("bytes_loaded", "cycles", "energy_j")}
            rows.append((
                scenario,
                stage,
                _pct(base["l1_miss_ratio"]),
                _pct(bon["l1_miss_ratio"]),
                f"{base['bytes_loaded']:,}",
                f"{bon['bytes_loaded']:,}",
                _pct(change["bytes_loaded"], signed=True),
                f"{base['dram_to_l2_bytes']:,}",
                f"{bon['dram_to_l2_bytes']:,}",
                _pct(change["cycles"], signed=True),
                _pct(change["energy_j"], signed=True),
            ))
    return render_table(
        ("Scenario", "Stage", "L1 miss", "L1 miss (B)", "Demand B", "Demand B (B)",
         "Change", "DRAM->L2 B", "DRAM->L2 B (B)", "Cycles chg", "Energy chg"),
        rows,
        title=(f"Hardware scenario matrix - trace-driven cache/timing/energy, "
               f"{sweep.n_frames} frames at {sweep.n_beams}x{sweep.n_azimuth_steps} "
               f"rays ((B) = Bonsai-extensions)"),
    )


def render_cache_sensitivity(result) -> str:
    """Cache-geometry sensitivity table: the Bonsai win per geometry.

    Takes a :class:`~repro.analysis.cache_sweep.CacheSweepResult` and renders
    one row per geometry variant with the two modes' traffic and energy
    totals (summed over scenarios and stages) side by side.  Demand bytes
    are geometry-independent — that column's change is constant — while the
    line-fill columns (L2->L1, DRAM->L2) and energy show where bigger caches
    absorb the baseline's extra traffic and the Bonsai byte win stops
    paying off.
    """
    rows = []
    for row in result.comparison_rows():
        geometry = row["geometry"]
        base, other, change = row["base"], row["other"], row["change"]
        rows.append((
            geometry.name,
            geometry.label,
            _pct(change["bytes_loaded"], signed=True),
            f"{base['l2_to_l1_bytes']:,}",
            f"{other['l2_to_l1_bytes']:,}",
            _pct(change["l2_to_l1_bytes"], signed=True),
            f"{base['dram_to_l2_bytes']:,}",
            f"{other['dram_to_l2_bytes']:,}",
            _pct(change["dram_to_l2_bytes"], signed=True),
            _pct(change["cycles"], signed=True),
            _pct(change["energy_j"], signed=True),
        ))
    scenario_set = sorted({run.scenario
                           for geo in result.runs for run in geo.sweep.runs})
    return render_table(
        ("Geometry", "L1/L2", "Demand chg", "L2->L1 B", "L2->L1 B (B)",
         "Change", "DRAM->L2 B", "DRAM->L2 B (B)", "Change",
         "Cycles chg", "Energy chg"),
        rows,
        title=(f"Cache-geometry sensitivity - {len(scenario_set)} scenarios "
               f"({', '.join(scenario_set)}), {result.n_frames} frames at "
               f"{result.n_beams}x{result.n_azimuth_steps} rays "
               f"((B) = Bonsai-extensions; totals over scenarios+stages)"),
    )


def render_map_scale_sensitivity(result) -> str:
    """Map-scale cache-geometry table: the L2 cut at 1M+ points.

    Takes a :class:`~repro.analysis.map_scale.MapScaleResult` and renders
    one row per geometry with both flavours' recorded traffic totals side
    by side.  Unlike the frame-scale sensitivity table there are no
    cycle/energy columns — the map-scale sweep records raw search traffic,
    not a full pipeline — but it adds the per-level miss ratios, which is
    where L2 capacity actually shows.
    """
    rows = []
    for row in result.comparison_rows():
        geometry = row["geometry"]
        base, other, change = row["base"], row["other"], row["change"]
        rows.append((
            geometry.name,
            geometry.label,
            _pct(change["bytes_loaded"], signed=True),
            f"{base['l2_to_l1_bytes']:,}",
            f"{other['l2_to_l1_bytes']:,}",
            _pct(change["l2_to_l1_bytes"], signed=True),
            f"{base['dram_to_l2_bytes']:,}",
            f"{other['dram_to_l2_bytes']:,}",
            _pct(change["dram_to_l2_bytes"], signed=True),
            f"{_pct(base['l2_miss_ratio'])}/{_pct(other['l2_miss_ratio'])}",
        ))
    return render_table(
        ("Geometry", "L1/L2", "Demand chg", "L2->L1 B", "L2->L1 B (B)",
         "Change", "DRAM->L2 B", "DRAM->L2 B (B)", "Change",
         "L2 miss base/(B)"),
        rows,
        title=(f"Map-scale cache sensitivity - scenario {result.scenario}, "
               f"{result.n_points:,} points, tile {result.tile_size:g} m "
               f"({result.n_touched_tiles}/{result.n_tiles} tiles touched), "
               f"{result.n_queries} radius-{result.radius:g} queries "
               f"((B) = Bonsai-extensions)"),
    )


def render_table5(estimates: Mapping[str, object], table_v) -> str:
    """Table V: area and power of the K-D Bonsai additions."""
    compression = estimates["compression_unit"]
    fus = estimates["square_diff_fus"]
    rows = [
        ("Compression/Decompression FU",
         f"{compression.area_mm2:.4f}", f"{table_v.compression_fu.area_mm2:.4f}",
         f"{compression.dynamic_power_w:.4f}", f"{table_v.compression_fu.dynamic_power_w:.4f}"),
        ("4x (A-B')^2 FU",
         f"{fus.area_mm2:.4f}", f"{table_v.square_diff_fus.area_mm2:.4f}",
         f"{fus.dynamic_power_w:.4f}", f"{table_v.square_diff_fus.dynamic_power_w:.4f}"),
        ("Total",
         f"{estimates['total_area_mm2']:.4f}", f"{table_v.bonsai_total.area_mm2:.4f}",
         f"{estimates['total_dynamic_power_w']:.4f}",
         f"{table_v.bonsai_total.dynamic_power_w:.4f}"),
        ("Relative to baseline core",
         _pct(estimates['total_area_mm2'] / table_v.processor.area_mm2),
         _pct(table_v.relative_area_increase),
         _pct(estimates['total_dynamic_power_w'] / table_v.processor.dynamic_power_w),
         _pct(table_v.relative_dynamic_power_increase)),
    ]
    return render_table(
        ("Unit", "Area mm^2 (model)", "Area mm^2 (paper)",
         "Dyn. power W (model)", "Dyn. power W (paper)"),
        rows,
        title="Table V - Area and power of the K-D Bonsai additions",
    )
