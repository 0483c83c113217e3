"""Metric tables, machine context, the exact-count check and the result line."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

#: End-to-end metrics (``--trace 0``): name -> unit.  An op is one frame on
#: ``frames-bonsai`` and one client request on ``map-serve``;
#: ``points_per_s`` counts the input points an op consumes: raw LiDAR points
#: on ``frames-bonsai``, query points on ``map-serve``.
#: ``peak_rss_mb`` is the program's memory (see ``perfbench.memory``): the
#: benchmark process's peak growth over its size before set-up, plus, on
#: ``map-serve``, the unique memory of the service's processes.  Times and
#: rates are reported for the nominal host of ``perfbench.hostspeed``.
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: What an op metric is called in the printed summary of each workload kind.
OP_ALIASES = {
    "frames": {"op_p50_ms": "frame_p50_ms", "op_tail_ms": "frame_tail_ms"},
    "map-serve": {"op_p50_ms": "request_p50_ms", "op_tail_ms": "request_tail_ms"},
}

#: Per-layer metrics (``--trace 1``): name -> unit.  Times are self time per
#: op, counts and bytes are per op; a layer a workload bypasses reads 0.
PER_LAYER = {
    "bench.fail_ratio": "ratio",
    "bench.trace_overhead_pct": "%",
    "bench.op_self_ms": "ms",
    "bench.host_slowdown": "ratio",
    "pointcloud.preprocess_ms": "ms",
    "kdtree.build_ms": "ms",
    "kdtree.build_calls": "count",
    "kdtree.setup_build_ms": "ms",
    "core.compress_ms": "ms",
    "core.compress_passes": "count",
    "core.compressed_bytes_ratio": "ratio",
    "core.setup_compress_ms": "ms",
    "core.leaf_visits": "count",
    "core.compressed_bytes_loaded": "B",
    "core.recompute_bytes_loaded": "B",
    "core.inconclusive_ratio": "ratio",
    "runtime.radius_ms": "ms",
    "runtime.radius_calls": "count",
    "runtime.queries_per_call": "count",
    "runtime.knn_ms": "ms",
    "runtime.knn_calls": "count",
    "runtime.leaves_visited": "count",
    "runtime.points_examined": "count",
    "runtime.point_bytes_loaded": "B",
    "perception.cluster_self_ms": "ms",
    "perception.label_ms": "ms",
    "perception.filter_ms": "ms",
    "perception.track_ms": "ms",
    "perception.ndt_ms": "ms",
    "perception.clusters": "count",
    "perception.ndt_iterations": "count",
    "perception.ndt_error_m": "m",
    "workloads.accounting_ms": "ms",
    "workloads.ndt_map_ms": "ms",
    "serve.request_ms": "ms",
    "serve.inproc_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.response_bytes": "B",
    "serve.setup_pool_ms": "ms",
    "serve.worker_mb": "MB",
    "hwmodel.recorded_ms": "ms",
    "hwmodel.baseline_l1_misses": "count",
    "hwmodel.bonsai_l1_misses": "count",
    "hwmodel.baseline_l2_misses": "count",
    "hwmodel.bonsai_l2_misses": "count",
    "hwmodel.baseline_dram_bytes": "B",
    "hwmodel.bonsai_dram_bytes": "B",
    "hwmodel.model_latency_saving_pct": "%",
    "hwmodel.model_tail_saving_pct": "%",
    "hwmodel.model_energy_saving_pct": "%",
}

#: Span name -> per-layer time metric (self time per traced op).
SPAN_TIMES = {
    "pointcloud.preprocess": "pointcloud.preprocess_ms",
    "kdtree.build": "kdtree.build_ms",
    "core.compress": "core.compress_ms",
    "runtime.radius": "runtime.radius_ms",
    "runtime.knn": "runtime.knn_ms",
    "perception.cluster": "perception.cluster_self_ms",
    "perception.label": "perception.label_ms",
    "perception.filter": "perception.filter_ms",
    "perception.track": "perception.track_ms",
    "perception.ndt": "perception.ndt_ms",
    "workloads.run_frame": "workloads.accounting_ms",
    "workloads.ndt_map": "workloads.ndt_map_ms",
    "hwmodel.recorded": "hwmodel.recorded_ms",
}

#: Span name -> per-layer call-count metric.
SPAN_CALLS = {
    "kdtree.build": "kdtree.build_calls",
    "runtime.radius": "runtime.radius_calls",
    "runtime.knn": "runtime.knn_calls",
}


def machine_context() -> Dict[str, object]:
    """What a result was measured on."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def source_digest(*roots: Path) -> str:
    """Hash of every ``.py`` file under ``roots`` (keys the count record).

    Both the program and the benchmark are hashed: a change to either may
    legitimately change the counts.
    """
    digest = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root.parent)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def counts_digest(counts: Sequence[Mapping[str, object]]) -> str:
    return hashlib.sha256(
        json.dumps(list(counts), sort_keys=True).encode()).hexdigest()[:16]


def repeat_drift(counts: Sequence[Mapping[str, object]], period: int) -> List[int]:
    """Ops whose counts differ from the op one period earlier (same input)."""
    return [k for k in range(period, len(counts)) if counts[k] != counts[k - period]]


def check_recorded(state: Path, key: str, digest: str) -> Optional[str]:
    """Compare ``digest`` with the one an earlier run recorded under ``key``.

    Returns the earlier digest when it differs (drift), else records this
    one and returns ``None``.
    """
    records = {}
    if state.exists():
        records = json.loads(state.read_text())
    earlier = records.get(key)
    if earlier is not None and earlier != digest:
        return earlier
    records[key] = digest
    state.parent.mkdir(parents=True, exist_ok=True)
    state.write_text(json.dumps(records, sort_keys=True, indent=1) + "\n")
    return None


def result_line(correct: bool, attempted: int, failed: int,
                values: Mapping[str, float], units: Mapping[str, str]) -> str:
    """The final JSON line: every metric in ``units``, with its unit."""
    missing = sorted(set(units) - set(values))
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    })


def print_table(values: Mapping[str, float], units: Mapping[str, str],
                notes: Mapping[str, str], aliases: Mapping[str, str]) -> None:
    """Human-readable metric lines (stdout, before the result line)."""
    for name, unit in units.items():
        label = f"{aliases[name]} ({name})" if name in aliases else name
        note = f"  [{notes[name]}]" if name in notes else ""
        print(f"  {label:<44} {values[name]:>14.4f} {unit}{note}")
    sys.stdout.flush()
