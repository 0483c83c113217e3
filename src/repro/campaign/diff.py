"""Pairwise diffing of backend outputs, statistics and hardware metrics.

Each ``diff_*`` helper compares one pair of quantities the engine layer
declares invariant across backends and returns ``None`` on agreement or a
short human-readable detail string on divergence.  The campaign driver turns
non-``None`` details into :class:`Divergence` records.

What is compared follows the engine's documented contract (see
``tests/test_backend_parity.py``):

* Radius results — ``offsets`` and ``point_indices`` bitwise.
* kNN results — ``indices`` bitwise, ``distances`` exactly (NaN-safe).
* :class:`~repro.kdtree.radius_search.SearchStats` — the functional
  counters (``queries``, ``leaves_visited``, ``interior_visited``,
  ``points_examined``, ``points_in_radius``) and the per-leaf visit
  histogram.  ``point_bytes_loaded`` is *flavor-variant* (compressed leaves
  load fewer bytes) and deliberately not compared.
* :class:`~repro.core.bonsai_search.BonsaiStats` — all counters, but only
  among Bonsai-flavored backends.
* :class:`~repro.hwmodel.cache.HierarchyStats` — all counters, compared
  between two independent recorded runs of the same flavor (the hardware
  model must be deterministic).
* Pipeline metrics — the functional signature only
  (:func:`pipeline_signature`): cluster/track/localization *outcomes*, not
  flavor-variant cost-model numbers.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Optional

import numpy as np

__all__ = [
    "Divergence",
    "diff_radius",
    "diff_knn",
    "diff_search_stats",
    "diff_bonsai_stats",
    "diff_hierarchy_stats",
    "diff_pipeline_signatures",
    "pipeline_signature",
]

#: SearchStats counters every backend must charge identically.
SEARCH_STAT_FIELDS = ("queries", "leaves_visited", "interior_visited",
                      "points_examined", "points_in_radius")

#: BonsaiStats counters identical across the Bonsai-flavored backends.
BONSAI_STAT_FIELDS = ("leaf_visits", "slices_loaded",
                      "compressed_bytes_loaded", "points_classified",
                      "conclusive_in", "conclusive_out", "inconclusive",
                      "recompute_bytes_loaded")

#: HierarchyStats counters identical between two recorded runs of one flavor.
HIERARCHY_STAT_FIELDS = ("l1_accesses", "l1_misses", "l2_accesses",
                         "l2_misses", "memory_accesses", "loads", "stores",
                         "bytes_loaded", "bytes_stored")


@dataclass
class Divergence:
    """One observed disagreement between two backends on one world."""

    trial: int
    kind: str  # e.g. "radius-hits", "knn", "search-stats", "hardware"
    left: str  # backend (or run) name
    right: str
    op_index: int  # -1 for per-trial aggregates (stats diffs)
    op: str  # human-readable op label ("" for aggregates)
    detail: str
    #: Filled in by the shrinker: size of the minimal reproducing case.
    shrunk: Optional[Dict[str, int]] = None
    #: Path of the generated pytest reproducer, relative to the result dir.
    reproducer: Optional[str] = None

    def as_dict(self) -> dict:
        return asdict(self)


def _first_mismatch(a: np.ndarray, b: np.ndarray) -> str:
    """Index and values of the first differing element (flattened)."""
    if a.shape != b.shape:
        return f"shape {a.shape} != {b.shape}"
    flat_a, flat_b = a.ravel(), b.ravel()
    if flat_a.dtype.kind == "f" or flat_b.dtype.kind == "f":
        same = (flat_a == flat_b) | (np.isnan(flat_a) & np.isnan(flat_b))
    else:
        same = flat_a == flat_b
    where = np.flatnonzero(~same)
    if where.size == 0:
        return "equal"
    i = int(where[0])
    return (f"{where.size} element(s) differ, first at flat index {i}: "
            f"{flat_a[i]!r} != {flat_b[i]!r}")


def diff_radius(a, b) -> Optional[str]:
    """Compare two ``BatchRadiusResult``s bitwise (CSR form)."""
    if not np.array_equal(a.offsets, b.offsets):
        return f"radius offsets: {_first_mismatch(a.offsets, b.offsets)}"
    if not np.array_equal(a.point_indices, b.point_indices):
        return ("radius point_indices: "
                f"{_first_mismatch(a.point_indices, b.point_indices)}")
    return None


def diff_knn(a, b) -> Optional[str]:
    """Compare two ``BatchKNNResult``s bitwise (NaN/inf-safe distances)."""
    if not np.array_equal(a.indices, b.indices):
        return f"knn indices: {_first_mismatch(a.indices, b.indices)}"
    if not np.array_equal(a.distances, b.distances, equal_nan=True):
        return f"knn distances: {_first_mismatch(a.distances, b.distances)}"
    return None


def _diff_fields(a, b, fields) -> Optional[str]:
    for name in fields:
        left, right = getattr(a, name), getattr(b, name)
        if left != right:
            return f"{name}: {left} != {right}"
    return None


def diff_search_stats(a, b) -> Optional[str]:
    """Compare the flavor-invariant ``SearchStats`` counters."""
    detail = _diff_fields(a, b, SEARCH_STAT_FIELDS)
    if detail is not None:
        return f"search stats {detail}"
    if a.leaf_visit_counts != b.leaf_visit_counts:
        return (f"search stats leaf_visit_counts differ "
                f"({len(a.leaf_visit_counts)} vs {len(b.leaf_visit_counts)} "
                "leaves touched)")
    return None


def diff_bonsai_stats(a, b) -> Optional[str]:
    """Compare ``BonsaiStats`` counters (Bonsai-flavored backends only)."""
    detail = _diff_fields(a, b, BONSAI_STAT_FIELDS)
    return None if detail is None else f"bonsai stats {detail}"


def diff_hierarchy_stats(a, b) -> Optional[str]:
    """Compare ``HierarchyStats`` counters of two recorded runs."""
    detail = _diff_fields(a, b, HIERARCHY_STAT_FIELDS)
    return None if detail is None else f"hardware stats {detail}"


def pipeline_signature(metrics: Dict[str, object]) -> Dict[str, object]:
    """The backend-invariant functional signature of pipeline metrics.

    Keeps the outcome quantities every backend must reproduce exactly and
    drops the flavor-variant ones: ``use_bonsai`` (identity, not outcome),
    ``cluster_bonsai`` (only Bonsai runs carry it), the cost-``model`` block,
    ``cluster_search.point_bytes_loaded`` (compressed leaves load fewer
    bytes) and the localization cost fields.
    """
    search = dict(metrics["cluster_search"])
    search.pop("point_bytes_loaded", None)
    signature: Dict[str, object] = {
        key: metrics[key]
        for key in ("scenario", "n_frames", "frame_indices",
                    "raw_points_total", "filtered_points_total",
                    "clusters_total", "detections_kept_total",
                    "confirmed_tracks_final", "tracks_spawned",
                    "track_labels")
        if key in metrics
    }
    signature["cluster_search"] = search
    localization = metrics.get("localization")
    if isinstance(localization, dict):
        signature["localization"] = {
            key: localization[key]
            for key in ("n_scans", "mean_error_m", "max_error_m",
                        "iterations_total")
            if key in localization
        }
    return signature


def diff_pipeline_signatures(a: Dict[str, object],
                             b: Dict[str, object]) -> Optional[str]:
    """Compare two :func:`pipeline_signature` dicts key by key."""
    for key in sorted(set(a) | set(b)):
        left, right = a.get(key), b.get(key)
        if left != right:
            return f"pipeline {key}: {left!r} != {right!r}"
    return None
