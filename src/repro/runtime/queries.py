"""Argument checks shared by every search entry point.

Every backend, the sharded index, the single-query searches and the query
service check their queries, radius and ``k`` here, so an invalid input
fails the same way everywhere: with a ``ValueError`` naming the argument.
A NaN radius, a NaN query or a fractional ``k`` would otherwise return
empty or backend-dependent results without a word.

Like :mod:`repro.runtime.kernels`, the module imports only NumPy, so the
k-d tree layer can use it without an import cycle.
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_query_batch", "as_query_point", "check_k", "check_radius"]


def as_query_batch(queries) -> np.ndarray:
    """Validate and convert ``queries`` into a C-contiguous ``(Q, 3)`` float64 array.

    The batched traversal reads coordinate ``d`` of query ``q`` from the
    flattened batch at ``3 * q + d``; a strided input is copied once here
    rather than at every tree level.
    """
    arr = np.asarray(queries, dtype=np.float64)
    if arr.ndim == 1 and arr.shape == (3,):
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("queries must form a (Q, 3) array of 3D points")
    return np.ascontiguousarray(_finite(arr))


def as_query_point(query) -> np.ndarray:
    """Validate and convert one query into a ``(3,)`` float64 array."""
    arr = np.asarray(query, dtype=np.float64)
    if arr.shape != (3,):
        raise ValueError("query must be a 3D point")
    return _finite(arr)


def _finite(arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ValueError("query coordinates must be finite")
    return arr


def check_radius(radius) -> float:
    """``radius`` as a float; it must be positive (NaN is not)."""
    value = float(radius)
    if not value > 0.0:
        raise ValueError(f"radius must be positive, got {radius!r}")
    return value


def check_k(k) -> int:
    """``k`` as an int; it must be an integer (not a bool) of at least 1."""
    if isinstance(k, (bool, np.bool_)) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k!r}")
    return int(k)
