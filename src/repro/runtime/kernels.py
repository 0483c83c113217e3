"""Vectorised leaf-point distance kernels shared by every query path.

These are the innermost numeric routines of the query engine: squared
euclidean distances between leaf points and one query
(:func:`leaf_distances2`), a whole query batch
(:func:`pairwise_distances2`) or matched row pairs
(:func:`rowwise_distances2`), and the reduced-precision error bound / shell
classification of the K-D Bonsai paper (:func:`reduced_precision_max_delta`,
:func:`shell_distances`, :func:`shell_classify`, and the ``(Q, M)`` matrix
form :func:`batch_shell_distances` with its :func:`shell_error_bound`).

Both the single-query paths (:mod:`repro.kdtree.knn`,
:mod:`repro.kdtree.radius_search`, :mod:`repro.core.bonsai_search`) and the
batched engine (:mod:`repro.runtime.batch`, :mod:`repro.runtime.bonsai`)
call into this module, so the two produce bit-identical distances:
``(a - b)**2`` summed over the three coordinates in the same order, in
float64.  That order holds only on C-contiguous ``(..., 3)`` rows: an einsum
over a contiguous coordinate axis sums ``(d0**2 + d2**2) + d1**2`` on
current NumPy, while a coordinate-major (strided) operand sums in another
order and rounds differently in about 23% of random pairs (so do a
``.sum(axis=-1)`` and a 3-element ``@`` product).  The kernels therefore
make their differences contiguous before the einsum.  The Eq. 11 bound
adds its per-coordinate terms as ``(e0 + e1) + e2``, what ``.sum(axis=-1)``
gives on those rows.  Both Bonsai searches, the per-query leaf inspector
and the batched leaf pass, run the one kernel :func:`shell_distances` and
recompute inconclusive points with the baseline's distance kernels, so they
classify every (query, point) pair alike and charge the same counters.

The module intentionally imports nothing from the rest of :mod:`repro`
(only NumPy), so it can be used from any layer without import cycles.

Example
-------
>>> import numpy as np
>>> from repro.runtime.kernels import pairwise_distances2
>>> points = np.zeros((4, 3))
>>> queries = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
>>> pairwise_distances2(points, queries).shape
(2, 4)
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "leaf_distances2",
    "pairwise_distances2",
    "rowwise_distances2",
    "reduced_precision_max_delta",
    "batch_shell_distances",
    "shell_distances",
    "shell_error_bound",
    "shell_classify",
]


def leaf_distances2(points: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Squared distances from one ``(3,)`` query to ``(M, 3)`` leaf points."""
    diffs = np.ascontiguousarray(points - query)
    return np.einsum("ij,ij->i", diffs, diffs)


def pairwise_distances2(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Squared distances between ``(Q, 3)`` queries and ``(M, 3)`` points.

    Returns a ``(Q, M)`` matrix.  The arithmetic matches
    :func:`leaf_distances2` exactly (an einsum over the coordinate axis of the
    per-pair differences), so batched and per-query classifications agree
    bitwise.
    """
    diffs = np.ascontiguousarray(queries[:, None, :] - points[None, :, :])
    return np.einsum("qmd,qmd->qm", diffs, diffs)


def rowwise_distances2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between matched rows of two ``(N, 3)`` arrays.

    Bit for bit :func:`pairwise_distances2` of the same (query, point)
    pairs, whatever the memory layout of ``a`` and ``b``.
    """
    diffs = np.ascontiguousarray(a - b)
    return np.einsum("nd,nd->n", diffs, diffs)


def batch_shell_distances(reduced: np.ndarray, queries: np.ndarray,
                          max_delta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Approximate squared distances and error bounds for a query batch.

    For ``(M, 3)`` reduced-precision leaf coordinates and ``(Q, 3)`` queries
    returns the ``(Q, M)`` approximate squared distances (same arithmetic as
    :func:`pairwise_distances2`) together with the worst-case error bound of
    Eq. 11 per (query, point) pair — the inputs of :func:`shell_classify`.
    """
    diffs = np.ascontiguousarray(queries[:, None, :] - reduced[None, :, :])
    d2_approx = np.einsum("qmd,qmd->qm", diffs, diffs)
    return d2_approx, shell_error_bound(np.abs(diffs), max_delta)


def shell_distances(diffs: np.ndarray,
                    max_delta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Approximate squared distances and Eq. 11 bounds of (query, point) pairs.

    ``diffs`` holds ``query - reduced`` of each pair as an ``(n, 3)`` float64
    array and ``max_delta`` the reduced point's per-coordinate bound (rows of
    the decoded mirror).  The kernel works in ``diffs`` and overwrites it (a
    C-contiguous float64 array is used as it is, anything else is copied
    first): the einsum reads the contiguous differences, then the same
    buffer becomes the per-coordinate terms ``2 |d| max_delta +
    max_delta**2``, with ``max_delta`` cast to float64 (bfloat16's smallest
    bound, 2**-134, squares to zero in float32), and the terms add as
    ``(e0 + e1) + e2``.  The results equal :func:`batch_shell_distances`'s
    entries for the same pairs bit for bit.
    """
    diffs = np.ascontiguousarray(diffs, dtype=np.float64)
    d2_approx = np.einsum("nd,nd->n", diffs, diffs)
    delta = max_delta.astype(np.float64)
    np.abs(diffs, out=diffs)
    diffs *= 2.0
    diffs *= delta
    delta *= delta
    diffs += delta
    eps = diffs[:, 0] + diffs[:, 1]
    eps += diffs[:, 2]
    return d2_approx, eps


def reduced_precision_max_delta(reduced: np.ndarray, fmt) -> np.ndarray:
    """Per-coordinate worst-case rounding error of reduced values (Eq. 6).

    ``fmt`` is any object with ``mantissa_bits``, ``bias``,
    ``max_biased_exponent`` and ``min_normal`` attributes
    (:class:`repro.core.floatfmt.FloatFormat`).  The hardware derives this
    from the exponent field via the ``part_error_mem`` lookup; here the same
    half-ULP quantity is computed from the decoded magnitudes.
    """
    magnitude = np.abs(reduced)
    with np.errstate(divide="ignore"):
        exponent = np.floor(
            np.log2(np.where(magnitude > 0, magnitude, fmt.min_normal)))
    exponent = np.clip(exponent, 1 - fmt.bias, fmt.max_biased_exponent - fmt.bias)
    return np.power(2.0, exponent) * 2.0 ** (-(fmt.mantissa_bits + 1))


def shell_error_bound(abs_diffs: np.ndarray, max_delta: np.ndarray) -> np.ndarray:
    """Worst-case error of the approximate squared distance (Eq. 11).

    ``abs_diffs`` holds ``|query - reduced|`` per coordinate; ``max_delta``
    the per-coordinate rounding bound.  Sums over the last (coordinate) axis.
    The arithmetic is float64 whatever ``max_delta``'s dtype: a float32
    ``max_delta * max_delta`` would flush bfloat16's smallest bounds to zero.
    """
    max_delta = np.asarray(max_delta, dtype=np.float64)
    return (2.0 * abs_diffs * max_delta + max_delta * max_delta).sum(axis=-1)


def shell_classify(d2_approx: np.ndarray, eps: np.ndarray,
                   r2: float) -> Tuple[np.ndarray, np.ndarray]:
    """Shell classification of Eq. 12.

    Returns ``(conclusive_in, inconclusive)`` boolean masks: points
    conclusively inside the radius (``d2 <= r2 - eps``), and those whose
    approximate distance falls inside the error shell and need an exact
    32-bit recomputation.  Every other point (``d2 > r2 + eps``) is
    conclusively outside.
    """
    conclusive_in = d2_approx <= r2 - eps
    inconclusive = d2_approx <= r2 + eps
    inconclusive ^= conclusive_in
    return conclusive_in, inconclusive
