"""Percentiles and the tail rule used by every timing metric.

A timing is reported as its median and its *tail*: the highest whole
percentile (from 50 up to 99) that still has at least ``MIN_BEYOND``
samples strictly above it, so the tail is never read off a handful of
outliers.  The chosen percentile and the sample count travel with the value.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Samples that must lie beyond the reported tail percentile.
MIN_BEYOND = 10


def samples_beyond(n: int, pct: float) -> int:
    """Samples strictly above the ``pct``-th percentile of ``n`` distinct values.

    Uses NumPy's default (linear) interpolation: the percentile sits at
    rank ``(n - 1) * pct / 100`` and every sample of a higher rank lies
    beyond it.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    return n - 1 - math.floor((n - 1) * pct / 100.0)


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> int:
    """The highest whole percentile in [50, 99] with ``min_beyond`` samples above.

    Falls back to 50 when even the median has fewer samples beyond it; the
    caller reports :func:`samples_beyond` next to the value, so a short run
    shows as such instead of posing as a tail.
    """
    best = 50
    for pct in range(50, 100):
        if samples_beyond(n, pct) >= min_beyond:
            best = pct
        else:
            break
    return best


@dataclass(frozen=True)
class Distribution:
    """Median and tail of one set of timings (in the samples' unit)."""

    n: int
    p50: float
    tail: float
    tail_pct: int
    tail_beyond: int

    @property
    def note(self) -> str:
        """The tail's percentile and sample count, printed beside it."""
        return f"p{self.tail_pct}, {self.tail_beyond} of {self.n} samples beyond"


def distribution(samples: Sequence[float]) -> Distribution:
    """Median and tail of ``samples``."""
    values = np.asarray(samples, dtype=np.float64)
    if values.size == 0:
        raise ValueError("no samples")
    pct = tail_percentile(values.size)
    return Distribution(
        n=int(values.size),
        p50=float(np.percentile(values, 50)),
        tail=float(np.percentile(values, pct)),
        tail_pct=pct,
        tail_beyond=samples_beyond(values.size, pct),
    )


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median.

    The steadiness figure the benchmark is tuned against:
    ``statistics.quantiles(values, n=4)`` over the per-run medians.
    """
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
