"""Host speed, timed with a fixed kernel that runs none of the program's code.

The virtual CPUs the benchmark runs on share their host with other tenants.
In some phases they run the same code up to 1.6 times as slowly, and a
phase can outlast a run, so a longer run does not average it out: on a
2-vCPU virtual machine, ten 50 s frames-bonsai runs in a row read between
7,500 and 11,900 points per second.  The benchmark therefore times a fixed
kernel next to what it measures (never inside a timed interval) and reports
its end-to-end figures for a *nominal host*, one that runs the kernel in
:data:`NOMINAL_KERNEL_S`.  Each virtual CPU is slowed on its own, so a
sample runs the kernel once on every CPU and takes the mean.  A *slowdown*
is the median of some samples over that nominal time.  The phases last
seconds, so each timed piece of work -- a frame, a cycle of map-serve
requests, a set-up -- is divided by the slowdown of the samples taken just
before and just after it.  The run's slowdown, over all its samples, is
reported beside it.

The kernel is the kind of work the program spends its time on -- small
NumPy batches and integer bit arithmetic driven from Python -- but none of
the program's code, so a change to the program moves the scaled figures as
it moves the raw ones.  The raw figures are printed beside the scaled ones,
and the slowdown is the per-layer metric ``bench.host_slowdown``: a program
that left work running between ops would slow the kernel, and show there.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import List

import numpy as np

#: The kernel's time in a quiet phase of a 2-vCPU x86-64 virtual machine
#: (Python 3.11).
NOMINAL_KERNEL_S = 0.008

_RNG = np.random.default_rng(0)
_POINTS = _RNG.uniform(0.0, 50.0, (20_000, 3))
_QUERIES = _RNG.uniform(0.0, 50.0, (1_000, 3))
_FIRST = _RNG.integers(0, len(_POINTS) - 64, len(_QUERIES))


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel."""
    start = time.perf_counter()
    hits = 0
    for query, first in zip(_QUERIES, _FIRST):
        block = _POINTS[first:first + 64]
        hits += int(np.count_nonzero(((block - query) ** 2).sum(axis=1) < 25.0))
    word = hits
    for i in range(20_000):
        word = ((word << 3) ^ (word >> 5) ^ i) & 0xFFFF_FFFF
    return time.perf_counter() - start


def kernel_seconds_per_cpu() -> float:
    """Mean wall time of the kernel run once on each CPU this process may use.

    Each virtual CPU is slowed on its own, and a workload whose processes
    run on all of them at once is slowed by their mean; the calling thread
    is pinned to each CPU in turn, then released.
    """
    if not hasattr(os, "sched_setaffinity"):  # no CPU pinning on this platform
        return kernel_seconds()
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(kernel_seconds())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(times)


def slowdown_of(kernel_s: List[float]) -> float:
    """The median of kernel samples over the nominal kernel time."""
    return statistics.median(kernel_s) / NOMINAL_KERNEL_S


class HostSpeed:
    """The kernel times taken over one run."""

    def __init__(self):
        self.kernel_s: List[float] = []

    def sample(self, runs: int = 1) -> List[float]:
        """Time the kernel on every CPU ``runs`` times, now; returns the samples."""
        taken = [kernel_seconds_per_cpu() for _ in range(runs)]
        self.kernel_s.extend(taken)
        return taken

    @property
    def slowdown(self) -> float:
        """The run's slowdown: over all its samples."""
        return slowdown_of(self.kernel_s)
