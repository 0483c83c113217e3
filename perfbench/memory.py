"""Memory of the program, read from ``/proc`` (Linux).

``peak_rss_mb`` is meant to move when the program keeps more memory, not
when the benchmark does.  So the benchmark process counts only its growth
over the resident set it had just before set-up (its imports, numpy and
scipy among them, are not the program's), and every child process counts
its *unique* set: private pages only.  A forked worker's resident set starts
as a copy of its parent's, so its ``ru_maxrss`` would count the parent's
pages once more per worker; its unique set holds what the worker itself
allocated or wrote, e.g. a decoded mirror of the map.
"""

from __future__ import annotations

import os
import resource
from pathlib import Path
from typing import List

PROC = Path("/proc")


def rss_mb() -> float:
    """Current resident set of this process."""
    pages = int((PROC / "self" / "statm").read_text().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_pids(parent: int) -> List[int]:
    """Live processes whose parent is ``parent``."""
    children = []
    for entry in PROC.iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:  # the process ended while we looked
            continue
        # Field 4 is the parent pid; the command name before it may hold spaces.
        if int(stat.rsplit(")", 1)[1].split()[1]) == parent:
            children.append(int(entry.name))
    return sorted(children)


def unique_mb(pid: int) -> float:
    """Private (unshared) resident memory of ``pid``."""
    total_kb = 0
    for line in (PROC / str(pid) / "smaps_rollup").read_text().splitlines():
        field, _, rest = line.partition(":")
        if field in ("Private_Clean", "Private_Dirty"):
            total_kb += int(rest.split()[0])
    return total_kb / 1024.0


def children_unique_mb() -> float:
    """Unique memory summed over this process's live children."""
    return sum(unique_mb(pid) for pid in child_pids(os.getpid()))
