"""Set-associative cache and memory-hierarchy simulation.

Figures 9a and 10 of the paper report relative changes in L1/L2/DRAM accesses
between the baseline and the Bonsai radius search.  The reproduction obtains
those from a trace-driven simulation: the searches emit their loads/stores
through a recorder (:class:`HierarchyRecorder` implements the
``MemoryRecorder`` protocol of :mod:`repro.kdtree.radius_search`), and this
module replays them through an LRU set-associative L1D backed by an L2 and
main memory, using the geometry of the paper's baseline CPU (Table IV:
32 KB 2-way L1D, 1 MB 16-way L2, 64 B lines).

Units and determinism
---------------------
All sizes and counters are in **bytes** and **accesses** (cache-line-granular
at every level).  The simulation is fully deterministic: LRU replacement has
no random state, addresses come from the fixed synthetic layout of
:mod:`repro.kdtree.layout`, and identical access traces therefore produce
bit-identical :class:`CacheStats`/:class:`HierarchyStats` —
which is what allows the golden hardware-metric snapshots
(``tests/test_golden_hardware.py``) to pin miss counts exactly.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["CacheConfig", "CacheStats", "SetAssociativeCache", "HierarchyStats",
           "MemoryHierarchy", "HierarchyRecorder"]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    size_bytes: int
    associativity: int
    line_size: int = 64
    name: str = "cache"

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.associativity <= 0 or self.line_size <= 0:
            raise ValueError("cache geometry values must be positive")
        if self.size_bytes % (self.associativity * self.line_size) != 0:
            raise ValueError("size must be a multiple of associativity * line_size")

    @property
    def n_sets(self) -> int:
        """Number of sets."""
        return self.size_bytes // (self.associativity * self.line_size)


@dataclass
class CacheStats:
    """Access counters of one cache level."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def miss_ratio(self) -> float:
        """Misses over accesses (0 when never accessed)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


class SetAssociativeCache:
    """An LRU set-associative cache (tag store only, no data)."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStats()
        # One ordered dict per set: keys are tags, order is recency (last = MRU).
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(config.n_sets)]

    def _locate(self, address: int) -> Tuple[int, int]:
        line = address // self.config.line_size
        set_index = line % self.config.n_sets
        tag = line // self.config.n_sets
        return set_index, tag

    def access(self, address: int) -> bool:
        """Access the line containing ``address``; returns True on hit."""
        set_index, tag = self._locate(address)
        cache_set = self._sets[set_index]
        self.stats.accesses += 1
        if tag in cache_set:
            cache_set.move_to_end(tag)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        cache_set[tag] = True
        if len(cache_set) > self.config.associativity:
            cache_set.popitem(last=False)
            self.stats.evictions += 1
        return False

    def reset(self) -> None:
        """Clear contents and statistics."""
        self.stats = CacheStats()
        for cache_set in self._sets:
            cache_set.clear()


@dataclass
class HierarchyStats:
    """Per-level access counts of a memory hierarchy simulation."""

    l1_accesses: int = 0
    l1_misses: int = 0
    l2_accesses: int = 0
    l2_misses: int = 0
    memory_accesses: int = 0
    loads: int = 0
    stores: int = 0
    bytes_loaded: int = 0
    bytes_stored: int = 0

    @property
    def l1_miss_ratio(self) -> float:
        """L1 data-cache miss ratio (0.0 when the level was never accessed)."""
        if self.l1_accesses == 0:
            return 0.0
        return self.l1_misses / self.l1_accesses

    @property
    def l2_miss_ratio(self) -> float:
        """L2 miss ratio (0.0 when the level was never accessed)."""
        if self.l2_accesses == 0:
            return 0.0
        return self.l2_misses / self.l2_accesses

    def merge(self, other: "HierarchyStats") -> None:
        """Accumulate ``other``'s counters into this object.

        Used by the end-to-end runner to fold the per-frame hierarchies of
        the clustering stage into one stage-level report; merging counters is
        exact because every frame simulates its own (cold) hierarchy.
        """
        self.l1_accesses += other.l1_accesses
        self.l1_misses += other.l1_misses
        self.l2_accesses += other.l2_accesses
        self.l2_misses += other.l2_misses
        self.memory_accesses += other.memory_accesses
        self.loads += other.loads
        self.stores += other.stores
        self.bytes_loaded += other.bytes_loaded
        self.bytes_stored += other.bytes_stored


class MemoryHierarchy:
    """L1D + L2 + main-memory access simulation (Table IV geometry by default)."""

    def __init__(self, l1: Optional[CacheConfig] = None, l2: Optional[CacheConfig] = None):
        self.l1_config = l1 or CacheConfig(size_bytes=32 * 1024, associativity=2,
                                           line_size=64, name="L1D")
        self.l2_config = l2 or CacheConfig(size_bytes=1024 * 1024, associativity=16,
                                           line_size=64, name="L2")
        self.l1 = SetAssociativeCache(self.l1_config)
        self.l2 = SetAssociativeCache(self.l2_config)
        self.stats = HierarchyStats()

    def access(self, address: int, size: int, is_write: bool = False) -> None:
        """Simulate one CPU access of ``size`` bytes starting at ``address``.

        Accesses spanning multiple cache lines generate one L1 access per
        line, as the load/store unit would.
        """
        if size <= 0:
            raise ValueError("access size must be positive")
        if is_write:
            self.stats.stores += 1
            self.stats.bytes_stored += size
        else:
            self.stats.loads += 1
            self.stats.bytes_loaded += size
        line_size = self.l1_config.line_size
        first_line = address // line_size
        last_line = (address + size - 1) // line_size
        for line in range(first_line, last_line + 1):
            line_address = line * line_size
            self.stats.l1_accesses += 1
            if self.l1.access(line_address):
                continue
            self.stats.l1_misses += 1
            self.stats.l2_accesses += 1
            if self.l2.access(line_address):
                continue
            self.stats.l2_misses += 1
            self.stats.memory_accesses += 1

    def reset(self) -> None:
        """Clear caches and statistics."""
        self.l1.reset()
        self.l2.reset()
        self.stats = HierarchyStats()


class HierarchyRecorder:
    """Memory-access recorder feeding a :class:`MemoryHierarchy`.

    Implements the ``MemoryRecorder`` protocol expected by the radius search
    and the Bonsai inspector, so traces stream directly into the cache
    simulation without being materialised.
    """

    def __init__(self, hierarchy: Optional[MemoryHierarchy] = None):
        self.hierarchy = hierarchy or MemoryHierarchy()

    @classmethod
    def for_cpu(cls, cpu) -> "HierarchyRecorder":
        """Recorder simulating ``cpu``'s cache geometry.

        ``cpu`` is a :class:`~repro.hwmodel.cpu_config.CPUConfig`-like object
        with ``l1d``/``l2`` cache configs.  Use this wherever a recorded
        trace must stay consistent with the timing/energy models
        parameterised by the same CPUConfig.
        """
        return cls(MemoryHierarchy(l1=cpu.l1d, l2=cpu.l2))

    @property
    def stats(self) -> HierarchyStats:
        """The hierarchy's access statistics."""
        return self.hierarchy.stats

    def record_load(self, address: int, size: int) -> None:
        """Record one load."""
        self.hierarchy.access(address, size, is_write=False)

    def record_store(self, address: int, size: int) -> None:
        """Record one store."""
        self.hierarchy.access(address, size, is_write=True)
