"""L1/L2 cache timing model.

A real tag array (set-associative, LRU, physically indexed) provides timing
for small accesses; bulk streaming transfers (message copies) use an
analytic model — ``copy_setup + copy_per_byte * n`` — calibrated to the
paper's measured 4010 cycles for a 4 KB transfer (Table 1).  Contents are
never cached (data lives only in PhysicalMemory); the cache model supplies
*latency* and *statistics*.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.params import CycleParams


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0


class _TagArray:
    """One level of set-associative tags with LRU replacement."""

    def __init__(self, size_bytes: int, ways: int, line: int) -> None:
        self.line = line
        self.sets = size_bytes // (ways * line)
        self.ways = ways
        # Plain dicts in LRU order (oldest first): cheaper to build and
        # to snapshot-copy than OrderedDicts, and insertion order is
        # guaranteed; pop-and-reinsert refreshes a line, deleting the
        # first key evicts the LRU way.
        self._sets = [{} for _ in range(self.sets)]
        self.stats = CacheStats()

    def access(self, pa: int) -> bool:
        """Touch the line containing *pa*; return True on hit."""
        tag = pa // self.line
        tset = self._sets[tag % self.sets]
        if tag in tset:
            tset[tag] = tset.pop(tag)
            self.stats.hits += 1
            return True
        if len(tset) >= self.ways:
            del tset[next(iter(tset))]
        tset[tag] = True
        self.stats.misses += 1
        return False

    def flush(self) -> None:
        for tset in self._sets:
            tset.clear()

    def __deepcopy__(self, memo: dict) -> "_TagArray":
        """Tag sets hold only immutable ints, so a snapshot deepcopy
        can rebuild them with shallow per-set copies instead of paying
        the generic reduce path for a thousand dicts.  Goes through
        *memo* so a shared L2 stays shared in the copy."""
        dup = _TagArray.__new__(_TagArray)
        memo[id(self)] = dup
        dup.line = self.line
        dup.sets = self.sets
        dup.ways = self.ways
        dup._sets = [dict(tset) for tset in self._sets]
        dup.stats = replace(self.stats)
        return dup


class CacheModel:
    """Two-level cache hierarchy for one core (L2 may be shared)."""

    def __init__(self, params: CycleParams,
                 l1_size: int = 32 * 1024, l1_ways: int = 4,
                 l2_size: int = 1024 * 1024, l2_ways: int = 16,
                 shared_l2: "_TagArray" = None) -> None:
        self.params = params
        line = params.cache_line_bytes
        self.l1 = _TagArray(l1_size, l1_ways, line)
        self.l2 = shared_l2 or _TagArray(l2_size, l2_ways, line)

    def access_cycles(self, pa: int, size: int) -> int:
        """Latency of one load/store touching [pa, pa+size)."""
        p = self.params
        cycles = 0
        line = p.cache_line_bytes
        first = pa // line
        last = (pa + max(size, 1) - 1) // line
        for tag in range(first, last + 1):
            line_pa = tag * line
            if self.l1.access(line_pa):
                cycles += p.l1_hit
            elif self.l2.access(line_pa):
                cycles += p.l2_hit
            else:
                cycles += p.dram_access
        return cycles

    def stream_cycles(self, nbytes: int) -> int:
        """Analytic latency for a bulk copy of *nbytes* (load + store)."""
        return self.params.copy_cycles(nbytes)

    def flush(self) -> None:
        self.l1.flush()
        self.l2.flush()
