"""The TLB as a charge policy: tagged or untagged.

The paper's RocketChip platform has an *untagged* TLB ("the RocketChip does
not support tagged TLB yet", §5.2), so every address-space switch flushes and
costs ``params.tlb_flush`` cycles; the "+Tagged TLB" optimization in
Figure 5 removes that.  :meth:`Core.set_address_space` charges the switch
and :meth:`Core.translate` charges a page walk on every paged access, so
the TLB holds no entries: it is the ``tagged`` mode bit plus the counters
the PMU bank reads.
"""

from __future__ import annotations


class TLBStats:
    """PMU counters: ``misses`` counts page walks, ``flushes`` counts
    untagged switches; ``hits`` stays 0 (there is no entry store)."""

    __slots__ = ("hits", "misses", "flushes")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.flushes = 0


class TLB:
    __slots__ = ("tagged", "stats")

    def __init__(self, tagged: bool = False) -> None:
        self.tagged = tagged
        self.stats = TLBStats()

    def flush_all(self) -> None:
        self.stats.flushes += 1
