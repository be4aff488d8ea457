"""Boundary suite for the reference TLB's contract.

The traces target the corners the fuzz tier rarely reaches: tagged vs
untagged flush/shootdown interleavings, capacity-eviction order with
LRU refresh-on-hit, and the untagged mode's ASID-blind shootdowns.
"""

import pytest

from repro.hw.memory import PAGE_SHIFT
from repro.hw.paging import PagePerm
from repro.hw.tlb import TLB

PAGE = 1 << PAGE_SHIFT
PERM = PagePerm.RW


@pytest.mark.parametrize("tagged", [False, True])
def test_flush_shootdown_interleavings_match(tagged):
    """Hand-picked flush/shootdown interleaving, both modes: every
    lookup matches the answer its mode implies, and a per-ASID
    shootdown keeps the other ASID's entry only when tagged."""
    tlb = TLB(entries=16, ways=4, tagged=tagged)
    tlb.insert(0 * PAGE, 1, 100, PERM)
    tlb.insert(1 * PAGE, 1, 101, PERM)
    tlb.insert(1 * PAGE, 2, 201, PERM)      # same vpn, other ASID
    # Untagged, the second insert overwrote the ASID-blind entry.
    assert tlb.lookup(1 * PAGE, 1) == ((101 if tagged else 201), PERM)
    assert tlb.lookup(1 * PAGE, 2) == (201, PERM)
    tlb.invalidate(1 * PAGE, 2)             # shootdown one ASID
    # Tagged: ASID 1's entry survives; untagged: gone.
    assert tlb.lookup(1 * PAGE, 1) == ((101, PERM) if tagged else None)
    assert tlb.lookup(1 * PAGE, 2) is None
    tlb.flush_asid(1)                       # tagged: partial; untagged: full
    assert tlb.lookup(0 * PAGE, 1) is None
    assert tlb.lookup(1 * PAGE, 2) is None
    tlb.insert(2 * PAGE, 3, 302, PERM)
    tlb.flush_all()
    assert tlb.lookup(2 * PAGE, 3) is None
    hits = 3 if tagged else 2
    assert (tlb.stats.hits, tlb.stats.misses, tlb.stats.flushes) == (
        hits, 7 - hits, 2)


def test_untagged_mode_is_asid_blind():
    """Untagged: inserts and shootdowns ignore the ASID argument."""
    tlb = TLB(tagged=False)
    tlb.insert(4 * PAGE, 7, 40, PERM)
    assert tlb.lookup(4 * PAGE, 9) == (40, PERM)   # other ASID hits
    tlb.invalidate(4 * PAGE, 3)                    # any ASID evicts
    assert tlb.lookup(4 * PAGE, 7) is None
    # flush_asid degenerates to a full flush.
    tlb.insert(5 * PAGE, 1, 50, PERM)
    tlb.flush_asid(2)
    assert tlb.lookup(5 * PAGE, 1) is None
    assert tlb.stats.flushes == 1


def test_tagged_flush_asid_is_selective():
    """Tagged: flush_asid drops exactly that ASID's translations."""
    tlb = TLB(tagged=True)
    tlb.insert(0 * PAGE, 1, 10, PERM)
    tlb.insert(1 * PAGE, 2, 21, PERM)
    tlb.flush_asid(1)
    assert tlb.lookup(0 * PAGE, 1) is None
    assert tlb.lookup(1 * PAGE, 2) == (21, PERM)
    assert tlb.stats.flushes == 1


def test_capacity_eviction_is_lru():
    """A full set evicts its oldest way; a hit refreshes recency and
    redirects the eviction to the new oldest entry."""
    tlb = TLB(entries=4, ways=2, tagged=False)   # 2 sets of 2 ways
    stride = tlb.sets * PAGE                     # same-set conflicts
    a, b, c = 0 * stride, 1 * stride, 2 * stride
    tlb.insert(a, 0, 1, PERM)
    tlb.insert(b, 0, 2, PERM)
    tlb.insert(c, 0, 3, PERM)                    # evicts a (oldest)
    assert tlb.lookup(a, 0) is None
    assert tlb.lookup(b, 0) == (2, PERM)
    assert tlb.lookup(c, 0) == (3, PERM)
    # The hits above refreshed b then c, so b is now the oldest way.
    d = 3 * stride
    tlb.insert(d, 0, 4, PERM)
    assert tlb.lookup(b, 0) is None
    assert tlb.lookup(c, 0) == (3, PERM)
    # Re-inserting an existing key refreshes it rather than duplicating.
    tlb.insert(c, 0, 5, PERM)
    tlb.insert(a, 0, 1, PERM)                    # evicts d, not c
    assert tlb.lookup(d, 0) is None
    assert tlb.lookup(c, 0) == (5, PERM)


def test_stats_surface():
    """The stat surface exposes the derived readings."""
    tlb = TLB(entries=8, ways=2)
    assert tlb.stats.hit_rate == 0.0
    tlb.insert(0, 0, 9, PERM)
    tlb.lookup(0, 0)
    tlb.lookup(PAGE, 0)
    assert (tlb.stats.hits, tlb.stats.misses) == (1, 1)
    assert tlb.stats.accesses == 2
    assert tlb.stats.hit_rate == 0.5
