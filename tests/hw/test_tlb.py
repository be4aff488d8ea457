"""The TLB charge policy's own state: the mode bit and flush count."""

from repro.hw.tlb import TLB


def test_flush_all():
    tlb = TLB()
    assert not tlb.tagged
    tlb.flush_all()
    assert tlb.stats.flushes == 1
    assert (tlb.stats.hits, tlb.stats.misses) == (0, 0)
