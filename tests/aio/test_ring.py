"""XPCRing: layout, memory-resident indices, capacity, cycle charges."""

import pytest

from repro.aio import CQE, SQE_ERR, SQE_OK, XPCRing, XPCRingFullError
from repro.aio.ring import HDR_BYTES, decode_meta, encode_meta
from repro.hw.machine import Machine
from repro.kernel.kernel import BaseKernel
from repro.params import DEFAULT_PARAMS
from repro.verify import check_ring_invariants
from repro.xpc.errors import XPCError
from repro.xpc.relayseg import SegReg
from tests.aio.conftest import AioWorld


def make_ring(entries=4, seg_bytes=8192, params=None):
    machine = Machine(cores=1, mem_bytes=64 * 1024 * 1024, params=params)
    kernel = BaseKernel(machine)
    proc = kernel.create_process("p")
    seg, _slot = kernel.create_relay_seg(machine.core0, proc, seg_bytes)
    ring = XPCRing.format(machine.core0, machine.memory, seg,
                          entries=entries)
    return machine, kernel, seg, ring


class TestLayout:
    def test_format_writes_header_to_memory(self):
        machine, kernel, seg, ring = make_ring()
        # A fresh attach over the same bytes reads the same geometry.
        view = XPCRing.attach(machine.core0, machine.memory,
                              SegReg.for_segment(seg))
        assert view.entries == ring.entries
        assert view.peek_indices() == ring.peek_indices()

    def test_attach_rejects_unformatted_memory(self):
        machine, kernel, seg, ring = make_ring()
        other, _ = kernel.create_relay_seg(
            machine.core0, kernel.create_process("q"), 8192)
        with pytest.raises(XPCError):
            XPCRing.attach(machine.core0, machine.memory,
                           SegReg.for_segment(other))

    def test_too_small_segment_rejected(self):
        machine, kernel, seg, _ = make_ring()
        small, _ = kernel.create_relay_seg(
            machine.core0, kernel.create_process("q"), 4096)
        with pytest.raises(ValueError):
            XPCRing.format(machine.core0, machine.memory, small,
                           entries=512)

    def test_meta_codec_roundtrip(self):
        meta = ("read", "/a/b", 0, 4096)
        assert decode_meta(encode_meta(meta)) == meta


class TestQueues:
    def test_sqe_roundtrip_through_memory(self):
        machine, kernel, seg, ring = make_ring()
        core = machine.core0
        seq = ring.push_sqe(core, ("op", 7), b"hello", reply_capacity=16)
        assert seq == 0
        view = XPCRing.attach(core, machine.memory,
                              SegReg.for_segment(seg))
        sqe = view.pop_sqe(core)
        assert view.read_meta(sqe) == ("op", 7)
        assert view.read_bytes(sqe.data_off, sqe.data_len) == b"hello"
        assert sqe.slot_len >= 16

    def test_cqe_roundtrip_and_indices(self):
        machine, kernel, seg, ring = make_ring()
        core = machine.core0
        for i in range(3):
            ring.push_sqe(core, ("op", i), bytes([i]) * 8)
        assert ring.peek_indices()["sq_tail"] == 3
        for _ in range(3):
            sqe = ring.pop_sqe(core)
            ring.push_cqe(core, sqe.seq, SQE_OK, ("ok", sqe.seq),
                          sqe.data_off, sqe.data_len)
        assert ring.pop_sqe(core) is None
        seen = []
        while True:
            cqe = ring.pop_cqe(core)
            if cqe is None:
                break
            assert cqe.status == SQE_OK
            assert ring.read_reply_meta(cqe) == ("ok", cqe.seq)
            seen.append(cqe.seq)
        assert seen == [0, 1, 2]
        idx = ring.peek_indices()
        assert idx["sq_head"] == idx["sq_tail"] == 3
        assert idx["cq_head"] == idx["cq_tail"] == 3

    def test_indices_are_monotonic_across_wrap(self):
        machine, kernel, seg, ring = make_ring(entries=2)
        core = machine.core0
        for round_no in range(5):
            seq = ring.push_sqe(core, ("r", round_no), b"x")
            sqe = ring.pop_sqe(core)
            ring.push_cqe(core, sqe.seq, SQE_OK, (), sqe.data_off, 0)
            assert ring.pop_cqe(core).seq == seq
        # 5 one-deep rounds through a 2-entry ring: indices never wrap.
        assert ring.peek_indices()["sq_tail"] == 5
        assert ring.next_seq == 5


class TestCapacity:
    def test_full_ring_refuses(self):
        machine, kernel, seg, ring = make_ring(entries=2)
        core = machine.core0
        ring.push_sqe(core, ("a",))
        ring.push_sqe(core, ("b",))
        with pytest.raises(XPCRingFullError):
            ring.push_sqe(core, ("c",))

    def test_slot_frees_only_after_harvest(self):
        # Consuming the SQE is not enough — the CQE slot is still owed.
        machine, kernel, seg, ring = make_ring(entries=2)
        core = machine.core0
        ring.push_sqe(core, ("a",))
        ring.push_sqe(core, ("b",))
        sqe = ring.pop_sqe(core)
        ring.push_cqe(core, sqe.seq, SQE_OK, (), sqe.data_off, 0)
        with pytest.raises(XPCRingFullError):
            ring.push_sqe(core, ("c",))
        ring.pop_cqe(core)
        ring.push_sqe(core, ("c",))   # harvested: slot reusable

    def test_arena_exhaustion(self):
        machine, kernel, seg, ring = make_ring(entries=64,
                                               seg_bytes=8192)
        core = machine.core0
        with pytest.raises(XPCRingFullError) as exc_info:
            for i in range(64):
                ring.push_sqe(core, ("big", i), b"z" * 1024)
        assert "arena" in str(exc_info.value)

    def test_refused_push_leaves_header_unchanged(self):
        # The meta still fits but the data slot does not: the refusal
        # must not keep the arena bytes already taken for the meta.
        machine, kernel, seg, ring = make_ring(entries=8, seg_bytes=8192)
        core = machine.core0
        ring.push_sqe(core, ("fill",), b"f" * 1024)
        before = ring.peek_indices()
        cycles = core.cycles
        free = seg.length - before["arena_cursor"]
        with pytest.raises(XPCRingFullError, match="arena"):
            ring.push_sqe(core, ("big",), b"z" * free)
        assert ring.peek_indices() == before
        assert core.cycles == cycles

    def test_reset_rewinds_arena(self):
        machine, kernel, seg, ring = make_ring()
        core = machine.core0
        ring.push_sqe(core, ("a",), b"q" * 64)
        with pytest.raises(XPCError):
            ring.reset(core)            # in flight: refused
        sqe = ring.pop_sqe(core)
        ring.push_cqe(core, sqe.seq, SQE_OK, (), sqe.data_off, 0)
        with pytest.raises(XPCError):
            ring.reset(core)            # unharvested CQE: refused
        ring.pop_cqe(core)
        cursor_before = ring.arena_cursor
        ring.reset(core)
        assert ring.arena_cursor < cursor_before


def record_accesses(monkeypatch, mem):
    """Log every ``(kind, pa, nbytes)`` access *mem* serves."""
    log = []
    read, write = mem.read, mem.write

    def counted_read(pa, n):
        log.append(("read", pa, n))
        return read(pa, n)

    def counted_write(pa, data):
        log.append(("write", pa, len(data)))
        write(pa, data)

    monkeypatch.setattr(mem, "read", counted_read)
    monkeypatch.setattr(mem, "write", counted_write)
    return log


class TestIndexBlockAccess:
    """Each ring operation reads the 24-byte index block once and
    writes it back at most once; nothing else touches the header."""

    def header_accesses(self, log, ring, op):
        log.clear()
        result = op()
        hits = [a for a in log
                if ring.pa_base <= a[1] < ring.pa_base + HDR_BYTES]
        return result, hits

    def test_each_op_reads_the_block_once_and_writes_it_at_most_once(
            self, monkeypatch):
        machine, kernel, seg, ring = make_ring()
        core = machine.core0
        log = record_accesses(monkeypatch, machine.memory)
        block = ring.pa_base + 24
        read_once = [("read", block, 24)]
        read_write = read_once + [("write", block, 24)]

        seq, hits = self.header_accesses(
            log, ring, lambda: ring.push_sqe(core, ("op", 1), b"data"))
        assert hits == read_write
        sqe, hits = self.header_accesses(log, ring,
                                         lambda: ring.pop_sqe(core))
        assert sqe.seq == seq and hits == read_write
        _, hits = self.header_accesses(
            log, ring, lambda: ring.push_cqe(core, seq, SQE_OK, ("ok",),
                                             sqe.data_off, 4))
        assert hits == read_write
        cqe, hits = self.header_accesses(log, ring,
                                         lambda: ring.pop_cqe(core))
        assert cqe.seq == seq and hits == read_write
        # Empty queues: one read, no write.
        for pop in (ring.pop_sqe, ring.pop_cqe):
            none, hits = self.header_accesses(log, ring,
                                              lambda: pop(core))
            assert none is None and hits == read_once
        _, hits = self.header_accesses(log, ring,
                                       lambda: ring.reset(core))
        assert hits == read_write
        _, hits = self.header_accesses(log, ring, ring.peek_indices)
        assert hits == read_once

    def test_refused_push_reads_once_and_writes_nothing(self, monkeypatch):
        machine, kernel, seg, ring = make_ring(entries=1)
        core = machine.core0
        ring.push_sqe(core, ("a",))
        log = record_accesses(monkeypatch, machine.memory)
        with pytest.raises(XPCRingFullError):
            ring.push_sqe(core, ("b",), b"x")
        assert log == [("read", ring.pa_base + 24, 24)]

    def test_client_and_attached_view_see_each_others_updates(self):
        machine, kernel, seg, client = make_ring(entries=4)
        core = machine.core0
        worker = XPCRing.attach(core, machine.memory,
                                SegReg.for_segment(seg))
        # Interleave so that every whole-block write lands between two
        # operations of the other side: a stale copy would roll back
        # the other side's index.
        client.push_sqe(core, ("op", 0), b"a")
        client.push_sqe(core, ("op", 1), b"b")
        assert worker.peek_indices() == client.peek_indices()
        assert worker.pop_sqe(core).seq == 0
        assert client.sq_head == 1
        client.push_sqe(core, ("op", 2), b"c")
        assert worker.sq_head == 1 and worker.sq_tail == 3
        sqe = worker.pop_sqe(core)
        assert worker.read_meta(sqe) == ("op", 1)
        worker.push_cqe(core, sqe.seq, SQE_OK, ("ok", 1), sqe.data_off, 1)
        assert client.cq_tail == 1
        cqe = client.pop_cqe(core)
        assert cqe.seq == 1 and client.read_reply_meta(cqe) == ("ok", 1)
        assert worker.cq_head == 1
        sqe = worker.pop_sqe(core)
        worker.push_cqe(core, sqe.seq, SQE_OK, (), sqe.data_off, 0)
        assert client.pop_cqe(core).seq == 2
        idx = worker.peek_indices()
        assert idx == client.peek_indices()
        assert (idx["sq_head"], idx["sq_tail"], idx["cq_head"],
                idx["cq_tail"], idx["next_seq"]) == (3, 3, 2, 2, 3)


class TestCycleAccounting:
    def test_push_sqe_charges_op_plus_fill(self):
        params = DEFAULT_PARAMS.clone(aio_sqe_op=100)
        machine, kernel, seg, ring = make_ring(params=params)
        core = machine.core0
        payload = b"p" * 200
        before = core.cycles
        ring.push_sqe(core, ("op",), payload)
        fill = len(encode_meta(("op",))) + len(payload)
        assert core.cycles - before == 100 + int(
            fill * params.relay_fill_per_byte)

    def test_peeks_are_uncharged(self):
        machine, kernel, seg, ring = make_ring()
        core = machine.core0
        ring.push_sqe(core, ("a",), b"x")
        before = core.cycles
        ring.peek_indices()
        ring.peek_cqes()
        ring.outstanding
        ring.space()
        assert core.cycles == before

    def test_invariants_hold_through_a_full_cycle(self):
        machine, kernel, seg, ring = make_ring()
        core = machine.core0
        assert check_ring_invariants(ring) == []
        for i in range(3):
            ring.push_sqe(core, ("op", i), b"d")
        assert check_ring_invariants(ring) == []
        for _ in range(3):
            sqe = ring.pop_sqe(core)
            ring.push_cqe(core, sqe.seq, SQE_ERR, ("bad",),
                          sqe.data_off, 0)
            assert check_ring_invariants(ring) == []
        while ring.pop_cqe(core):
            pass
        assert check_ring_invariants(ring) == []


class TestPeeksStayUnchargedRegression:
    """The uncharged observer surfaces (`peek_indices`, `peek_cqes`)
    must never advance the simulated clock — not on a bare ring and
    not at any phase of live batched traffic, where the temptation to
    reuse a charging accessor is strongest."""

    def test_peeks_never_move_the_clock_under_live_traffic(self):
        world = AioWorld(entries=8, max_batch=8)
        core, batcher = world.core, world.batcher

        def assert_uncharged():
            before = core.cycles
            for _ in range(3):
                batcher.ring.peek_indices()
                batcher.ring.peek_cqes()
            assert core.cycles == before

        assert_uncharged()                       # empty, freshly formatted
        futures = [batcher.submit(("req", i), bytes([i]) * 8)
                   for i in range(5)]
        assert_uncharged()                       # SQEs staged, none served
        batcher.flush()
        assert_uncharged()                       # served + harvested
        for i, future in enumerate(futures):
            meta, data = future.result()
            assert data == bytes(reversed(bytes([i]) * 8))
        assert_uncharged()                       # results consumed
