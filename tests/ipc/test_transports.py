"""The transport matrix: one service implementation, five systems.

These tests run on every transport the paper evaluates (seL4 one/two
copy, seL4-XPC, Zircon, Zircon-XPC) via the parametrized fixture, and
assert both functional equivalence and the performance *ordering* the
paper reports.
"""

import pytest

from repro.ipc.xpc_transport import XPCTransport
from tests.conftest import (
    TRANSPORT_SPECS, build_transport, make_server, register_echo,
)


class TestFunctional:
    def test_echo_roundtrip(self, any_transport):
        machine, kernel, transport, ct = any_transport
        sid = register_echo(kernel, transport)
        blob = bytes(range(256)) * 8
        meta, reply = transport.call(sid, ("tag", 7), blob,
                                     reply_capacity=len(blob))
        assert meta == ("ok", "tag", 7)
        assert reply == blob

    def test_warm_call_trap_count(self, any_transport):
        """The paper's headline claim: an XPC call never enters the
        kernel, while every baseline traps at least on request and
        reply."""
        machine, kernel, transport, ct = any_transport
        sid = register_echo(kernel, transport)
        transport.call(sid, (), b"warm")
        before = machine.core0.trap_count
        transport.call(sid, (), b"x")
        traps = machine.core0.trap_count - before
        if isinstance(transport, XPCTransport):
            assert traps == 0
        else:
            assert traps >= 2

    def test_empty_payload(self, any_transport):
        machine, kernel, transport, ct = any_transport
        sid = register_echo(kernel, transport)
        meta, reply = transport.call(sid, ("ping",))
        assert meta[0] == "ok"
        assert reply == b""

    def test_many_sizes(self, any_transport):
        machine, kernel, transport, ct = any_transport
        sid = register_echo(kernel, transport)
        for size in (1, 31, 32, 33, 120, 121, 4096, 16384):
            blob = (b"%d|" % size) * (size // 3 + 1)
            blob = blob[:size]
            _, reply = transport.call(sid, (), blob,
                                      reply_capacity=size)
            assert reply == blob, size

    def test_two_services_coexist(self, any_transport):
        machine, kernel, transport, ct = any_transport
        sp, st = make_server(kernel, "adder")

        def add(meta, payload):
            return (meta[0] + meta[1],), None

        sid_echo = register_echo(kernel, transport)
        sid_add = transport.register("adder", add, sp, st)
        assert transport.call(sid_add, (2, 5))[0] == (7,)
        assert transport.call(sid_echo, (), b"x")[1] == b"x"

    def test_lookup_by_name(self, any_transport):
        machine, kernel, transport, ct = any_transport
        sid = register_echo(kernel, transport, name="named-svc")
        assert transport.lookup("named-svc") == sid
        with pytest.raises(KeyError):
            transport.lookup("ghost")

    def test_unknown_sid(self, any_transport):
        machine, kernel, transport, ct = any_transport
        with pytest.raises(KeyError):
            transport.call(999, (), b"")

    def test_sequential_calls_accumulate_stats(self, any_transport):
        machine, kernel, transport, ct = any_transport
        sid = register_echo(kernel, transport)
        for _ in range(5):
            transport.call(sid, (), b"abcd")
        assert transport.call_count == 5
        assert transport.bytes_moved == 20


class TestNestedChains:
    """Server-calls-server (FS -> blockdev pattern) on every system."""

    def _build_chain(self, any_transport):
        machine, kernel, transport, ct = any_transport
        leaf_proc, leaf_thread = make_server(kernel, "leaf")

        def leaf(meta, payload):
            return ("leaf-ok",), payload.read().upper()

        leaf_sid = transport.register("leaf", leaf, leaf_proc,
                                      leaf_thread)
        mid_proc, mid_thread = make_server(kernel, "mid")
        transport.grant_to_thread(leaf_sid, mid_thread)

        def mid(meta, payload):
            data = payload.read()
            inner_meta, inner = transport.call(
                leaf_sid, ("from-mid",), data,
                reply_capacity=len(data))
            return ("mid-ok",) + inner_meta, inner + b"!"

        mid_sid = transport.register("mid", mid, mid_proc, mid_thread)
        return machine, kernel, transport, mid_sid

    def test_two_hop_chain(self, any_transport):
        machine, kernel, transport, mid_sid = self._build_chain(
            any_transport)
        meta, reply = transport.call(mid_sid, (), b"abc",
                                     reply_capacity=16)
        assert meta == ("mid-ok", "leaf-ok")
        assert reply == b"ABC!"

    def test_chain_repeatable(self, any_transport):
        machine, kernel, transport, mid_sid = self._build_chain(
            any_transport)
        for i in range(4):
            _, reply = transport.call(mid_sid, (), b"x%d" % i,
                                      reply_capacity=16)
            assert reply == b"X%d!" % i


class TestXPCSpecifics:
    def test_zero_copy_payload_is_the_same_phys_bytes(self,
                                                      xpc_transport):
        machine, kernel, transport, ct = xpc_transport
        seen = {}
        sp, st = make_server(kernel)

        def peek(meta, payload):
            seen["pa"] = payload._window.pa_base
            return (0,), None

        sid = transport.register("peek", peek, sp, st)
        transport.call(sid, (), b"hello zero copy")
        seg = transport._seg[0]
        assert seen["pa"] == seg.pa_base
        assert machine.memory.read(seg.pa_base, 15) == b"hello zero copy"

    def test_in_place_reply(self, xpc_transport):
        machine, kernel, transport, ct = xpc_transport
        sp, st = make_server(kernel)

        def inplace(meta, payload):
            payload.write(b"REPLY", 0)
            return (0,), 5

        sid = transport.register("inplace", inplace, sp, st)
        _, reply = transport.call(sid, (), b"xxxxx", reply_capacity=5)
        assert reply == b"REPLY"

    def test_window_slice_handover(self, xpc_transport):
        """§4.4 sliding window: a nested call sees only the masked
        slice of the caller's window."""
        machine, kernel, transport, ct = xpc_transport
        leaf_proc, leaf_thread = make_server(kernel, "leaf")
        seen = {}

        def leaf(meta, payload):
            seen["len"] = payload._window.length
            seen["data"] = payload.read(meta[0])
            return (0,), None

        leaf_sid = transport.register("leaf", leaf, leaf_proc,
                                      leaf_thread)
        mid_proc, mid_thread = make_server(kernel, "mid")
        transport.grant_to_thread(leaf_sid, mid_thread)

        def mid(meta, payload):
            transport.call(leaf_sid, (4,), b"",
                           window_slice=(4096, 4096))
            return (0,), None

        mid_sid = transport.register("mid", mid, mid_proc, mid_thread)
        blob = bytearray(8192)
        blob[4096:4100] = b"DEEP"
        transport.call(mid_sid, (), bytes(blob), reply_capacity=8192)
        assert seen["len"] == 4096
        assert seen["data"] == b"DEEP"

    def test_segment_grows_on_demand(self, xpc_transport):
        machine, kernel, transport, ct = xpc_transport
        sid = None
        sp, st = make_server(kernel)
        sid = transport.register("echo2",
                                 lambda m, p: ((0,), p.read()), sp, st)
        transport.call(sid, (), b"x" * 1024, reply_capacity=1024)
        small = transport._seg[0].length
        transport.call(sid, (), b"y" * (small + 4096),
                       reply_capacity=small + 4096)
        assert transport._seg[0].length > small


class TestPerformanceOrdering:
    """The latency ordering the whole paper is about."""

    def _roundtrip_cycles(self, spec, nbytes):
        machine, kernel, transport, ct = build_transport(spec)
        sid = register_echo(kernel, transport)
        blob = b"p" * nbytes
        transport.call(sid, (), blob, reply_capacity=nbytes)  # warm up
        before = machine.core0.cycles
        transport.call(sid, (), blob, reply_capacity=nbytes)
        return machine.core0.cycles - before

    @pytest.mark.parametrize("nbytes", [0, 4096])
    def test_xpc_beats_everything(self, nbytes):
        cycles = {spec[0]: self._roundtrip_cycles(spec, nbytes)
                  for spec in TRANSPORT_SPECS}
        assert cycles["seL4-XPC"] < cycles["seL4-onecopy"]
        assert cycles["seL4-onecopy"] <= cycles["seL4-twocopy"]
        assert cycles["seL4-twocopy"] < cycles["Zircon"]
        assert cycles["Zircon-XPC"] < cycles["Zircon"]

    def test_paper_speedup_bands_smallmsg(self):
        """seL4-XPC gains ~5x+ on small messages; Zircon ~40x+."""
        sel4 = self._roundtrip_cycles(TRANSPORT_SPECS[0], 0)
        sel4_xpc = self._roundtrip_cycles(TRANSPORT_SPECS[2], 0)
        zircon = self._roundtrip_cycles(TRANSPORT_SPECS[3], 0)
        zircon_xpc = self._roundtrip_cycles(TRANSPORT_SPECS[4], 0)
        assert sel4 / sel4_xpc > 4
        assert zircon / zircon_xpc > 30
