"""Chaos suite: fs and net workloads (fig7 shapes) under seeded fault
plans, with the verify invariants asserted after every injected fault
and recovery.

Every run is deterministic: workload data comes from ``random.Random``
seeded alongside the fault plan, so a failing (transport, seed) pair
reproduces exactly.  On failure the injected-fault trace is written to
``chaos-traces/`` — CI uploads it, and ``FaultPlan.from_json`` replays
it.

``CHAOS_SEED=<n>`` narrows the seed list to one seed (the CI matrix
uses this to spread seeds across jobs).
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager
from pathlib import Path

import pytest

pytestmark = pytest.mark.chaos

import repro.faults as faults
from repro.faults import FaultPlan
from repro.services.fs import build_fs_stack
from repro.services.net import build_net_stack
from repro.verify import check_quiescent, check_recovery_invariants

SEEDS = ([int(os.environ["CHAOS_SEED"])] if os.environ.get("CHAOS_SEED")
         else [11, 23, 37, 41, 53])

TRACE_DIR = Path(__file__).resolve().parents[2] / "chaos-traces"


@contextmanager
def trace_artifact(name: str, plan: FaultPlan):
    """Dump the injected-fault trace if the block fails (CI artifact)."""
    try:
        yield
    except BaseException:
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"{name}.json"
        path.write_text(plan.trace_json())
        raise


def fs_plan(seed: int) -> FaultPlan:
    """Fail-stop faults for the FS workload: every injection either
    errors the op or is transparently recovered — never silent."""
    return (FaultPlan(seed)
            .arm("blockdev.io_error", probability=0.03, times=None)
            .arm("xpc.engine_cache.stale_entry", probability=0.05,
                 times=None)
            .arm("xpc.linkstack.overflow", probability=0.004, times=None)
            .arm("kernel.preempt", probability=0.01, times=None)
            .arm("xpc.relayseg.revoke", probability=0.02, times=3))


def net_plan(seed: int) -> FaultPlan:
    return (FaultPlan(seed)
            .arm("net.drop", probability=0.05, times=None)
            .arm("net.corrupt", probability=0.05, times=None, byte=9)
            .arm("kernel.preempt", probability=0.01, times=None))


def assert_invariants(kernel, client_thread):
    violations = check_recovery_invariants(kernel)
    violations += check_quiescent(kernel, client_thread)
    assert not violations, "\n".join(str(v) for v in violations)


class InvariantWatch:
    """Assert the verify invariants after every op that injected."""

    def __init__(self, kernel, client_thread, plan):
        self.kernel = kernel
        self.client_thread = client_thread
        self.plan = plan
        self.seen = 0
        self.checked = 0

    def after_op(self):
        if len(self.plan.trace) > self.seen:
            self.seen = len(self.plan.trace)
            assert_invariants(self.kernel, self.client_thread)
            self.checked += 1


def run_fs_workload(kernel, transport, client_thread,
                    plan: FaultPlan, seed: int):
    """A fig7(a)/(b)-shaped FS workload driven under *plan*.

    Ops may fail (fail-stop injections surface as exceptions); a failed
    op resyncs its mirror entry from the file system's actual state —
    with injection suspended, so the resync read itself is clean.
    """
    server, fs, disk = build_fs_stack(transport, kernel,
                                      disk_blocks=4096)
    rng = random.Random(seed * 7919)
    file_bytes = 64 * 1024
    mirror = bytearray(rng.randbytes(file_bytes))
    fs.create("/data")
    fs.write("/data", bytes(mirror))
    watch = InvariantWatch(kernel, client_thread, plan)
    failures = 0
    with faults.active(plan):
        for opno in range(60):
            buf = rng.choice([2048, 4096, 8192])
            off = rng.randrange(0, file_bytes - buf)
            try:
                if opno % 3 == 2:
                    chunk = rng.randbytes(buf)
                    fs.write("/data", chunk, off)
                    mirror[off:off + buf] = chunk
                else:
                    got = fs.read("/data", off, buf)
                    assert got == bytes(mirror[off:off + buf]), \
                        f"op {opno}: silent data divergence"
            except AssertionError:
                raise
            except Exception:
                # Fail-stop: the op surfaced an error.  Resync ground
                # truth (the op may have partially applied) with the
                # plan suspended so the resync read cannot inject.
                failures += 1
                faults.uninstall()
                try:
                    mirror = bytearray(fs.read("/data", 0, file_bytes))
                finally:
                    faults.install(plan)
            watch.after_op()
    # Post-chaos: the stack is healthy again with no plan armed.
    final = fs.read("/data", 0, file_bytes)
    assert final == bytes(mirror)
    fs.create("/after")
    fs.write("/after", b"recovered")
    assert fs.read("/after") == b"recovered"
    assert_invariants(kernel, client_thread)
    return failures, watch


class TestFSChaos:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fs_workload_survives_fault_plan(self, xpc_transport, seed):
        machine, kernel, transport, client_thread = xpc_transport
        plan = fs_plan(seed)
        with trace_artifact(f"fs-{transport.name}-{seed}", plan):
            failures, watch = run_fs_workload(
                kernel, transport, client_thread, plan, seed)
        # The plan actually injected something, and every injection was
        # followed by a full invariant sweep.
        assert plan.trace, "fault plan injected nothing"
        assert watch.checked > 0

    def test_fs_chaos_trace_is_deterministic(self):
        """Same transport + same seed ⇒ byte-identical fault trace."""
        from tests.conftest import TRANSPORT_SPECS, build_transport

        spec = next(s for s in TRANSPORT_SPECS if s[0] == "seL4-XPC")

        def one_run():
            machine, kernel, transport, ct = build_transport(spec)
            plan = fs_plan(SEEDS[0])
            run_fs_workload(kernel, transport, ct, plan, SEEDS[0])
            return plan.trace_json()

        assert one_run() == one_run()

    def test_fs_lost_writes_then_recovery(self, xpc_transport):
        """Silently lost block writes (a fail-silent device): the data
        may be stale, but after cache drop + log replay the stack is
        fully operable and fresh writes are durable."""
        machine, kernel, transport, client_thread = xpc_transport
        server, fs, disk = build_fs_stack(transport, kernel,
                                          disk_blocks=4096)
        fs.create("/a")
        fs.write("/a", b"committed state")
        plan = FaultPlan(SEEDS[0]).arm("blockdev.lost_write",
                                       probability=0.4, times=6)
        with trace_artifact("fs-lost-writes", plan), faults.active(plan):
            for i in range(8):
                fs.write("/a", bytes([0x41 + i]) * 4096)
        assert plan.trace, "no write was lost"
        # Reboot-style recovery: drop caches, replay the log.
        server.cache.invalidate()
        server.fs.log.recover()
        # The FS is operable going forward: fresh data round-trips.
        fs.create("/fresh")
        fs.write("/fresh", b"post-recovery payload")
        assert fs.read("/fresh") == b"post-recovery payload"
        assert_invariants(kernel, client_thread)


def run_net_workload(kernel, transport, client_thread,
                     plan: FaultPlan, seed: int):
    """A fig7(c)-shaped TCP echo workload driven under *plan*."""
    server, net, dev = build_net_stack(transport, kernel)
    rng = random.Random(seed * 104729)
    listener = net.socket()
    net.listen(listener, 80)
    client = net.socket()
    net.connect(client, 80)
    conn = net.accept(listener)
    watch = InvariantWatch(kernel, client_thread, plan)
    with faults.active(plan):
        for size in (256, 512, 1024, 2048):
            blob = rng.randbytes(size * 4)
            sent = 0
            while sent < len(blob):
                net.send(client, blob[sent:sent + size])
                sent += size
                watch.after_op()
            got = net.recv(conn, len(blob))
            for _ in range(400):
                if len(got) == len(blob):
                    break
                net.poll()          # retransmission timer
                got += net.recv(conn, len(blob) - len(got))
                watch.after_op()
            assert got == blob, f"TCP stream corrupted at size {size}"
    assert_invariants(kernel, client_thread)
    return server, watch


class TestNetChaos:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_net_workload_survives_fault_plan(self, xpc_transport, seed):
        machine, kernel, transport, client_thread = xpc_transport
        plan = net_plan(seed)
        with trace_artifact(f"net-{transport.name}-{seed}", plan):
            server, watch = run_net_workload(
                kernel, transport, client_thread, plan, seed)
        assert plan.trace, "fault plan injected nothing"
        assert watch.checked > 0
        # Corrupted frames never reach the application: the checksum
        # rejects them and retransmission fills the gap.
        corrupted = sum(e.point == "net.corrupt" for e in plan.trace)
        if corrupted:
            assert server.stack.frames_rejected >= 1
