"""Restore-under-chaos: every catalogued fault point round-trips.

For every point in :data:`repro.faults.points.CATALOGUE` we build a
world where the point actually fires (fig5 xcall traffic for the
xpc/kernel points, the fig7 service chains for the device points, a
ring-drain worker pool for the aio points, a two-node sharded KV
fabric for the cluster points), arm it deterministically (``nth=1``),
and assert the full snapshot story:

* the injection fired (the plan's trace is non-empty) and
  :class:`~repro.snap.PreFaultSnapper` captured the world on the brink
  of it;
* restoring the pre-run snapshot and re-running replays the *same*
  injections (mid-plan PRNG/hit-counter state lives in the graph) with
  byte-identical outcomes and final fingerprint;
* resuming from a mid-run Recorder checkpoint lands on the same final
  state — fault state round-trips through checkpoints too.

Recovery semantics themselves are the chaos suite's job; here the
contract is determinism across snapshot boundaries.
"""

import pytest

from repro.aio import XPCRingFullError
from repro.cluster import Cluster, KVShard, LoadGenerator
from repro.faults import FaultPlan
from repro.faults.points import CATALOGUE
from repro.hw.machine import Machine
from repro.ipc.xpc_transport import XPCTransport
from repro.kernel.kernel import BaseKernel
from repro.services.fs import build_fs_stack
from repro.snap import (PreFaultSnapper, Recorder, capture,
                        live_fingerprint, restore)
from repro.snap.scenarios import fig5_world, fig7_world
from repro.snap.world import SimWorld
from repro.xpc.engine import XPCConfig


class Guarded:
    """Run a scenario op, folding any raised fault-recovery error into
    the outcome so injected runs stay steppable and comparable."""

    def __init__(self, op):
        self.op = op

    def __call__(self, world):
        try:
            return ("ok", self.op(world))
        except Exception as exc:  # noqa: BLE001 - outcome, not failure
            return ("raised", type(exc).__name__)


# -- the aio world: a 2-worker ring-drain pool over the fs handler ----

class AioSubmit:
    """Queue one batched fs write; an injected ring-full refusal is
    drained and retried (the admission-control recovery)."""

    def __init__(self, index: int) -> None:
        self.index = index

    def __call__(self, world):
        data = bytes((self.index * 37 + i) % 256 for i in range(192))
        meta = ("write", "/aio", self.index * 192, 192)
        try:
            future = world.pool.submit(meta, data)
        except XPCRingFullError:
            world.pool.drain()
            future = world.pool.submit(meta, data)
        world.pending.append(future)
        return ("submitted", self.index)


class AioDrain:
    def __call__(self, world):
        done = world.pool.drain()
        results = []
        for future in world.pending:
            try:
                reply_meta, _reply = future.result()
                results.append(("ok",) + tuple(reply_meta))
            except Exception as exc:  # noqa: BLE001
                results.append(("raised", type(exc).__name__))
        world.pending = []
        return ("drained", done, tuple(results))


def _aio_world():
    machine = Machine(cores=4, mem_bytes=128 * 1024 * 1024)
    kernel = BaseKernel(machine)
    app_proc = kernel.create_process("app")
    app = kernel.create_thread(app_proc)
    kernel.run_thread(machine.core0, app)
    transport = XPCTransport(kernel, machine.core0, app)
    server, fs, _disk = build_fs_stack(transport, kernel,
                                       disk_blocks=1024)
    fs.create("/aio")
    fs.write("/aio", bytes(192 * 8))
    pool = server.serve_async(machine.cores[2:4], max_batch=8)
    world = SimWorld(machine=machine, kernel=kernel,
                     core=machine.core0, transport=transport,
                     fs=fs, fs_server=server, pool=pool, pending=[])
    ops = [AioSubmit(i) for i in range(6)] + [AioDrain()]
    ops += [AioSubmit(6 + i) for i in range(2)] + [AioDrain()]
    return world, ops


def _fig5_guarded():
    world, ops = fig5_world()
    return world, [Guarded(op) for op in ops]


def _fig5_cached():
    """fig5 with the engine cache enabled — the only configuration in
    which xcalls go through the cache lookup the fault targets."""
    world, ops = fig5_world(xpc_config=XPCConfig(engine_cache=True))
    return world, [Guarded(op) for op in ops]


def _fig7_guarded():
    world, ops = fig7_world(disk_blocks=256)
    return world, [Guarded(op) for op in ops]


# -- the cluster world: a 2-node sharded KV fabric under load ---------

class ClusterBatch:
    """Drive one seeded request batch through the sharded KV fabric.
    An injected node death or link partition surfaces as failed
    requests in the run stats, so the outcome folds recovery in."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def __call__(self, world):
        load = LoadGenerator(clients=500, keys=64, mean_interval=400.0,
                             seed=self.seed)
        stats = world.cluster.run("kv", load, 24, control_every=8)
        return ("batch", self.seed, stats.completed, stats.failed,
                stats.remote, stats.local, world.cluster.trace_hash())


def _cluster_world():
    cluster = Cluster(nodes=2, cores_per_node=2,
                      mem_bytes=16 * 1024 * 1024)
    cluster.serve("kv", KVShard)
    # Node 0 carries the world clock, so armed deaths take node 1 (the
    # catalogued action kwarg pins the victim deterministically).
    world = SimWorld(cluster=cluster,
                     core=cluster.nodes[0].frontend_core)
    ops = [ClusterBatch(seed) for seed in range(6)]
    return world, ops


#: point -> (world builder, extra action kwargs for arm()).
POINTS = {
    "xpc.engine_cache.stale_entry": (_fig5_cached, {}),
    "xpc.linkstack.overflow": (_fig5_guarded, {}),
    "xpc.callee_crash": (_fig5_guarded, {}),
    "xpc.callee_crash_before_xret": (_fig5_guarded, {}),
    "xpc.relayseg.revoke": (_fig5_guarded, {}),
    "kernel.preempt": (_fig5_guarded, {}),
    "blockdev.io_error": (_fig7_guarded, {}),
    "blockdev.lost_write": (_fig7_guarded, {}),
    "net.drop": (_fig7_guarded, {}),
    "net.corrupt": (_fig7_guarded, {"byte": 9}),
    "aio.ring_full": (_aio_world, {}),
    "aio.stale_head": (_aio_world, {}),
    "aio.worker_death": (_aio_world, {}),
    "cluster.node_death": (_cluster_world, {"node": 1}),
    "cluster.partition": (_cluster_world, {}),
}


def test_every_catalogued_point_is_covered():
    assert set(POINTS) == set(CATALOGUE)


@pytest.mark.parametrize("point", sorted(POINTS))
def test_restore_under_chaos(point):
    build, action = POINTS[point]
    world, ops = build()
    world.plan = FaultPlan(7).arm(point, nth=1, times=1, **action)
    snap0 = capture(world, op_index=0)

    with PreFaultSnapper(world) as snapper:
        recorder = Recorder(world, every_ops=2)
        recorder.run(ops)

    trace = [event.as_dict() for event in world.plan.trace]
    assert trace, f"{point} never fired in its scenario"
    assert any(event["point"] == point for event in trace)
    assert snapper.injections == len(trace)
    pre_points = [p for p, _action, _snap in snapper.snapshots]
    assert point in pre_points
    fp_straight = live_fingerprint(world)
    outcomes = list(world.outcomes)

    # Restore-S0: the plan state travels in the graph, so the rerun
    # injects the same faults at the same sites.
    rerun = restore(snap0)
    rerun.run(ops)
    assert rerun.outcomes == outcomes
    assert [event.as_dict() for event in rerun.plan.trace] == trace
    assert live_fingerprint(rerun) == fp_straight

    # Resume from a mid-run checkpoint: mid-plan hit counters and PRNG
    # round-trip through the snapshot too.
    mid = len(ops) // 2
    resumed = recorder.resume(mid)
    for op in recorder.ops[mid:]:
        resumed.step(op)
    assert resumed.outcomes == outcomes
    assert live_fingerprint(resumed) == fp_straight
