"""The benchmark's workloads, each built only through public constructors.

A workload is run as a sequence of *rounds*.  One round builds the
system from scratch (its set-up), drives a fixed, seeded amount of work
through it (the timed part), checks the outputs, and returns a
:class:`Round`.  Because every round of one seed is the same simulated
run, its simulated metrics and fingerprint must repeat exactly from
round to round; the runner checks that.

``probe`` is ``None`` in an end-to-end run.  In a traced run it is a
:class:`spans.Probe`: the round brackets its timed part with
``probe.ops_begin()``/``probe.ops_end()`` and publishes the current
request or op id in ``probe.op_id``.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.apps.sqlite.db import Database
from repro.apps.ycsb import YCSBDriver
from repro.cluster import Cluster, KVShard, LoadGenerator
from repro.hw.machine import Machine
from repro.proptest import gen as proptest_gen
from repro.proptest import run_differential
from repro.sel4 import Sel4Kernel, Sel4XPCTransport
from repro.services.fs import build_fs_stack

#: cluster-kv: the N=4 capacity point of benchmarks/test_cluster_capacity.py
#: (below saturation).  32,768 requests per round is past the knee where
#: host throughput stops falling with run length (9.0k req/s at 4k-8k
#: requests, 7.4k-7.6k from 16k to 32k), and holds the seed-to-seed
#: spread of the simulated metrics near 1%.
CLUSTER_NODES = 4
CLUSTER_CORES = 3
CLUSTER_CLIENTS = 100_000
CLUSTER_KEYS = 2_048
CLUSTER_THETA = 0.99
CLUSTER_INTERVAL = 600.0
CLUSTER_REQUESTS = 32_768

#: ycsb-a: the record shape of the Figure 8 benchmark (4 fields of
#: 100 bytes), 1,000 records.  4,000 timed ops per round: p99 has 40
#: samples beyond it, and the read share (which sets the mean cost per
#: op) varies by well under 1% from seed to seed.
YCSB_RECORDS = 1_000
YCSB_FIELDS = 4
YCSB_FIELD_SIZE = 100
YCSB_OPS = 4_000
YCSB_MEM_BYTES = 512 * 1024 * 1024
YCSB_DISK_BLOCKS = 8_192

#: fuzz-fleet: programs generate(seed + i) for i < FUZZ_PROGRAMS, each
#: through the whole default executor fleet.
FUZZ_PROGRAMS = 120


@dataclass
class Round:
    """What one round measured and checked."""

    setup_s: float
    run_s: float
    #: Completed operations (the numerator of ops_per_s).
    ops: int
    attempted: int
    failed: int
    #: Simulated, deterministic metrics: equal on every round of a seed.
    sim: Dict[str, float]
    #: Sample count behind the simulated latency percentiles.
    samples: int
    #: Content hash of the round's simulated behaviour.
    fingerprint: str
    problems: List[str] = field(default_factory=list)


def percentile(ordered: List[int], p: float) -> int:
    """Nearest-rank percentile of a sorted list, the rule
    ``ClusterRunStats.percentile`` uses."""
    rank = min(len(ordered) - 1,
               max(0, int(round(p / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


def _begin(probe) -> None:
    if probe is not None:
        probe.ops_begin()


def _end(probe) -> None:
    if probe is not None:
        probe.ops_end()


# -- cluster-kv ----------------------------------------------------------
def cluster_kv(seed: int, probe=None) -> Round:
    t0 = time.perf_counter()
    cluster = Cluster(nodes=CLUSTER_NODES, cores_per_node=CLUSTER_CORES)
    cluster.serve("kv", KVShard)
    t1 = time.perf_counter()
    load = LoadGenerator(clients=CLUSTER_CLIENTS, keys=CLUSTER_KEYS,
                         mean_interval=CLUSTER_INTERVAL,
                         theta=CLUSTER_THETA, seed=seed)
    _begin(probe)
    stats = cluster.run("kv", load, CLUSTER_REQUESTS)
    _end(probe)
    t2 = time.perf_counter()

    problems = []
    if stats.completed + stats.failed != stats.requests:
        problems.append(f"cluster-kv: completed {stats.completed} + failed "
                        f"{stats.failed} != requests {stats.requests}")
    if stats.requests != CLUSTER_REQUESTS:
        problems.append(f"cluster-kv: {stats.requests} requests generated, "
                        f"{CLUSTER_REQUESTS} asked for")
    if not stats.latencies:
        problems.append("cluster-kv: no request completed")
        return Round(t1 - t0, t2 - t1, 0, stats.requests, stats.failed,
                     {}, 0, "", problems)
    sim = {
        "sim_p50_cycles": stats.percentile(50),
        "sim_p99_cycles": stats.percentile(99),
        "sim_cycles_per_op": stats.wall_cycles / stats.completed,
        "cluster.remote_share": stats.remote / stats.completed,
    }
    return Round(t1 - t0, t2 - t1, stats.completed, stats.requests,
                 stats.failed, sim, len(stats.latencies),
                 cluster.trace_hash(), problems)


# -- ycsb-a --------------------------------------------------------------
def ycsb_a(seed: int, probe=None) -> Round:
    t0 = time.perf_counter()
    machine = Machine(cores=2, mem_bytes=YCSB_MEM_BYTES)
    kernel = Sel4Kernel(machine)
    app = kernel.create_process("app")
    app_thread = kernel.create_thread(app)
    kernel.run_thread(machine.core0, app_thread)
    transport = Sel4XPCTransport(kernel, machine.core0, app_thread)
    _server, fs, _disk = build_fs_stack(transport, kernel,
                                        disk_blocks=YCSB_DISK_BLOCKS)
    db = Database(fs)
    driver = YCSBDriver(db, records=YCSB_RECORDS, seed=seed,
                        fields=YCSB_FIELDS, field_size=YCSB_FIELD_SIZE)
    driver.load()
    t1 = time.perf_counter()

    core = machine.core0
    reads: List[int] = []
    updates: List[int] = []
    missing = errors = 0
    problems: List[str] = []
    session = obs.ObsSession(profile=True) if (
        probe is not None and probe.profile) else None
    if session is not None:
        session.attach(machine, kernel)
    _begin(probe)
    with obs.active(session) if session is not None else nullcontext():
        for i in range(YCSB_OPS):
            if probe is not None:
                probe.op_id = i
            before = core.cycles
            try:
                stats = driver.run("A", ops=1)
            except Exception as exc:     # counted, reported, never hidden
                errors += 1
                if len(problems) < 5:
                    problems.append(f"ycsb-a: op {i} raised {exc!r}")
                continue
            cycles = core.cycles - before
            missing += stats.missing
            (reads if stats.reads else updates).append(cycles)
    _end(probe)
    t2 = time.perf_counter()
    if probe is not None:
        probe.op_id = None
        if session is not None:
            probe.sim_phases(session.profiler)

    if missing:
        problems.append(f"ycsb-a: {missing} reads found no record")
    unreadable = [i for i in range(YCSB_RECORDS)
                  if db.get(driver.table, driver.key_for(i)) is None]
    if unreadable:
        problems.append(f"ycsb-a: {len(unreadable)} loaded keys unreadable "
                        f"at the end (first {unreadable[0]})")
    if not reads or not updates:
        problems.append("ycsb-a: the op mix lacks reads or updates")
        return Round(t1 - t0, t2 - t1, 0, YCSB_OPS, missing + errors,
                     {}, 0, "", problems)

    reads.sort()
    updates.sort()
    every = sorted(reads + updates)
    read_p50 = percentile(reads, 50)
    update_p50 = percentile(updates, 50)
    sim = {
        # Workload A is a 50/50 mix of two cost classes that do not
        # overlap (reads ~40k, updates ~150k cycles), so the median of
        # the mix jumps between the classes from seed to seed.  YCSB
        # reports latency per op type; the end-to-end median is the
        # mix-weighted (0.5/0.5) mean of the two per-type medians.
        "sim_p50_cycles": (read_p50 + update_p50) / 2,
        "sim_p99_cycles": percentile(every, 99),
        "sim_cycles_per_op": sum(every) / len(every),
        "apps.sqlite_get.sim_p50_cycles": read_p50,
        "apps.sqlite_update.sim_p50_cycles": update_p50,
    }
    digest = hashlib.sha256(
        repr((reads, updates, core.cycles)).encode()).hexdigest()
    return Round(t1 - t0, t2 - t1, len(every), YCSB_OPS, missing + errors,
                 sim, len(every), digest, problems)


# -- fuzz-fleet ----------------------------------------------------------
def fuzz_fleet(seed: int, probe=None) -> Round:
    t0 = time.perf_counter()
    programs = [(seed + i, proptest_gen.generate(seed + i))
                for i in range(FUZZ_PROGRAMS)]
    t1 = time.perf_counter()

    ops = failed = sim_cycles = 0
    op_cycles: List[int] = []
    fleet = set()
    problems: List[str] = []
    digest = hashlib.sha256()
    _begin(probe)
    for program_seed, program in programs:
        if probe is not None:
            probe.op_id = program_seed
        result = run_differential(program)
        checked = len(program.ops) * len(result.reports)
        ops += checked
        sim_cycles += result.sim_cycles
        for report in result.reports:
            fleet.add(report.executor)
            op_cycles.extend(report.op_cycles)
        digest.update(repr((program_seed, result.sim_cycles,
                            [r.op_cycles for r in result.reports])).encode())
        if not result.ok:
            failed += checked
            if len(problems) < 5:
                detail = (result.divergences[0].describe()
                          if result.divergences
                          else result.invariant_failures[0])
                problems.append(f"fuzz-fleet: program {program_seed} "
                                f"diverged: {detail}")
    _end(probe)
    t2 = time.perf_counter()
    if probe is not None:
        probe.op_id = None

    op_cycles.sort()
    sim = {
        "sim_p50_cycles": percentile(op_cycles, 50),
        "sim_p99_cycles": percentile(op_cycles, 99),
        "sim_cycles_per_op": sim_cycles / ops,
        "proptest.executors": len(fleet),
    }
    return Round(t1 - t0, t2 - t1, ops, ops, failed, sim, len(op_cycles),
                 digest.hexdigest(), problems)


#: Workloads that attach the cycle profiler when the probe asks for it.
PROFILED = {"ycsb-a"}

WORKLOADS: Dict[str, Callable[[int, Optional[object]], Round]] = {
    "cluster-kv": cluster_kv,
    "ycsb-a": ycsb_a,
    "fuzz-fleet": fuzz_fleet,
}
