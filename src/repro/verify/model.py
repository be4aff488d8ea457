"""Exhaustive bounded model checker for the XPC security protocol.

The checker enumerates the reachable state space of a small but real
world — a :class:`repro.hw.machine.Machine` with one core per client
thread, a :class:`repro.kernel.kernel.BaseKernel`, M registered
x-entries (each with its own server thread/address space), and relay
segments parked in the client's seg-list — under every interleaving of
the protocol events

    xcall · xret · swapseg · grant · revoke · (optionally seg-mask)

issued by N threads.  Exploration is breadth-first over *canonical state
fingerprints*, so the search is exhaustive over the reachable state
graph (not merely over bounded traces) and terminates: the only bound is
``max_call_depth``, which caps link-stack growth exactly like the 8 KB
per-thread stack of §4.1 does in hardware.

After every event the live world is compared against an independently
maintained *shadow model* using the invariants in
:mod:`repro.verify.invariants`.  Because the search is BFS, the first
violation found is reached by a **minimal** event sequence; the
counterexample report replays it and prints one line per event — the
acting core's cycle stamp and its engine's XPC registers afterwards —
so the offending timeline is visible event by event without relying on
the code under test to report what it did.

States are revisited by replaying their witness path against a fresh
world (the simulator has no snapshot/undo), which keeps the checker
honest: every explored edge executes the real engine microcode.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.hw.machine import Machine
from repro.kernel.kernel import BaseKernel
from repro.params import DEFAULT_PARAMS
from repro.verify import invariants as inv
from repro.verify.invariants import InvariantViolation
from repro.xpc.errors import InvalidXCallCapError, XPCError
from repro.xpc.relayseg import SegMask

#: An event is a plain tuple: ("xcall", tid, eid), ("xret", tid),
#: ("swapseg", tid, slot), ("grant", tid, eid), ("revoke", tid, eid),
#: ("mask", tid, numer_16ths).
Op = Tuple


@dataclass
class ModelConfig:
    """The bounded configuration to explore (defaults: the 2×2 space)."""

    threads: int = 2                   # client threads, one core each
    entries: int = 2                   # x-entries, one server thread each
    segments: int = 1                  # relay segments parked at boot
    swap_slots: Tuple[int, ...] = (0, 1)   # seg-list slots swapseg targets
    max_call_depth: int = 2            # link-stack bound (finite space)
    seg_bytes: int = 4096
    mem_bytes: int = 1 << 20
    #: (tid, eid) capability grants installed at boot.
    initial_grants: Tuple[Tuple[int, int], ...] = ((0, 0), (0, 1), (1, 0))
    #: (tid, eid) pairs offered as grant / revoke events during the run.
    grant_ops: Tuple[Tuple[int, int], ...] = ((1, 1),)
    revoke_ops: Tuple[Tuple[int, int], ...] = ((1, 0),)
    #: seg-mask writes offered as events (numerator of window/16 kept).
    mask_ops: Tuple[int, ...] = ()
    max_states: int = 200_000          # explosion guard
    #: Test hook: mutate the freshly built world (e.g. seed a bug).
    world_mutator: Optional[Callable[["World"], None]] = None


@dataclass
class World:
    """One freshly built universe the events run against."""

    config: ModelConfig
    machine: Machine
    kernel: BaseKernel
    cores: list
    engines: list
    threads: list                      # client threads, index = tid
    client_process: object
    server_processes: list             # index = logical entry index
    server_threads: list
    entry_ids: List[int]               # logical entry index -> table id
    seg_lists: list                    # all seg-lists, stable order

    def thread_index(self, thread) -> Optional[int]:
        for i, t in enumerate(self.threads):
            if t is thread:
                return i
        return None

    def seg_list_index(self, seg_list) -> int:
        for i, sl in enumerate(self.seg_lists):
            if sl is seg_list:
                return i
        return -1


@dataclass
class _Frame:
    logical_entry: int                 # which x-entry was called
    saved_key: str                     # bitmap key to restore on xret


class Shadow:
    """Independent re-derivation of the architectural state from the
    event sequence alone (never reads the engine to update itself)."""

    def __init__(self, world: World) -> None:
        cfg = world.config
        self.world = world
        self.bitmap_keys = ([f"home{t}" for t in range(cfg.threads)]
                            + [f"entry{e}" for e in range(cfg.entries)])
        self.bitmap_objects = {}
        for t in range(cfg.threads):
            self.bitmap_objects[f"home{t}"] = world.threads[t].home_caps
        for e in range(cfg.entries):
            self.bitmap_objects[f"entry{e}"] = \
                world.server_threads[e].home_caps
        #: key -> set of *logical* entry indices granted.
        self.bits: Dict[str, set] = {k: set() for k in self.bitmap_keys}
        for tid, eid in cfg.initial_grants:
            self.bits[f"home{tid}"].add(eid)
        self.stacks: List[List[_Frame]] = [[] for _ in range(cfg.threads)]

    def current_key(self, tid: int) -> str:
        stack = self.stacks[tid]
        return (f"entry{stack[-1].logical_entry}" if stack
                else f"home{tid}")

    def has_cap(self, tid: int, eid: int) -> bool:
        return eid in self.bits[self.current_key(tid)]


def op_str(op: Op) -> str:
    kind, tid = op[0], op[1]
    if kind == "xcall":
        return f"t{tid}: xcall e{op[2]}"
    if kind == "xret":
        return f"t{tid}: xret"
    if kind == "swapseg":
        return f"t{tid}: swapseg slot{op[2]}"
    if kind == "grant":
        return f"kernel: grant e{op[2]} -> t{tid}"
    if kind == "revoke":
        return f"kernel: revoke e{op[2]} from t{tid}"
    if kind == "mask":
        return f"t{tid}: seg-mask {op[2]}/16 of window"
    return repr(op)


@dataclass(frozen=True)
class CounterExample:
    """A minimal event sequence that breaks an invariant."""

    path: Tuple[Op, ...]
    violations: Tuple[InvariantViolation, ...]
    trace_text: str

    def report(self) -> str:
        lines = ["invariant violation after minimal event sequence:"]
        lines += [f"  {i + 1}. {op_str(op)}"
                  for i, op in enumerate(self.path)]
        lines += [f"  -> {v}" for v in self.violations]
        if self.trace_text:
            lines.append("replay trace:")
            lines += ["  | " + line
                      for line in self.trace_text.splitlines()]
        return "\n".join(lines)


@dataclass
class ExploreResult:
    states: int
    transitions: int
    counterexamples: List[CounterExample] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


class ModelChecker:
    """BFS over the canonical state graph of one :class:`ModelConfig`."""

    def __init__(self, config: Optional[ModelConfig] = None) -> None:
        self.config = config or ModelConfig()
        # Large cache lines shrink the tag arrays the checker never
        # exercises; timing is irrelevant here, reachability is not.
        self._params = replace(DEFAULT_PARAMS, cache_line_bytes=4096)

    # ------------------------------------------------------------------
    # World construction and replay
    # ------------------------------------------------------------------
    def build_world(self) -> Tuple[World, Shadow]:
        cfg = self.config
        machine = Machine(cores=cfg.threads, mem_bytes=cfg.mem_bytes,
                          params=self._params, xpc=True)
        kernel = BaseKernel(machine, name="model-kernel")
        client = kernel.create_process("client")
        threads = [kernel.create_thread(client, f"t{i}")
                   for i in range(cfg.threads)]
        server_procs, server_threads, entry_ids = [], [], []
        for e in range(cfg.entries):
            proc = kernel.create_process(f"server{e}")
            sthread = kernel.create_thread(proc, f"s{e}")
            kernel.run_thread(machine.cores[0], sthread)
            entry = kernel.register_xentry(
                machine.cores[0], sthread, lambda *args: None)
            server_procs.append(proc)
            server_threads.append(sthread)
            entry_ids.append(entry.entry_id)
        for _ in range(cfg.segments):
            kernel.create_relay_seg(machine.cores[0], client, cfg.seg_bytes)
        for tid, eid in cfg.initial_grants:
            kernel.grant_xcall_cap(machine.cores[0], server_procs[eid],
                                   threads[tid], entry_ids[eid])
        for tid, thread in enumerate(threads):
            kernel.run_thread(machine.cores[tid], thread)
        world = World(
            config=cfg, machine=machine, kernel=kernel,
            cores=list(machine.cores), engines=list(machine.engines),
            threads=threads, client_process=client,
            server_processes=server_procs, server_threads=server_threads,
            entry_ids=entry_ids,
            seg_lists=[client.seg_list]
            + [p.seg_list for p in server_procs],
        )
        if cfg.world_mutator is not None:
            cfg.world_mutator(world)
        return world, Shadow(world)

    def replay(self, path: Sequence[Op]) -> Tuple[World, Shadow]:
        world, shadow = self.build_world()
        for op in path:
            self.apply_op(world, shadow, op)
        return world, shadow

    # ------------------------------------------------------------------
    # Event application + transition invariants
    # ------------------------------------------------------------------
    def apply_op(self, world: World, shadow: Shadow,
                 op: Op) -> List[InvariantViolation]:
        kind, tid = op[0], op[1]
        thread = world.threads[tid]
        engine = world.engines[tid]
        kernel = world.kernel
        violations: List[InvariantViolation] = []
        if kind == "xcall":
            eid = op[2]
            has_cap = shadow.has_cap(tid, eid)
            before = inv.window_tuple(thread.xpc.seg_reg)
            saved_key = shadow.current_key(tid)
            try:
                engine.xcall(world.entry_ids[eid])
            except InvalidXCallCapError:
                violations += inv.check_cap_gate(
                    thread.name, eid, has_cap, succeeded=False,
                    denied=True)
            except XPCError:
                pass
            else:
                shadow.stacks[tid].append(_Frame(eid, saved_key))
                violations += inv.check_cap_gate(
                    thread.name, eid, has_cap, succeeded=True,
                    denied=False)
                violations += inv.check_shrink(
                    thread.name, before,
                    inv.window_tuple(thread.xpc.seg_reg))
        elif kind == "xret":
            try:
                engine.xret()
            except XPCError:
                pass                    # empty chain / window-theft trap
            else:
                if shadow.stacks[tid]:
                    shadow.stacks[tid].pop()
                else:
                    violations.append(InvariantViolation(
                        "link-stack-lifo",
                        f"{thread.name}: xret succeeded on an empty "
                        f"call chain"))
        elif kind == "swapseg":
            try:
                engine.swapseg(op[2])
            except XPCError:
                pass                    # single-owner trap is correct
        elif kind == "grant":
            eid = op[2]
            kernel.grant_xcall_cap(world.cores[tid],
                                   world.server_processes[eid],
                                   thread, world.entry_ids[eid])
            shadow.bits[f"home{tid}"].add(eid)
        elif kind == "revoke":
            eid = op[2]
            kernel.revoke_xcall_cap(thread, world.entry_ids[eid])
            shadow.bits[f"home{tid}"].discard(eid)
        elif kind == "mask":
            window = thread.xpc.seg_reg
            length = (window.length * op[2]) // 16 if window.valid else 0
            try:
                engine.write_seg_mask(SegMask(0, length))
            except XPCError:
                pass
        else:
            raise ValueError(f"unknown model op {op!r}")
        violations += inv.check_state(world, shadow)
        return violations

    # ------------------------------------------------------------------
    # Canonical state
    # ------------------------------------------------------------------
    def fingerprint(self, world: World, shadow: Shadow) -> Tuple:
        cfg = world.config
        nslots = max(cfg.swap_slots, default=0) + 1
        bits = tuple(tuple(sorted(shadow.bits[k]))
                     for k in shadow.bitmap_keys)
        threads = []
        for tid, t in enumerate(world.threads):
            records = tuple(
                (r.callee_entry_id, inv.window_tuple(r.seg_reg),
                 inv.window_tuple(r.passed_seg), r.valid)
                for r in t.xpc.link_stack.records)
            threads.append((
                records,
                inv.window_tuple(t.xpc.seg_reg),
                (t.xpc.seg_mask.offset, t.xpc.seg_mask.length),
                world.seg_list_index(t.xpc.seg_list),
                world.cores[tid].aspace.name,
            ))
        lists = tuple(
            tuple(inv.window_tuple(sl.peek(i)) for i in range(nslots))
            for sl in world.seg_lists)
        segs = tuple(
            (world.thread_index(seg.active_owner), seg.revoked)
            for seg in world.kernel.relay_segments)
        return (bits, tuple(threads), lists, segs)

    # ------------------------------------------------------------------
    # Exploration
    # ------------------------------------------------------------------
    def enumerate_ops(self) -> Tuple[Op, ...]:
        cfg = self.config
        ops: List[Op] = []
        for tid in range(cfg.threads):
            for eid in range(cfg.entries):
                ops.append(("xcall", tid, eid))
            ops.append(("xret", tid))
            for slot in cfg.swap_slots:
                ops.append(("swapseg", tid, slot))
            for numer in cfg.mask_ops:
                ops.append(("mask", tid, numer))
        for tid, eid in cfg.grant_ops:
            ops.append(("grant", tid, eid))
        for tid, eid in cfg.revoke_ops:
            ops.append(("revoke", tid, eid))
        return tuple(ops)

    def _enabled(self, depths: Tuple[int, ...], op: Op) -> bool:
        if op[0] == "xcall":
            return depths[op[1]] < self.config.max_call_depth
        return True

    def explore(self, stop_on_first: bool = False,
                max_depth: Optional[int] = None) -> ExploreResult:
        """Exhaust the reachable state graph; collect counterexamples."""
        cfg = self.config
        ops = self.enumerate_ops()
        world, shadow = self.build_world()
        root = self.fingerprint(world, shadow)
        visited = {root}
        depths0 = tuple(len(s) for s in shadow.stacks)
        queue = deque([((), depths0)])
        result = ExploreResult(states=1, transitions=0)
        while queue:
            path, depths = queue.popleft()
            if max_depth is not None and len(path) >= max_depth:
                continue
            for op in ops:
                if not self._enabled(depths, op):
                    continue
                world, shadow = self.replay(path)
                violations = self.apply_op(world, shadow, op)
                result.transitions += 1
                if violations:
                    full = tuple(path) + (op,)
                    result.counterexamples.append(CounterExample(
                        full, tuple(violations), self._trace_of(full)))
                    if stop_on_first:
                        return result
                    continue            # do not explore past a violation
                fp = self.fingerprint(world, shadow)
                if fp not in visited:
                    if len(visited) >= cfg.max_states:
                        raise RuntimeError(
                            f"model state space exceeds max_states="
                            f"{cfg.max_states}; tighten the config")
                    visited.add(fp)
                    result.states += 1
                    queue.append((tuple(path) + (op,),
                                  tuple(len(s) for s in shadow.stacks)))
        return result

    def _trace_of(self, path: Tuple[Op, ...]) -> str:
        """Replay *path* on a fresh world, one line per event: the
        acting core's cycle stamp, the event, and its engine's link
        depth, call chain and segment window after the event."""
        world, shadow = self.build_world()
        lines = []
        for op in path:
            self.apply_op(world, shadow, op)
            core = world.cores[op[1]]
            regs = world.engines[op[1]].introspect()
            lines.append(
                f"[{core.cycles:>10}] core{core.core_id} {op_str(op)}: "
                f"depth={regs.get('link_depth')} "
                f"chain={regs.get('call_chain')} "
                f"seg={regs.get('seg_window')}")
        return "\n".join(lines)
