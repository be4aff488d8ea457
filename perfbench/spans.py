"""Host-time spans around calls into each ``repro.<unit>`` layer.

Nothing in ``src/`` is changed: :class:`Probe` wraps the layers' public
functions from outside, by replacing class and module attributes for
the duration of a traced run and restoring them afterwards.

Each wrapped call records a span (name, start, end, parent span, and
the request or op id it serves) in memory; :meth:`Probe.write` saves
them when the benchmark ends.  A span's *self time* is its duration
minus the time its wrapped child spans cover, so the self time of
``xpc.xcall`` includes the unwrapped kernel code below it.  Calls on
the hottest paths (``PhysicalMemory.read``/``write``, ``RpcLink.send``)
are counted without a span.

Independently of spans, every probe keeps a census of the machines a
round builds, so the exact TLB and XPC-engine counters can be compared
between untraced and traced rounds.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from repro.proptest import default_executor_factories

SPAN, COUNT = "span", "count"

#: The layers measured, in report order.
LAYERS = ("cluster", "aio", "hw", "xpc", "ipc", "kernel", "services",
          "apps", "proptest")

#: Figure 5 phase labels the cycle profiler splits ticks into; cycles
#: charged outside any phase land in ``other``.
PHASES = ("captest", "xentry", "linkpush", "xret", "trampoline", "cstack",
          "other")

#: Per-layer metrics a workload computes from its own simulated results
#: (see ``workloads.Round.sim``); 0 on workloads that do not produce them.
SIM_LAYER_METRICS = ("cluster.remote_share", "apps.sqlite_get.sim_p50_cycles",
                     "apps.sqlite_update.sim_p50_cycles",
                     "proptest.executors")


def _executor_key(name: str) -> str:
    return name.replace("+", "_")


def _fuzz_fleet_names() -> List[str]:
    return [_executor_key(name) for name, _ in default_executor_factories()]


def _run_one_name(args, result) -> str:
    return f"proptest.run_one.{_executor_key(result[0].executor)}"


def _run_one_id(op_id, args, result):
    return f"{op_id}:{result[0].executor}"


def _dispatch_id(op_id, args, result):
    return args[2].seq


#: (module, class or None, attribute, metric, mode, options).  Options:
#: ``bytes`` (args, result) -> bytes moved; ``work`` (result) -> useful
#: work units; ``name`` (args, result) -> span name chosen at exit;
#: ``id`` (op_id, args, result) -> the span's request id; ``census``:
#: the machine constructor, wrapped even when not tracing.
PROBES = [
    ("repro.cluster.fabric", "Cluster", "dispatch", "cluster.dispatch",
     SPAN, {"id": _dispatch_id}),
    ("repro.cluster.fabric", "Cluster", "control_step",
     "cluster.control_step", SPAN, {}),
    ("repro.cluster.rpc", "RpcLink", "send", "cluster.rpc_send", COUNT, {}),
    ("repro.aio.pool", "WorkerPool", "submit", "aio.pool_submit", SPAN, {}),
    ("repro.aio.pool", "WorkerPool", "drain", "aio.pool_drain", SPAN,
     {"work": lambda result: result}),
    ("repro.aio.ring", "XPCRing", "push_sqe", "aio.ring_push_sqe", SPAN, {}),
    ("repro.aio.ring", "XPCRing", "pop_sqe", "aio.ring_pop_sqe", SPAN, {}),
    ("repro.aio.ring", "XPCRing", "push_cqe", "aio.ring_push_cqe", SPAN, {}),
    ("repro.aio.ring", "XPCRing", "pop_cqe", "aio.ring_pop_cqe", SPAN, {}),
    ("repro.aio.ring", None, "encode_meta", "aio.meta_codec", SPAN, {}),
    ("repro.aio.ring", None, "decode_meta", "aio.meta_codec", SPAN, {}),
    ("repro.hw.machine", "Machine", "__init__", "hw.machine_build", SPAN,
     {"census": True}),
    ("repro.hw.paging", "PageTable", "map", "hw.paging_map", SPAN, {}),
    ("repro.hw.memory", "PhysicalMemory", "fill", "hw.memory_fill", SPAN,
     {"bytes": lambda args, result: args[2]}),
    ("repro.hw.cache", "CacheModel", "__init__", "hw.cache_build", SPAN, {}),
    ("repro.hw.memory", "PhysicalMemory", "read", "hw.memory_read", COUNT,
     {"bytes": lambda args, result: args[2]}),
    ("repro.hw.memory", "PhysicalMemory", "write", "hw.memory_write", COUNT,
     {"bytes": lambda args, result: len(args[2])}),
    ("repro.hw.tlb", "TLB", "flush_all", "hw.tlb_flush_all", SPAN, {}),
    ("repro.xpc.engine", "XPCEngine", "xcall", "xpc.xcall", SPAN, {}),
    ("repro.xpc.engine", "XPCEngine", "xret", "xpc.xret", SPAN, {}),
    ("repro.xpc.engine", "XPCEngine", "swapseg", "xpc.swapseg", SPAN, {}),
    ("repro.ipc.xpc_transport", "XPCTransport", "call",
     "ipc.transport_call", SPAN, {}),
    ("repro.kernel.kernel", "BaseKernel", "create_process",
     "kernel.create_process", SPAN, {}),
    ("repro.kernel.kernel", "BaseKernel", "create_thread",
     "kernel.create_thread", SPAN, {}),
    ("repro.services.fs.server", "FSClient", "read", "services.fs_read",
     SPAN, {"bytes": lambda args, result: len(result)}),
    ("repro.services.fs.server", "FSClient", "write", "services.fs_write",
     SPAN, {"bytes": lambda args, result: len(args[2])}),
    ("repro.apps.sqlite.db", "Database", "get", "apps.sqlite_get", SPAN, {}),
    ("repro.apps.sqlite.db", "Database", "update", "apps.sqlite_update",
     SPAN, {}),
    ("repro.proptest.gen", None, "generate", "proptest.generate", SPAN, {}),
    ("repro.proptest.harness", None, "expected_outcomes", "proptest.oracle",
     SPAN, {}),
    ("repro.proptest.harness", None, "run_one", "proptest.run_one", SPAN,
     {"name": _run_one_name, "id": _run_one_id}),
]


class Probe:
    """Census of built machines, plus layer spans when *tracing*.

    With *profile*, a workload that can attach the cycle profiler to
    its machine does so, and reports the Figure 5 phase split through
    :meth:`sim_phases`.

    Call :meth:`install` before building anything and :meth:`uninstall`
    afterwards.  Per round: :meth:`begin_round`, the round's own
    :meth:`ops_begin`/:meth:`ops_end`, then :meth:`round_metrics`.
    """

    def __init__(self, tracing: bool, profile: bool = False) -> None:
        self.tracing = tracing
        self.profile = profile
        self.profile_complete = False
        self.op_id = None
        #: Spans are kept for the first round only (the aggregates
        #: cover every round), which bounds the memory they take.
        self.keep_spans = True
        self._saved: list = []
        # Census: stats objects of every TLB and XPC engine built.
        self._tlbs: list = []
        self._engines: list = []
        # Spans, as parallel columns (parents precede their children).
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_id: list = []
        self._stack: List[list] = []
        # Per-round aggregates, keyed by metric stem.
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.nbytes: Dict[str, int] = defaultdict(int)
        self.work: Dict[str, int] = defaultdict(int)
        self._round_start = 0.0
        self._frozen: Optional[dict] = None
        self._exact_start = (0, 0, 0)
        self._exact_end = (0, 0, 0)
        self.phases: Dict[str, int] = {}

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        for module, cls, attr, metric, mode, opts in PROBES:
            target = importlib.import_module(module)
            if cls is not None:
                target = getattr(target, cls)
            original = target.__dict__[attr]
            wrapped = original
            if opts.get("census"):
                wrapped = self._census(original)
            if self.tracing:
                wrapper = self._span if mode == SPAN else self._count
                wrapped = wrapper(wrapped, metric, opts)
            if wrapped is original:
                continue
            self._saved.append((target, attr, original))
            setattr(target, attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    def _census(self, init: Callable) -> Callable:
        tlbs, engines = self._tlbs, self._engines

        @functools.wraps(init)
        def machine_init(machine, *args, **kwargs):
            init(machine, *args, **kwargs)
            tlbs.extend(core.tlb.stats for core in machine.cores)
            engines.extend(engine.stats for engine in machine.engines)
        return machine_init

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _span(self, fn: Callable, metric: str, opts: dict) -> Callable:
        probe = self
        nid = self._name_id(metric)
        bytes_of, work_of = opts.get("bytes"), opts.get("work")
        name_of, id_of = opts.get("name"), opts.get("id")
        stack, clock = self._stack, time.perf_counter
        calls, self_s = self.calls, self.self_s
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ids = self.span_parent, self.span_id

        @functools.wraps(fn)
        def span(*args, **kwargs):
            index = -1
            if probe.keep_spans:
                index = len(ids)
                names.append(nid)
                parents.append(stack[-1][0] if stack else -1)
                ids.append(probe.op_id)
                starts.append(0.0)
                ends.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
            name = metric
            if name_of is not None:
                name = name_of(args, result)
            if index >= 0:
                starts[index] = t0
                ends[index] = t1
                if name_of is not None:
                    names[index] = probe._name_id(name)
                if id_of is not None:
                    ids[index] = id_of(probe.op_id, args, result)
            calls[name] += 1
            self_s[name] += (t1 - t0) - frame[1]
            if bytes_of is not None:
                probe.nbytes[name] += bytes_of(args, result)
            if work_of is not None:
                probe.work[name] += work_of(result)
            return result
        return span

    def _count(self, fn: Callable, metric: str, opts: dict) -> Callable:
        calls, nbytes = self.calls, self.nbytes
        bytes_of = opts["bytes"] if "bytes" in opts else (lambda a, r: 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[metric] += 1
            nbytes[metric] += bytes_of(args, result)
            return result
        return counted

    # -- rounds ---------------------------------------------------------
    def _exact(self) -> tuple:
        hits = sum(s.hits for s in self._tlbs)
        misses = sum(s.misses for s in self._tlbs)
        xcalls = sum(s.xcalls for s in self._engines)
        return hits, misses, xcalls

    def begin_round(self) -> None:
        self.keep_spans = not self.span_id
        self._tlbs.clear()
        self._engines.clear()
        for table in (self.calls, self.self_s, self.nbytes, self.work):
            table.clear()
        self._frozen = None
        self.phases = {}
        self._round_start = time.perf_counter()

    def ops_begin(self) -> None:
        self._exact_start = self._exact()

    def ops_end(self) -> None:
        """Close the round's measured window; later calls (output
        checks) still record spans but no longer count."""
        self._exact_end = self._exact()
        self._frozen = {
            "round_s": time.perf_counter() - self._round_start,
            "calls": dict(self.calls), "self_s": dict(self.self_s),
            "bytes": dict(self.nbytes), "work": dict(self.work),
        }

    def sim_phases(self, profiler) -> None:
        """Fold the cycle profiler's stacks into Figure 5 phases."""
        phases = dict.fromkeys(PHASES, 0)
        for path, cycles in profiler.collapsed().items():
            leaf = path.rsplit(";", 1)[-1]
            label = leaf[len("phase:"):] if leaf.startswith("phase:") else ""
            phases[label if label in phases else "other"] += cycles
        self.phases = phases
        self.profile_complete = profiler.complete()

    def exact_metrics(self, ops: int) -> Dict[str, float]:
        """Simulated counters over the round's measured window."""
        hits = self._exact_end[0] - self._exact_start[0]
        misses = self._exact_end[1] - self._exact_start[1]
        xcalls = self._exact_end[2] - self._exact_start[2]
        return {
            # 0 when nothing was translated through a TLB.
            "hw.tlb_hit_rate": (hits / (hits + misses)
                                if hits + misses else 0.0),
            "hw.tlb_accesses": hits + misses,
            "xpc.xcalls_per_op": xcalls / ops if ops else 0.0,
        }

    def round_metrics(self) -> Dict[str, float]:
        """Per-layer host metrics of the round just ended."""
        frozen = self._frozen
        calls, self_s = frozen["calls"], frozen["self_s"]
        nbytes, work = frozen["bytes"], frozen["work"]
        out: Dict[str, float] = {}
        stems = sorted({metric for _, _, _, metric, _, _ in PROBES})
        for stem in stems:
            out[f"{stem}.calls"] = calls.get(stem, 0)
            out[f"{stem}.self_s"] = self_s.get(stem, 0.0)
            out[f"{stem}.bytes"] = nbytes.get(stem, 0)
        drains = calls.get("aio.pool_drain", 0)
        out["aio.requests_per_drain"] = (work.get("aio.pool_drain", 0)
                                         / drains if drains else 0.0)
        for executor in _fuzz_fleet_names():
            key = f"proptest.run_one.{executor}"
            out[f"{key}.self_s"] = self_s.get(key, 0.0)
        out.update(dict.fromkeys(SIM_LAYER_METRICS, 0))
        for phase in PHASES:
            out[f"sim.phase.{phase}.cycles"] = self.phases.get(phase, 0)
        round_s = frozen["round_s"]
        layer_s = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self_s.items():
            layer_s[name.split(".", 1)[0]] += seconds
        for layer in LAYERS:
            out[f"host.{layer}.share"] = layer_s[layer] / round_s
        out["host.other.share"] = 1.0 - sum(layer_s.values()) / round_s
        return out

    # -- output ---------------------------------------------------------
    def write(self, path) -> int:
        """Save every span (gzip JSON, columnar); returns the count.

        A span without its own id inherits its root span's, so every
        span of one request carries that request's id."""
        ids = list(self.span_id)
        parents = self.span_parent
        for i, parent in enumerate(parents):
            if parent >= 0:
                ids[i] = ids[parent]
        doc = {
            "names": self.names,
            "columns": ["name", "start_s", "end_s", "parent", "id"],
            "name": list(self.span_name),
            "start_s": list(self.span_start),
            "end_s": list(self.span_end),
            "parent": list(parents),
            "id": ids,
        }
        with gzip.open(path, "wt", encoding="utf-8",
                       compresslevel=1) as out:
            json.dump(doc, out, separators=(",", ":"))
        return len(ids)
