"""repro.obs — the observability subsystem for the whole XPC stack.

One :class:`ObsSession` bundles the three measurement surfaces:

* :class:`~repro.obs.pmu.PMU` — per-core/per-engine hardware counter
  banks with snapshot/delta/reset semantics (cycles-by-phase matching
  the paper's Figure 5 breakdown);
* :class:`~repro.obs.registry.MetricsRegistry` — counters, gauges, and
  histograms keyed on the simulated cycle clock, fed by the kernel,
  the XPC runtime, the transports, and the servers;
* :class:`~repro.obs.span.SpanTracer` — causally-nested spans along the
  xcall chain, exportable as Chrome ``trace_event`` JSON (Perfetto);
  spans are the one timeline view of a run.

Instrumented sites do not know this package: they fire the named
points of :mod:`repro.probe`, and an armed session subscribes to them
(the disarmed cost is one global load and a truth test).  In a test
or benchmark driver:

    with obs.active(obs.ObsSession()) as session:
        run_workload()
    artifact = session.report("my-run")       # JSON-serializable
    open("run.trace.json", "w").write(session.spans.chrome_json())

Observation is free: nothing here calls ``tick`` or mutates simulator
state, so obs-on and obs-off runs produce byte-identical cycle counts
(``tests/integration/test_observer_neutrality.py`` proves it).
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Callable, List, Optional, Tuple

import repro.probe as probe
from repro.obs.pmu import PHASE_COUNTERS, PMU, PMUSnapshot
from repro.obs.profiler import (CycleProfiler, ProfileNode,
                                diff_collapsed)
from repro.obs.registry import (Counter, Gauge, Histogram,
                                MetricsRegistry)
from repro.obs.span import Span, SpanTracer

__all__ = [
    "Counter", "CycleProfiler", "Gauge", "Histogram",
    "MetricsRegistry", "ObsSession", "PMU", "PMUSnapshot",
    "ProfileNode", "Span", "SpanTracer", "active", "diff_collapsed",
]


def _nothing() -> None:
    """Closer of a region that opened nothing."""


class ObsSession:
    """One run's worth of observability state."""

    def __init__(self, span_capacity: int = 100_000,
                 profile: bool = False) -> None:
        self.registry = MetricsRegistry()
        self.pmu = PMU()
        self.spans = SpanTracer(capacity=span_capacity)
        #: Cycle-attribution profiler, or None (the default: profiling
        #: off leaves the ``tick`` point unsubscribed).
        self.profiler: Optional[CycleProfiler] = (
            CycleProfiler() if profile else None)
        self.spans.profiler = self.profiler
        #: (linkage record, span) per open xcall window, innermost
        #: last, so the matching xret or §4.2 repair closes its span.
        self._xcall_spans: List[Tuple[object, Span]] = []

    def probes(self) -> dict:
        """The :mod:`repro.probe` points this session subscribes to."""
        hooks = {
            "machine": self.pmu.attach_machine,
            "kernel": self.pmu.attach_kernel,
            "event": self.pmu.add,
            "phase": self._phase,
            "xcall": self._xcall,
            "xret": self._xret,
            "count": self._count,
            "gauge": self._gauge,
            "observe": self._observe,
            "region": self._region,
            "fault": self._fault,
        }
        if self.profiler is not None:
            hooks["tick"] = self.profiler.on_tick
        return hooks

    def attach(self, machine, kernel=None) -> "ObsSession":
        """Register a machine (and kernel) built before this session
        was armed."""
        self.pmu.attach_machine(machine)
        if kernel is not None:
            self.pmu.attach_kernel(kernel)
        return self

    # -- probe handlers -------------------------------------------------
    def _phase(self, core, parts) -> None:
        """Figure 5 phases of the next tick: PMU event counters plus,
        when profiling, the flame tree's phase children."""
        for phase, n in parts:
            counter = PHASE_COUNTERS.get(phase)
            if counter is not None:
                self.pmu.add(core, counter, n)
        if self.profiler is not None:
            self.profiler.phase_split(
                core, tuple((f"phase:{phase}", n) for phase, n in parts))

    def _xcall(self, core, record) -> None:
        # The span covers the callee's execution window.
        seg = record.passed_seg
        span = self.spans.begin(
            core, f"xcall#{record.callee_entry_id}", cat="engine",
            entry=record.callee_entry_id,
            seg_bytes=seg.length if seg.valid else 0)
        self._xcall_spans.append((record, span))

    def _xret(self, core, record, **args) -> None:
        spans = self._xcall_spans
        for i in range(len(spans) - 1, -1, -1):
            if spans[i][0] is record:
                self.spans.end(core, spans.pop(i)[1], **args)
                return

    def _count(self, name: str, n: int, cycle) -> None:
        self.registry.counter(name).inc(n, cycle=cycle)

    def _gauge(self, name: str, value, cycle) -> None:
        self.registry.gauge(name).set(value, cycle=cycle)

    def _observe(self, name: str, value, cycle) -> None:
        self.registry.histogram(name).observe(value, cycle=cycle)

    def _region(self, core, name: str, cat: Optional[str],
                args: dict) -> Callable[[], None]:
        if cat is not None:
            span = self.spans.begin(core, name, cat=cat, **args)
            return lambda: self.spans.end(core, span)
        if self.profiler is None:
            return _nothing
        frame = ExitStack()
        frame.enter_context(self.profiler.frame(core, name))
        return frame.close

    def _fault(self, point: str, action: dict) -> None:
        """An armed fault fired: count it and pin it to the timeline."""
        self.registry.counter(f"faults.injected.{point}").inc()
        self.spans.annotate(f"fault:{point}", args=action)

    # -- the per-run artifact ------------------------------------------
    def report(self, title: str = "run") -> dict:
        """JSON-serializable artifact: metrics + PMU + span summary +
        the full Chrome trace (what ``python -m repro.obs`` renders)."""
        from repro.obs.report import aggregate_spans
        snapshot = self.pmu.snapshot()
        artifact = {
            "title": title,
            "metrics": self.registry.as_dict(),
            "pmu": snapshot.as_dict(),
            "span_summary": aggregate_spans(self.spans.spans),
            "spans": {"finished": len(self.spans),
                      "dropped": self.spans.dropped,
                      "truncated": self.spans.truncated_total,
                      "repaired": self.spans.repaired_total},
            "trace_events": self.spans.chrome_events(pid=title),
        }
        if self.profiler is not None:
            artifact["profile"] = self.profiler.as_dict()
        return artifact


def active(session: ObsSession):
    """Arm *session* for the duration of the block (``probe.armed``):
    nested scopes compose, and a session shadows any outer one."""
    return probe.armed(session)
