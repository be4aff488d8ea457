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

Usage pattern at an instrumented site (null-sink default: the disarmed
cost is a single global attribute check, mirroring ``repro.faults``):

    import repro.obs as obs
    ...
    if obs.ACTIVE is not None:
        obs.ACTIVE.pmu.add(core, "cycles.xcall.captest", 6)

and in a test / benchmark driver:

    with obs.active(obs.ObsSession()) as session:
        run_workload()
    artifact = session.report("my-run")       # JSON-serializable
    open("run.trace.json", "w").write(session.spans.chrome_json())

Observation is free: nothing here calls ``tick`` or mutates simulator
state, so obs-on and obs-off runs produce byte-identical cycle counts
(``tests/integration/test_observer_neutrality.py`` proves it).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

import repro.faults as faults
from repro.obs.pmu import PMU, PMUSnapshot
from repro.obs.profiler import (CycleProfiler, ProfileNode,
                                diff_collapsed)
from repro.obs.registry import (Counter, Gauge, Histogram,
                                MetricsRegistry)
from repro.obs.span import Span, SpanTracer

__all__ = [
    "ACTIVE", "Counter", "CycleProfiler", "Gauge", "Histogram",
    "MetricsRegistry", "ObsSession", "PMU", "PMUSnapshot",
    "ProfileNode", "Span", "SpanTracer", "active", "diff_collapsed",
    "prof_frame",
]

#: The installed session, or None.  Instrumented hot paths check this
#: before doing anything, so the disarmed cost is one global load.
ACTIVE: Optional["ObsSession"] = None


class ObsSession:
    """One run's worth of observability state."""

    def __init__(self, span_capacity: int = 100_000,
                 profile: bool = False) -> None:
        self.registry = MetricsRegistry()
        self.pmu = PMU()
        self.spans = SpanTracer(capacity=span_capacity)
        #: Cycle-attribution profiler, or None (the default: profiling
        #: off adds nothing beyond the existing ACTIVE check).
        self.profiler: Optional[CycleProfiler] = (
            CycleProfiler() if profile else None)
        self.spans.profiler = self.profiler

    # -- wiring (called by Machine/BaseKernel constructors) ------------
    def on_machine(self, machine) -> None:
        self.pmu.attach_machine(machine)

    def on_kernel(self, kernel) -> None:
        self.pmu.attach_kernel(kernel)

    def attach(self, machine, kernel=None) -> "ObsSession":
        """Register a machine (and kernel) built before this session
        was installed."""
        self.on_machine(machine)
        if kernel is not None:
            self.on_kernel(kernel)
        return self

    # -- fault-injection bridge (repro.faults.OBSERVER) ----------------
    def on_fault(self, point: str, action: dict) -> None:
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


@contextmanager
def prof_frame(core, label: str):
    """Open a profiler attribution frame around the block, iff the
    installed session is profiling; free otherwise.  Instrumented
    layers call this *after* the usual ``if obs.ACTIVE is not None``
    guard, so the disarmed fast path never pays the generator."""
    session = ACTIVE
    profiler = session.profiler if session is not None else None
    if profiler is None:
        yield None
        return
    with profiler.frame(core, label):
        yield profiler


@contextmanager
def active(session: ObsSession):
    """Install *session* (and its fault observer) for the duration of
    the block, restoring the previous ones so nested scopes compose."""
    global ACTIVE
    prev, prev_observer = ACTIVE, faults.OBSERVER
    ACTIVE, faults.OBSERVER = session, session.on_fault
    try:
        yield session
    finally:
        ACTIVE = prev
        faults.OBSERVER = prev_observer
