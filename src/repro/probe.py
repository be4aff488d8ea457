"""repro.probe — the one observation bus of the stack.

Every place the simulator reports what it does is a named *probe
point* (:data:`CATALOGUE`) with one subscriber tuple (a :class:`Point`),
the module global named after it in upper case, empty while nothing
listens.  A site fires a point only when it is non-empty, so a
disarmed site (or ``TICK`` with no profiler armed) costs one global
load and a truth test, and builds none of the point's arguments::

    if probe.XCALL:
        probe.XCALL(self.core, record)

Observers (``ObsSession``, ``SanSession``, ``PreFaultSnapper``) map
point names to handlers in ``probes()`` and subscribe for a scope with
:func:`armed`; they never charge cycles or touch simulator state.
Fault *injection* stays in :mod:`repro.faults`; only the fact that a
fault was injected is a point.  This module imports nothing, so every
layer may fire its points.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, List, Optional

#: point -> "hook signature: what it reports" (DESIGN.md §10 adds the
#: layers that fire each point).
CATALOGUE = {
    "tick": "(core, cycles): Core.tick charged cycles (already on the clock)",
    "event": "(core, name, n): a per-core PMU event counter moves",
    "machine": "(machine): a Machine finished construction",
    "kernel": "(kernel): a kernel finished construction",
    "phase": "(core, ((phase, cycles), ...)): the next tick on core "
             "splits into Figure 5 phases",
    "xcall": "(core, record): an xcall pushed record, moved control",
    "xret": "(core, record, **args): record left the link stack: xret, "
            "or the kernel's §4.2 repair (repaired=True)",
    "handoff": "(obj, label, via): a relay segment or link stack "
               "changed owner",
    "access": "(core, obj, label, site, kind): core read or wrote shared "
              "XPC state",
    "count": "(name, n, cycle): counter name grew by n",
    "gauge": "(name, value, cycle): gauge name was set",
    "observe": "(name, value, cycle): histogram name got a sample",
    "region": "(core, name, cat, args) -> close(): a span (or, with cat "
              "None, a profiler frame) opens; the site calls each "
              "returned closer when the work ends",
    "fault": "(point, action): a fault plan is about to inject at point",
}


class Point(tuple):
    """The hooks subscribed to one point, innermost observer first."""

    def __call__(self, *args, **kwargs) -> list:
        """Call every hook; returns what they return, in order."""
        results = []
        for hook in self:
            results.append(hook(*args, **kwargs))
        return results


TICK = EVENT = MACHINE = KERNEL = PHASE = XCALL = XRET = Point()
HANDOFF = ACCESS = COUNT = GAUGE = OBSERVE = REGION = FAULT = Point()

#: Armed observers, outermost first.
_ARMED: List[object] = []


def _subscribe() -> None:
    """Rebuild every subscriber tuple from the armed observers,
    innermost first (a snapper armed inside an obs session snapshots a
    fault before the session annotates it).  An observer shadows outer
    ones of its type, so a nested session sees only its own run."""
    hooks: Dict[str, List[Callable]] = {point: [] for point in CATALOGUE}
    kinds = set()
    for observer in reversed(_ARMED):
        if type(observer) in kinds:
            continue
        kinds.add(type(observer))
        for point, hook in observer.probes().items():
            hooks[point].append(hook)
    scope = globals()
    for point, subscribers in hooks.items():
        scope[point.upper()] = Point(subscribers)


@contextmanager
def armed(observer):
    """Subscribe *observer* to its points for the block.

    Scopes nest and restore.  Arming ``None``, or an observer that is
    already listening, changes nothing: a world re-arming its own
    session inside a driver that armed it keeps the driver's order.
    """
    kin = [other for other in _ARMED if type(other) is type(observer)]
    if observer is None or kin and kin[-1] is observer:
        yield observer
        return
    _ARMED.append(observer)
    _subscribe()
    try:
        yield observer
    finally:
        _ARMED.pop()        # scopes nest: the last armed leaves first
        _subscribe()


_IDLE = nullcontext()


def region(core, name: str, cat: Optional[str] = None,
           timer: Optional[str] = None, **args):
    """Fire the ``region`` point around a ``with`` block; with *timer*,
    the block's cycles are also an ``observe`` sample of that
    histogram.  Per-xcall sites spell this out (``REGION`` in a
    ``try``/``finally``) so a disarmed call also builds no name."""
    if not (REGION or timer is not None and OBSERVE):
        return _IDLE
    return _region(core, name, cat, timer, args)


@contextmanager
def _region(core, name, cat, timer, args):
    start = core.cycles
    closers = REGION(core, name, cat, args)
    try:
        yield
    finally:
        if timer is not None and OBSERVE:
            OBSERVE(timer, core.cycles - start, core.cycles)
        for close in closers:
            close()
