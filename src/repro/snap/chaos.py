"""Pre-fault snapshots for the chaos harness.

:class:`PreFaultSnapper` is an observer of the ``fault`` point of
:mod:`repro.probe`, which :func:`repro.faults.fire` fires the moment a
plan decides to inject.  The observer runs *after* the plan has
recorded the event in its trace but *before* the fire site applies the
action, so each snapshot captures the world on the brink of the fault:
the event is already in the plan's trace (restoring and re-running the
op replays the decision without re-rolling it), the damage is not yet
done.

It composes with observability: arm ``obs.active(session)`` first,
then the snapper.  The innermost observer hears a fault first, so each
injection is snapshotted before the session annotates it on the span
timeline.  World ``step`` methods re-arm their own obs session, which
leaves an already-armed session where it is in that order.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import repro.probe as probe
from repro.snap.core import Snapshot, capture


class PreFaultSnapper:
    """Snapshot *world* immediately before every injected fault."""

    def __init__(self, world, keep: Optional[int] = 8) -> None:
        self.world = world
        self.keep = keep
        #: ``(point, action, snapshot)`` per injection, oldest first
        #: (trimmed to the last *keep* when bounded).
        self.snapshots: List[Tuple[str, dict, Snapshot]] = []
        self.injections = 0
        self._scope = None

    def probes(self) -> dict:
        return {"fault": self._observe}

    def __enter__(self) -> "PreFaultSnapper":
        self._scope = probe.armed(self)
        return self._scope.__enter__()

    def __exit__(self, *exc) -> bool:
        return self._scope.__exit__(*exc)

    def _observe(self, point: str, action: dict) -> None:
        self.injections += 1
        snapshot = capture(self.world,
                           op_index=getattr(self.world, "op_index",
                                            None))
        self.snapshots.append((point, dict(action), snapshot))
        if self.keep is not None and len(self.snapshots) > self.keep:
            del self.snapshots[:-self.keep]

    def last(self) -> Optional[Tuple[str, dict, Snapshot]]:
        return self.snapshots[-1] if self.snapshots else None
