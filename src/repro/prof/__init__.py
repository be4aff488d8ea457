"""repro.prof — profiling, SLOs, and the perf regression sentry.

Built on :mod:`repro.obs` (which owns the in-simulation
:class:`~repro.obs.profiler.CycleProfiler`, fed by the ``tick`` probe
point) and :mod:`repro.snap` (whose record/replay stack powers the
bisecting sentry).  Three surfaces:

* **cycle flames** — run a scenario under ``ObsSession(profile=True)``
  and export collapsed stacks (``python -m repro.prof flame``);
* **SLOs** — :mod:`repro.prof.slo` evaluates declarative objectives
  (``p99(xpc.call_cycles) < 500``) over the metrics registry with
  burn-rate alerts; its engine is the duck-typed autoscaling signal
  for :class:`~repro.aio.pool.WorkerPool` and load-shedding input for
  :class:`~repro.aio.backpressure.AdmissionController`;
* **the sentry** — :mod:`repro.prof.sentry` bisects a cycle drift to
  the first divergent op via snapshots and names the guilty phase in
  a flame-tree diff.
"""

from repro.obs.profiler import (CycleProfiler, ProfileNode,
                                diff_collapsed)
from repro.prof.sentry import (SentryReport, bisect_regression,
                               profile_op, record_scenario,
                               seed_captest_regression)
from repro.prof.slo import (Alert, SLOEngine, SLOParseError, SLOSpec,
                            SLOStatus)

__all__ = [
    "Alert", "CycleProfiler", "ProfileNode", "SLOEngine",
    "SLOParseError", "SLOSpec", "SLOStatus", "SentryReport",
    "bisect_regression", "diff_collapsed", "profile_op",
    "record_scenario", "seed_captest_regression",
]
