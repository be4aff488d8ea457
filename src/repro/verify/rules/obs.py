"""Obs-discipline rule: instrumentation goes through the registry.

The observability layer stays trustworthy only if every measurement
flows through its sanctioned surfaces — ``Counter.inc`` /
``Gauge.set`` / ``Histogram.observe`` / ``PMU.add`` — which stamp the
cycle clock and keep snapshot/delta/reset semantics coherent.  Code
that pokes counter state directly (``session.registry.counter("x")
.value += 1``, rebinding ``session.pmu.banks``...) silently corrupts
deltas and percentiles without failing any functional test.

Concretely, outside ``repro.obs`` this rule forbids assignments
(plain, augmented, annotated, or tuple-unpacking) whose *target* is an
attribute reached through an obs surface:

* any write through an attribute chain mentioning ``registry``,
  ``pmu`` or ``spans`` (the session surfaces); or
* any write to a metric-container attribute itself (``counters``,
  ``gauges``, ``histograms``, ``banks``, ``_metrics``, ...).

Local aliases (``registry = session.registry``) are reads and stay
legal; only mutation through the alias's attributes is flagged.  The
usual ``# verify-ok: obs-discipline`` pragma suppresses a site.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.verify.lint import (LintViolation, ModuleInfo, Rule,
                               assigned_attributes, names_in_chain)

#: Attributes exposing metric/counter storage: writable only in repro.obs.
OBS_CONTAINERS = frozenset({
    "counters", "gauges", "histograms", "banks",
    "_metrics", "_core_banks", "_kernel_banks",
})

#: The obs session surfaces instrumentation reaches metrics through.
OBS_SURFACES = frozenset({"registry", "pmu", "spans"})


def _flagged_writes(node: ast.AST):
    """Yield (attr_name, reason) for obs-state writes in *node*."""
    for t in assigned_attributes(node):
        if t.attr in OBS_CONTAINERS:
            yield t.attr, "rebinds an obs metric container"
        elif names_in_chain(t.value) & OBS_SURFACES:
            yield t.attr, "mutates metric state through an obs surface"


class ObsDisciplineRule(Rule):
    name = "obs-discipline"
    description = ("metrics are only mutated through the repro.obs "
                   "registry/PMU API (inc/set/observe/add), never by "
                   "direct attribute writes")

    def check(self, module: ModuleInfo) -> Iterator[LintViolation]:
        if not module.modname.startswith("repro."):
            return
        if module.unit == "obs":
            return
        for node in ast.walk(module.tree):
            for attr, reason in _flagged_writes(node):
                v = self.violation(
                    module, node.lineno,
                    f"{reason} ({attr!r}) outside repro.obs — report "
                    f"through the registry API (counter().inc / "
                    f"gauge().set / histogram().observe / pmu.add) "
                    f"instead")
                if v:
                    yield v
