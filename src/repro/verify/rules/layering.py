"""Layering rule: every import contract of the package, in one place.

The reproduction is layered like the system it models:

    params → hw → xpc → kernel → runtime → ipc → {sel4, zircon, binder}
                                                → services → apps

Two tables, side by side, state every import contract:

* :data:`ALLOWED_IMPORTS` maps each top-level unit to the units it may
  import (its own unit is always allowed).  ``repro.hw`` models
  silicon, so it may not import ``repro.kernel`` or ``repro.xpc`` (the
  engine plugs *into* the core through the ``Core.xpc_engine`` port);
  the single sanctioned runtime inversion (engine attach in
  ``Machine``) carries a ``# verify-ok: layering`` pragma.  A new
  top-level package must be added explicitly — an unknown unit is a
  violation, so each subsystem takes a conscious position.
* :data:`FORBIDDEN_IMPORTS` maps an importer prefix — a unit
  (``"sel4"``) or a module (``"proptest.executors"``) — to module
  prefixes it may never import, even inside its own unit.  This is how
  the two checkers stay independent of what they check, and how OS
  glue stays off ``repro.hw``'s micro-architecture.

Relative imports resolve against the importing module, and
``from repro.X import name`` is checked as both ``X`` and ``X.name``,
so a submodule imported through a package facade is still seen.
Nobody outside a package may import an underscore-prefixed (private)
name from it.  ``TYPE_CHECKING`` imports are exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from repro.verify.lint import LintViolation, ModuleInfo, Rule

#: unit -> units it may import (its own unit is always allowed).
#: ``faults`` (pure policy: seeded decisions + trace recording) and
#: ``probe`` (the observation bus) sit beside ``params`` at the bottom,
#: so every layer may consult a fault plan or fire a probe point.
ALLOWED_IMPORTS = {
    "params": set(),
    "probe": set(),
    "faults": {"probe"},
    # The table-driven fast core sits beside ``params`` at the bottom:
    # it precomputes cycle tables from CycleParams and must never see
    # the reference stack it re-implements.  No reference unit lists
    # it, and only proptest (the equivalence gate) may import it; a
    # tier-1 test pins both facts.
    "fastcore": {"params"},
    "hw": {"params", "faults", "probe"},
    "xpc": {"hw", "params", "faults", "probe"},
    "kernel": {"xpc", "hw", "params", "faults", "probe"},
    "runtime": {"kernel", "xpc", "hw", "params", "faults", "probe"},
    "ipc": {"runtime", "kernel", "xpc", "hw", "params", "faults", "probe"},
    "sel4": {"ipc", "runtime", "kernel", "xpc", "hw", "params", "faults",
             "probe"},
    "zircon": {"ipc", "runtime", "kernel", "xpc", "hw", "params", "faults",
               "probe"},
    "binder": {"ipc", "runtime", "kernel", "xpc", "hw", "params", "faults",
               "probe"},
    "services": {"aio", "ipc", "runtime", "kernel", "xpc", "hw", "params",
                 "faults", "analysis", "probe"},
    # Async/batched XPC sits between ipc and services: it builds on the
    # transport's payload surface and the runtime library, and the
    # service servers adopt it for their batched front-ends.
    "aio": {"ipc", "runtime", "kernel", "xpc", "hw", "params", "faults",
            "probe"},
    "apps": {"services", "ipc", "runtime", "kernel", "xpc", "hw", "params",
             "faults", "probe"},
    # Side packages: measurement and analysis tooling.
    # ``obs`` (counters, spans, PMU sampling, the profiler) and ``san``
    # (XPCSan) are observers: they subscribe to probe points, never
    # charge cycles, and nothing on the simulated stack imports them.
    "obs": {"params", "analysis", "probe"},
    "san": {"probe"},
    "analysis": {"params"},
    "gem5": {"params", "hw"},
    "hwcost": {"params"},
    "compare": {"params"},
    "tools": {"analysis", "params", "obs"},
    "verify": {"runtime", "kernel", "xpc", "hw", "params", "faults",
               "obs"},
    # Differential fuzzing drives every mechanism (and the analytic
    # model) from above, so it sits at the top of the stack alongside
    # apps; nothing may import *it*.
    "proptest": {"compare", "aio", "ipc", "sel4", "zircon", "runtime",
                 "kernel", "xpc", "hw", "params", "faults", "obs", "san",
                 "fastcore"},
    # Snapshot/record-replay/time-travel sits at the very top: it
    # deepcopies whole worlds built from any layer (including proptest
    # executors and verify's live invariants), so everything below is
    # fair game and nothing below may import *it*.  The two proptest
    # integration points (snapshot-accelerated shrink, replay --at-op)
    # late-import repro.snap behind a pragma rather than inverting the
    # layer.
    "snap": {"proptest", "verify", "compare", "aio", "ipc", "sel4",
             "zircon", "services", "runtime", "kernel", "xpc", "hw",
             "params", "faults", "obs", "san", "probe", "analysis"},
    # Profiling/SLO/sentry tooling sits above snap: the sentry drives
    # recorders and time travel, host profiling drives the proptest
    # fleet, and the flame CLI runs snap scenarios.  The in-simulation
    # CycleProfiler itself lives in repro.obs (it hears Core.tick
    # through the tick probe point); aio consumes the SLO engine
    # duck-typed, so nothing below imports repro.prof.
    "prof": {"snap", "proptest", "verify", "compare", "aio", "ipc",
             "sel4", "zircon", "services", "runtime", "kernel", "xpc",
             "hw", "params", "faults", "obs", "san", "analysis"},
    # The multi-node serving fabric sits at the very top: a Node wraps a
    # whole machine + kernel + pools, the fabric consumes the SLO engine
    # for autoscaling, and the shard services reuse the real apps.
    # Nothing below imports repro.cluster.
    "cluster": {"prof", "aio", "ipc", "sel4", "services", "apps",
                "runtime", "kernel", "xpc", "hw", "params", "faults",
                "obs", "san", "analysis"},
}


#: importer prefix -> module prefixes it may never import (relative to
#: ``repro``).  Entries apply inside the importer's own unit too.
_NO_HW_INTERNALS = {"hw.tlb", "hw.cache"}
_NO_ORACLE = {"proptest.oracle"}
FORBIDDEN_IMPORTS = {
    # The differential's two sides stay independent: executors and the
    # generator earn outcomes through the real mechanisms (or the
    # fastcore tables), never off the reference model.  The shared
    # vocabulary lives in ``grammar``; only the harness sees both.
    "proptest.executors": _NO_ORACLE,
    "proptest.gen": _NO_ORACLE,
    "proptest.fastexec": _NO_ORACLE,
    # OS glue stays on repro.hw's architectural surface (cpu, machine,
    # memory, paging): TLB and cache timing belong to the core.
    "sel4": _NO_HW_INTERNALS,
    "zircon": _NO_HW_INTERNALS,
    "binder": _NO_HW_INTERNALS,
}


def _within(name: str, prefix: str) -> bool:
    """True if dotted *name* is *prefix* or one of its submodules."""
    return name == prefix or name.startswith(prefix + ".")


def _absolute(module: ModuleInfo, node: ast.ImportFrom) -> Optional[str]:
    """The absolute module a ``from`` import names (None if unresolvable)."""
    if not node.level:
        return node.module or ""
    package = module.modname.split(".")
    if not module.path.endswith("__init__.py"):
        package = package[:-1]
    if node.level > len(package):
        return None
    base = package[:len(package) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _refusal(module: ModuleInfo, target: str) -> Optional[str]:
    """Why *module* may not import module *target* (None if it may)."""
    parts = target.split(".")
    if len(parts) < 2:          # the repro facade itself
        return None
    importer, wanted = module.modname[len("repro."):], ".".join(parts[1:])
    for key, forbidden in FORBIDDEN_IMPORTS.items():
        if _within(importer, key) and any(_within(wanted, prefix)
                                          for prefix in forbidden):
            return (f"repro.{importer} may not import {target} "
                    f"(layering: FORBIDDEN_IMPORTS[{key!r}] is "
                    f"{sorted(forbidden)})")
    unit, target_unit = module.unit, parts[1]
    if target_unit == unit:
        return None
    allowed = ALLOWED_IMPORTS.get(unit)
    if allowed is None:
        return (f"unit {unit!r} is not in the layer map "
                f"(repro.verify.rules.layering.ALLOWED_IMPORTS) — new "
                f"packages must declare their layer explicitly")
    if target_unit not in allowed:
        return (f"repro.{unit} may not import repro.{target_unit} "
                f"(layering: allowed are "
                f"{', '.join(sorted(allowed)) or 'none'})")
    return None


class LayeringRule(Rule):
    name = "layering"
    description = ("imports must respect the layer map and the "
                   "forbidden-import table; no private names across "
                   "package boundaries")

    def check(self, module: ModuleInfo) -> Iterator[LintViolation]:
        if module.unit == "":   # the repro package facade re-exports freely
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                imports = [(alias.name, []) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                target = _absolute(module, node)
                if target is None:
                    continue
                imports = [(target, [alias.name for alias in node.names])]
            else:
                continue
            if module.in_type_checking(node):
                continue
            for target, names in imports:
                v = self._check_import(module, node.lineno, target, names)
                if v:
                    yield v

    def _check_import(self, module: ModuleInfo, line: int, target: str,
                      names: List[str]) -> Optional[LintViolation]:
        """One statement's verdict: ``target`` itself, then each
        ``target.name`` (a submodule reached through a facade)."""
        parts = target.split(".")
        if parts[0] != "repro":
            return None
        target_unit = parts[1] if len(parts) > 1 else ""
        if target_unit != module.unit:
            for name in names:
                if name.startswith("_"):
                    return self.violation(
                        module, line,
                        f"imports private name {name!r} from "
                        f"repro.{target_unit} — private names do not "
                        f"cross package boundaries")
        for candidate in [target] + [f"{target}.{n}" for n in names]:
            reason = _refusal(module, candidate)
            if reason:
                return self.violation(module, line, reason)
        return None
