"""Cluster-discipline rule: nodes talk through the RPC layer.

A :class:`~repro.cluster.node.Node` encapsulates a whole machine —
its ``kernel`` and ``machine`` are *that node's* private world.  The
fabric layers above (``fabric``, ``naming``, ``metrics``, ``loadgen``,
``hashring``) coordinate *between* nodes, and the moment one of them
reaches through a node reference into ``node.kernel`` / ``node.machine``
it has teleported across a machine boundary for free: no serialization
charge, no wire delay, no partition check — the distributed-system
equivalent of the ring-poking the aio rule forbids.

Inside ``repro.cluster`` only three modules may touch a node's
internals:

* ``node`` — the Node owns them;
* ``rpc`` — the hop implementation charges the sender's cores;
* ``serving`` — shard handlers build their *own* node's local stack
  (FS, database) at install time.

Everything else must stay on the node's serving surface
(``pool()`` / ``serve()`` / ``retire()`` / ``frontend_core`` / ``now``)
or go through :func:`repro.cluster.rpc.remote_submit`.
``# verify-ok: cluster-discipline`` suppresses a sanctioned site.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.verify.lint import (LintViolation, ModuleInfo, Rule,
                               names_in_chain)

#: Names that identify a Node reference in an access chain.
NODE_SURFACES = frozenset({
    "node", "nodes", "home", "frontend", "victim", "peer", "src", "dst",
    "live", "survivor",
})

#: A node's machine-private internals.
NODE_INTERNALS = frozenset({"kernel", "machine"})

#: Cluster modules allowed to open a node up (see module docstring).
SANCTIONED_MODULES = frozenset({"node", "rpc", "serving"})


class ClusterDisciplineRule(Rule):
    name = "cluster-discipline"
    description = ("fabric code may not reach through a Node into its "
                   "kernel/machine — cross-node work goes through the "
                   "RPC layer")

    def check(self, module: ModuleInfo) -> Iterator[LintViolation]:
        if module.unit != "cluster":
            return
        parts = module.modname.split(".")
        leaf = parts[2] if len(parts) > 2 else ""
        if leaf in SANCTIONED_MODULES:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr not in NODE_INTERNALS:
                continue
            if not names_in_chain(node.value) & NODE_SURFACES:
                continue
            v = self.violation(
                module, node.lineno,
                f"reaches {node.attr!r} through a node reference — a "
                f"node's machine state is private; use the serving "
                f"surface or repro.cluster.rpc so the crossing is "
                f"priced")
            if v:
                yield v
