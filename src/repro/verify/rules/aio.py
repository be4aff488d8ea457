"""Aio-discipline rule: ring memory moves only through the ring API.

The whole point of the submission/completion ring is that its header
indices and records are *memory-resident protocol state* shared across
an address-space boundary: every mutation must be cycle-charged and
ordering-checked by :class:`repro.aio.ring.XPCRing`.  Code elsewhere
that pokes a ring's internals — calling its private helpers
(``ring._write_index(...)``) or rebinding its geometry attributes
(``ring.entries = ...``) — bypasses the charging and the head/tail
discipline, silently breaking both the cycle model and the invariants
``repro.verify.check_ring_invariants`` later asserts.

Outside ``repro.aio`` this rule forbids:

* calling an underscore-prefixed method through an access chain that
  mentions a ring surface (``ring``/``rings``/``sq``/``cq``); and
* assigning (plain, augmented, annotated, or unpacking) to any
  attribute reached *through* such a chain, or to a ring-index
  attribute itself (``sq_head``, ``cq_tail``, ``next_seq``...) on any
  object.

Holding a ring reference (``self.ring = XPCRing.format(...)``) is a
plain read/bind and stays legal.  ``# verify-ok: aio-discipline``
suppresses a sanctioned site.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.verify.lint import (LintViolation, ModuleInfo, Rule,
                               assigned_attributes, names_in_chain)

#: Names that identify a ring object in an access chain.
RING_SURFACES = frozenset({"ring", "rings", "_ring", "sq", "cq"})

#: Ring index attributes: writable only inside repro.aio.  (Geometry
#: like ``entries`` is covered by the chain branch — the bare name is
#: too generic to claim globally.)
RING_STATE = frozenset({
    "sq_head", "sq_tail", "cq_head", "cq_tail", "next_seq",
    "arena_cursor",
})


def _flagged(node: ast.AST):
    """Yield (line, message) for ring-discipline breaches in *node*."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        func = node.func
        if (func.attr.startswith("_")
                and names_in_chain(func.value) & RING_SURFACES):
            yield (node.lineno,
                   f"calls private ring method {func.attr!r}")
    for t in assigned_attributes(node):
        if t.attr in RING_STATE:
            yield (node.lineno,
                   f"assigns ring state attribute {t.attr!r}")
        elif names_in_chain(t.value) & RING_SURFACES:
            yield (node.lineno,
                   f"writes attribute {t.attr!r} through a ring "
                   f"reference")


class AioDisciplineRule(Rule):
    name = "aio-discipline"
    description = ("ring memory and indices are touched only through "
                   "the XPCRing API outside repro.aio")

    def check(self, module: ModuleInfo) -> Iterator[LintViolation]:
        if not module.modname.startswith("repro."):
            return
        if module.unit == "aio":
            return
        for node in ast.walk(module.tree):
            for line, what in _flagged(node):
                v = self.violation(
                    module, line,
                    f"{what} outside repro.aio — go through the "
                    f"XPCRing push/pop/reset API so the mutation is "
                    f"cycle-charged and invariant-checked")
                if v:
                    yield v
