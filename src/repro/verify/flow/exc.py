"""flow-except: the exception-flow audit.

The engine's error discipline is *typed*: ``XPCPeerDiedError``,
``LinkStackOverflowError``, ``XPCRingFullError`` and friends (paper
Table 2) are part of the protocol's contract, and callers are expected
to branch on them.  A **broad** ``except`` (bare, ``Exception``, or
``BaseException``) that *swallows* the error — neither re-raising nor
even referencing the caught exception — and then continues onto a path
that mutates engine/ring state turns a protocol abort into silent state
corruption.

The audit runs on the CFG of every function in the mechanism layers
(:data:`SCOPE_UNITS`).  A handler is flagged when all three hold:

1. its type is broad (``except:``, ``except Exception``,
   ``except BaseException``, or a tuple containing one of those);
2. it swallows: no ``raise`` anywhere in the handler body, and the
   bound name (``except Exception as exc``) is absent or never read —
   a handler that logs, wraps, or stores ``exc`` made a decision; one
   that ignores it did not;
3. from the handler's entry node, a **state mutation** is CFG-reachable
   (an attribute assignment, or a call to one of the mutating protocol
   operations in :data:`MUTATORS`) — i.e. execution continues as if the
   operation had succeeded.

Suppress a sanctioned catch-all with ``# verify-ok: flow-except`` on the
``except`` line.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, List, Optional, Tuple

from repro.verify.lint import LintViolation

from repro.verify.flow.cfg import CFG, CFGNode, call_name, effect_calls

#: Units whose functions the audit covers (the mechanism layers that own
#: engine/ring/kernel state).
SCOPE_UNITS: FrozenSet[str] = frozenset({
    "xpc", "kernel", "runtime", "ipc", "aio",
})

#: Broad exception type names.
BROAD_NAMES: FrozenSet[str] = frozenset({"Exception", "BaseException"})

#: Calls that mutate protocol state; reaching one after a swallowed
#: error is the bug.
MUTATORS: FrozenSet[str] = frozenset({
    "push", "pop", "force_pop", "spill", "unspill",
    "push_sqe", "pop_sqe", "push_cqe", "pop_cqe", "reset",
    "bind", "unbind", "swapseg", "xcall", "xret", "tick",
    "_store", "_write_index", "store", "install_relay_seg",
    "deactivate_relay_seg",
    "grant_xcall_cap", "revoke_xcall_cap", "kill_process",
    "invalidate_records_of", "set_address_space",
})


def _is_broad(type_expr: Optional[ast.expr]) -> bool:
    if type_expr is None:
        return True                          # bare except:
    if isinstance(type_expr, ast.Name):
        return type_expr.id in BROAD_NAMES
    if isinstance(type_expr, ast.Attribute):
        return type_expr.attr in BROAD_NAMES
    if isinstance(type_expr, ast.Tuple):
        return any(_is_broad(elt) for elt in type_expr.elts)
    return False


def _handler_swallows(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return False
    if handler.name:
        for node in ast.walk(handler):
            if isinstance(node, ast.Name) and node.id == handler.name \
                    and isinstance(node.ctx, ast.Load):
                return False
    return True


def _mutation_of(node: CFGNode) -> Optional[Tuple[int, str]]:
    """(line, description) if this CFG node mutates protocol state."""
    stmt = node.stmt
    if isinstance(stmt, (ast.Assign, ast.AugAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) \
            else [stmt.target]
        for target in targets:
            for t in ast.walk(target):
                if isinstance(t, ast.Attribute) and \
                        isinstance(t.ctx, ast.Store):
                    return stmt.lineno, f"writes .{t.attr}"
    if node.effect is not None:
        for call in effect_calls(node):
            name = call_name(call)
            if name in MUTATORS:
                line = getattr(call, "lineno", node.line)
                return line, f"calls {name}()"
    return None


def _reachable_mutation(cfg: CFG,
                        entry: int) -> Optional[Tuple[int, str]]:
    """The earliest-line state mutation CFG-reachable from *entry* (the
    handler body itself included — mutating state inside the swallowing
    handler is the same bug)."""
    best: Optional[Tuple[int, str]] = None
    for nid in sorted(cfg.reachable_from(entry)):
        found = _mutation_of(cfg.nodes[nid])
        if found and (best is None or found[0] < best[0]):
            best = found
    return best


class ExceptAnalysis:
    """Per-function audit over the CFGs; reported via FlowExcept."""

    def __init__(self, program) -> None:
        self.program = program

    def check(self, rule) -> Iterator[LintViolation]:
        for func in self.program.callgraph.functions:
            if func.unit not in SCOPE_UNITS:
                continue
            broad: List[ast.ExceptHandler] = [
                h for node in ast.walk(func.node)
                if isinstance(node, ast.Try) for h in node.handlers
                if _is_broad(h.type) and _handler_swallows(h)]
            if not broad:
                continue
            cfg = self.program.cfg_of(func)
            for handler in broad:
                entry = cfg.handler_entry.get(handler)
                if entry is None:
                    continue            # handler of a nested def
                found = _reachable_mutation(cfg, entry)
                if not found:
                    continue
                line, what = found
                v = rule.violation(
                    func.module, handler.lineno,
                    f"broad except in {func.qualname} swallows typed XPC "
                    f"errors (no re-raise, exception never read) on a "
                    f"path that then mutates protocol state "
                    f"(line {line}: {what}) — catch the specific "
                    f"repro.xpc.errors type or re-raise")
                if v:
                    yield v
