"""Read/write effect extraction: ``ctx.store`` keys and captured mutables.

The MHP rules need to know, for every task a finish site can run, *what that
task touches*: which ``ctx.store`` keys it reads or writes (statically, the
constant-string keys — f-string keys degrade to "some key", which the rules
then refuse to judge) and which mutable locals of an enclosing function it
captures and mutates.  :class:`EffectIndex` computes a memoized transitive
closure per function scope:

* direct accesses in the body,
* accesses of plain-called helpers (same task, same level),
* accesses of ``ctx.at`` bodies (same task, but executing at the at's
  destination — marked ``via_at`` so place-sensitive rules skip them),
* accesses of spawned sub-bodies (``level + 1`` — a *different* task whose
  accesses are concurrent with the enclosing task's siblings).

Levels let the MHP analysis over-approximate correctly: a level-0 access is
performed by the task itself, a level>=1 access by some descendant activity
that may still be running while siblings of the task execute.
"""

from __future__ import annotations

import ast
import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.analyze.callgraph import region_events, resolve_callee
from repro.analyze.sourcemodel import Program, Scope

#: expressions whose value is a mutable container (the captured-mutable model
#: shared with APG104/APG109)
MUTABLE_LITERALS = (
    ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp,
)

#: container methods that mutate their receiver
_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "remove", "discard", "clear", "sort", "reverse",
})

#: ``ctx.store.<method>()`` effect classes
_STORE_READ = frozenset({"get", "keys", "items", "values"})
_STORE_RW = frozenset({"setdefault", "pop"})
_STORE_WRITE = frozenset({"update", "clear"})


@dataclass(frozen=True)
class Access:
    """One static store/captured-mutable access."""

    path: str
    line: int
    op: str                     #: "read" | "write"
    target: str                 #: "store" | "captured"
    key: Optional[object]       #: constant store key / captured name; None = unknown
    level: int = 0              #: 0 = the task itself; n = n spawns below it
    via_at: bool = False        #: reached through a ``ctx.at`` body (place shifts)
    binding: Optional[str] = None  #: captured only: qualname of the binding scope


def mutable_captures(scope: Scope, program: Program) -> dict[str, str]:
    """Names free in ``scope`` that an enclosing *function* scope binds to a
    mutable literal: name -> binding scope qualname."""
    out: dict[str, str] = {}
    seen: set[str] = set()
    for stmt in scope.body_statements():
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id not in seen:
                seen.add(node.id)
                if node.id in scope.params:
                    continue
                enclosing = scope.parent
                if enclosing is None:
                    continue
                bound = program.binding_scope(node.id, enclosing)
                if (
                    bound is not None
                    and bound[0].kind in ("function", "lambda")
                    and isinstance(bound[1], MUTABLE_LITERALS)
                ):
                    out[node.id] = f"{bound[0].module.path}:{bound[0].qualname}"
    return out


def _store_attr(expr: ast.expr, ctx_name: Optional[str]) -> bool:
    """True when ``expr`` is ``<ctx>.store``."""
    return (
        ctx_name is not None
        and isinstance(expr, ast.Attribute)
        and expr.attr == "store"
        and isinstance(expr.value, ast.Name)
        and expr.value.id == ctx_name
    )


def _const_key(expr: Optional[ast.expr]):
    if isinstance(expr, ast.Constant) and isinstance(expr.value, (str, int)):
        return expr.value
    return None


class _DirectWalker(ast.NodeVisitor):
    """Direct accesses + governed structure of one statement region.

    Nested function definitions are skipped (their accesses belong to whoever
    calls or spawns them); nested finish blocks are *descended* — this walker
    only collects accesses and leaves concurrency structure to the caller.
    """

    def __init__(self, scope: Scope, program: Program) -> None:
        self.scope = scope
        self.program = program
        self.ctx_name = scope.ctx_param
        self.captures = mutable_captures(scope, program)
        self.accesses: list[Access] = []
        self.path = scope.module.path

    def visit_FunctionDef(self, node):  # separate scopes
        pass

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef
    visit_ClassDef = visit_FunctionDef

    def _add(self, line: int, op: str, target: str, key, binding=None) -> None:
        self.accesses.append(
            Access(self.path, line, op, target, key, binding=binding)
        )

    # -- ctx.store ------------------------------------------------------------

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if _store_attr(node.value, self.ctx_name):
            key = _const_key(node.slice)
            if isinstance(node.ctx, ast.Load):
                self._add(node.lineno, "read", "store", key)
            else:  # Store or Del
                self._add(node.lineno, "write", "store", key)
        elif (
            isinstance(node.value, ast.Name)
            and node.value.id in self.captures
        ):
            name = node.value.id
            op = "read" if isinstance(node.ctx, ast.Load) else "write"
            self._add(node.lineno, op, "captured", name, self.captures[name])
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        # the Store-context target only yields a "write"; an augmented
        # assignment also reads the old value
        target = node.target
        if isinstance(target, ast.Subscript):
            if _store_attr(target.value, self.ctx_name):
                self._add(node.lineno, "read", "store", _const_key(target.slice))
            elif (
                isinstance(target.value, ast.Name)
                and target.value.id in self.captures
            ):
                name = target.value.id
                self._add(node.lineno, "read", "captured", name, self.captures[name])
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if _store_attr(func.value, self.ctx_name):
                key = _const_key(node.args[0]) if node.args else None
                method = func.attr
                if method in _STORE_READ:
                    self._add(node.lineno, "read", "store", key)
                elif method in _STORE_RW:
                    self._add(node.lineno, "read", "store", key)
                    self._add(node.lineno, "write", "store", key)
                elif method in _STORE_WRITE:
                    self._add(node.lineno, "write", "store", key)
            elif (
                isinstance(func.value, ast.Name)
                and func.value.id in self.captures
            ):
                name = func.value.id
                op = "write" if func.attr in _MUTATING_METHODS else "read"
                self._add(node.lineno, op, "captured", name, self.captures[name])
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        # ``key in ctx.store``
        if any(
            _store_attr(comp, self.ctx_name) for comp in node.comparators
        ) and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
            self._add(node.lineno, "read", "store", _const_key(node.left))
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id in self.captures and isinstance(node.ctx, ast.Load):
            self._add(
                node.lineno, "read", "captured", node.id, self.captures[node.id]
            )


def _direct_accesses(statements, scope: Scope, program: Program) -> list[Access]:
    walker = _DirectWalker(scope, program)
    for stmt in statements:
        walker.visit(stmt)
    return walker.accesses


def _shift(accesses, delta_level: int = 0, via_at: bool = False) -> list[Access]:
    if delta_level == 0 and not via_at:
        return list(accesses)
    out = []
    for acc in accesses:
        out.append(
            dataclasses.replace(
                acc,
                level=acc.level + delta_level,
                via_at=acc.via_at or via_at,
            )
        )
    return out


class EffectIndex:
    """Memoized transitive access closure per function scope."""

    #: interprocedural depth guard, matching the inference engine's
    MAX_DEPTH = 8

    def __init__(self, program: Program) -> None:
        self.program = program
        self._cache: dict[int, list[Access]] = {}
        self._stack: set[int] = set()

    def scope_accesses(self, scope: Scope) -> list[Access]:
        """Everything ``scope`` may touch when run as an activity body:
        direct + helpers + at-bodies + spawned sub-bodies (level >= 1)."""
        key = id(scope)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if key in self._stack or len(self._stack) > self.MAX_DEPTH:
            return []  # recursion: the fixpoint contribution is already counted
        self._stack.add(key)
        try:
            out = self.region_accesses(
                scope.body_statements(), scope, include_spawns=True
            )
        finally:
            self._stack.discard(key)
        self._cache[key] = out
        return out

    def region_accesses(
        self, statements, scope: Scope, include_spawns: bool
    ) -> list[Access]:
        """Access closure of a statement region of ``scope``.

        ``include_spawns=False`` is the finish-site continuation view: spawns
        *directly* governed by the region's own finish are excluded (they are
        the sibling task groups), but spawns under a finish nested inside the
        region still contribute at level >= 1 — until that nested scope's
        wait, they run concurrently with the outer siblings.
        """
        out = _direct_accesses(statements, scope, self.program)
        events = region_events(statements, scope, self.program)
        # region_events reports only finish-depth-0 spawns/calls; fold in the
        # regions of nested finish blocks so the closure sees *everything*
        nested_spawns, nested_calls = self._nested_events(statements, scope)
        for call in list(events.calls) + nested_calls:
            out += self.scope_accesses(call.target)
        for ev in events.evals:  # evals are recorded at any finish depth
            if ev.callee is not None:
                out += _shift(self.scope_accesses(ev.callee), via_at=True)
        spawns = nested_spawns
        if include_spawns:
            spawns = spawns + list(events.spawns)
        for spawn in spawns:
            if spawn.callee is not None:
                out += _shift(self.scope_accesses(spawn.callee), delta_level=1)
        return out

    def _nested_events(self, statements, scope: Scope) -> tuple[list, list]:
        """Spawns and calls governed by finish blocks nested in the region."""
        from repro.analyze.callgraph import finish_sites

        in_region = {
            id(node) for stmt in statements for node in ast.walk(stmt)
        }
        spawns: list = []
        calls: list = []
        for site in finish_sites(scope, self.program):
            if id(site.with_node) in in_region:
                ev = region_events(site.with_node.body, site.scope, self.program)
                spawns.extend(ev.spawns)
                calls.extend(ev.calls)
        return spawns, calls
