"""Spawn-site and call-graph extraction over the APGAS surface.

The builder recognizes the spawning constructs of
:class:`~repro.runtime.activity.ActivityContext` — ``ctx.at_async(p, fn,
...)``, ``ctx.async_(fn, ...)``, ``ctx.async_copy(...)`` and ``ctx.gups(...)``
(remote operations without a body, like a copy) — plus plain
calls to functions the :class:`~repro.analyze.sourcemodel.Program` can
resolve, so pragma inference can follow activity bodies across function
boundaries.  Spawns are partitioned by the innermost ``finish`` scope that
governs them *within one function*: a spawn under a nested ``with
ctx.finish(...)`` belongs to that nested finish, while everything else in a
spawned body is governed by whatever finish spawned it (the APGAS rule the
intraprocedural prototype could not see).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional

from repro.analyze.sourcemodel import Program, Scope
from repro.runtime.finish.pragmas import Pragma

#: ActivityContext spawning methods and the fork kind each one creates
SPAWN_METHODS = {"at_async": "remote", "async_": "local", "async_copy": "copy", "gups": "copy"}


@dataclass
class Spawn:
    """One spawning call, lexically located."""

    kind: str  # "remote" | "local" | "copy"
    node: ast.Call
    scope: Scope  # the function the call appears in
    dest: Optional[ast.expr]  # destination place expression (remote only)
    callee_expr: Optional[ast.expr]
    callee: Optional[Scope]  # resolved body, when the Program can see it
    call_args: list  # arguments forwarded to the callee (after fn)
    loop_depth: int
    line: int
    #: interprocedural spawn level: 0 = directly under the finish, 1 = inside
    #: a spawned body, ... (filled in by the inference pass)
    level: int = 0
    #: the spawn sits under an ``if`` *inside* its loop, so the loop is not
    #: proof of multiple instances (e.g. ``if place == ctx.here:`` selecting
    #: one iteration); the MHP rules only treat unguarded loop spawns as
    #: provably self-parallel
    guarded: bool = False


@dataclass
class Eval:
    """One blocking remote evaluation ``ctx.at(place, fn, ...)``.

    Not a spawn — the activity shifts — but the MHP effect analysis needs it:
    the at-body's accesses happen at ``dest`` as part of the calling task.
    """

    node: ast.Call
    scope: Scope
    dest: Optional[ast.expr]
    callee_expr: Optional[ast.expr]
    callee: Optional[Scope]
    loop_depth: int
    line: int


@dataclass
class PlainCall:
    """A direct call to a resolvable function (``helper(...)``,
    ``yield from helper(...)``, ``self.method(...)``)."""

    target: Scope
    node: ast.Call
    loop_depth: int
    #: under an ``if`` inside its loop (see :attr:`Spawn.guarded`)
    guarded: bool = False


@dataclass
class FinishSiteNode:
    """One ``with ctx.finish(...)`` occurrence in the source."""

    with_node: ast.stmt  # ast.With or ast.AsyncWith
    item: ast.withitem
    scope: Scope
    lineno: int
    annotation: Optional[Pragma]  # literal Pragma.X argument, when present
    dynamic: bool  # an argument was present but is not a Pragma literal
    aliased: bool  # the context manager came through a name binding


@dataclass
class BodyEvents:
    """Everything relevant found in one governed region."""

    spawns: list = field(default_factory=list)
    calls: list = field(default_factory=list)
    #: ``ctx.at(...)`` evaluations — recorded at *any* finish depth (an at is
    #: not governed by a finish; the activity moves and comes back)
    evals: list = field(default_factory=list)
    #: an unresolvable call received a context argument and may hide spawns
    opaque: bool = False


def _finish_call(expr: ast.expr) -> Optional[ast.Call]:
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr == "finish"
    ):
        return expr
    return None


def _resolve_finish_item(item: ast.withitem, scope: Scope, program: Program):
    """(finish ``Call`` node, aliased) for a withitem, or (None, False)."""
    call = _finish_call(item.context_expr)
    if call is not None:
        return call, False
    if isinstance(item.context_expr, ast.Name):
        bound = program.binding_scope(item.context_expr.id, scope)
        if bound is not None:
            call = _finish_call(bound[1])
            if call is not None:
                return call, True
    return None, False


def _pragma_annotation(call: ast.Call) -> tuple[Optional[Pragma], bool]:
    """The literal ``Pragma.X`` argument of a finish call, if any."""
    arg: Optional[ast.expr] = None
    if call.args:
        arg = call.args[0]
    else:
        for kw in call.keywords:
            if kw.arg == "pragma":
                arg = kw.value
    if arg is None:
        return None, False
    if (
        isinstance(arg, ast.Attribute)
        and isinstance(arg.value, ast.Name)
        and arg.value.id == "Pragma"
    ):
        try:
            return Pragma[arg.attr], False
        except KeyError:
            return None, True
    return None, True


def finish_sites(scope: Scope, program: Program) -> list:
    """Every finish site lexically inside ``scope`` (nested defs excluded —
    they are their own scopes), in source order, walking *all* withitems and
    following context-manager aliases."""
    sites: list[FinishSiteNode] = []

    class V(ast.NodeVisitor):
        def visit_FunctionDef(self, node):  # do not descend
            pass

        visit_AsyncFunctionDef = visit_FunctionDef
        visit_Lambda = visit_FunctionDef
        visit_ClassDef = visit_FunctionDef

        def _with(self, node):
            for item in node.items:
                call, aliased = _resolve_finish_item(item, scope, program)
                if call is not None:
                    annotation, dynamic = _pragma_annotation(call)
                    sites.append(
                        FinishSiteNode(
                            with_node=node,
                            item=item,
                            scope=scope,
                            lineno=item.context_expr.lineno,
                            annotation=annotation,
                            dynamic=dynamic,
                            aliased=aliased,
                        )
                    )
            self.generic_visit(node)

        visit_With = _with
        visit_AsyncWith = _with

    visitor = V()
    for stmt in scope.body_statements():
        visitor.visit(stmt)
    return sites


def _is_context_name(name: str, scope: Scope) -> bool:
    """Heuristic: ``name`` is an activity-context parameter of an enclosing
    function (so passing it to an unresolvable call may hide spawns)."""
    s: Optional[Scope] = scope
    while s is not None:
        if s.kind in ("function", "lambda") and s.ctx_param == name:
            return True
        s = s.parent
    return False


def _passes_context(call: ast.Call, scope: Scope) -> bool:
    for arg in list(call.args) + [kw.value for kw in call.keywords]:
        if isinstance(arg, ast.Name) and _is_context_name(arg.id, scope):
            return True
    return False


class _EventWalker(ast.NodeVisitor):
    """Collect spawns and calls in one governed region of one function.

    ``finish_depth`` counts enclosing finish ``with`` blocks relative to the
    walk root; only depth-0 events are reported — spawns under a nested
    finish are governed by that finish, not by the region being analyzed.
    """

    def __init__(self, scope: Scope, program: Program) -> None:
        self.scope = scope
        self.program = program
        self.events = BodyEvents()
        self.loop_depth = 0
        self.finish_depth = 0
        self.guard_depth = 0  # `if` nesting inside the innermost loop

    # nested scopes are analyzed separately (their spawns belong to whoever
    # calls or spawns them)
    def visit_FunctionDef(self, node):
        pass

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef
    visit_ClassDef = visit_FunctionDef

    def _loop(self, node):
        self.loop_depth += 1
        saved_guard = self.guard_depth
        self.guard_depth = 0
        self.generic_visit(node)
        self.guard_depth = saved_guard
        self.loop_depth -= 1

    visit_For = _loop
    visit_AsyncFor = _loop
    visit_While = _loop

    def visit_If(self, node):
        if self.loop_depth == 0:
            self.generic_visit(node)
            return
        self.visit(node.test)
        self.guard_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        for stmt in node.orelse:
            self.visit(stmt)
        self.guard_depth -= 1

    def _with(self, node):
        is_finish = any(
            _resolve_finish_item(item, self.scope, self.program)[0] is not None
            for item in node.items
        )
        for item in node.items:
            self.visit(item.context_expr)
        if is_finish:
            self.finish_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        if is_finish:
            self.finish_depth -= 1

    visit_With = _with
    visit_AsyncWith = _with

    def visit_Call(self, node: ast.Call) -> None:
        if self._record_eval(node) is None and self.finish_depth == 0:
            self._record(node)
        self.generic_visit(node)

    def _record_eval(self, node: ast.Call) -> Optional[Eval]:
        """``ctx.at(place, fn, ...)`` — receiver must be a context name (many
        unrelated objects have an ``.at`` attribute, e.g. numpy ufuncs)."""
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr == "at"
            and isinstance(func.value, ast.Name)
            and _is_context_name(func.value.id, self.scope)
        ):
            return None
        dest = node.args[0] if node.args else None
        callee_expr = node.args[1] if len(node.args) > 1 else None
        ev = Eval(
            node=node,
            scope=self.scope,
            dest=dest,
            callee_expr=callee_expr,
            callee=self._resolve_callee(callee_expr),
            loop_depth=self.loop_depth,
            line=node.lineno,
        )
        self.events.evals.append(ev)
        return ev

    def _record(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in SPAWN_METHODS:
            kind = SPAWN_METHODS[func.attr]
            dest = callee_expr = None
            call_args: list = []
            if kind == "remote" and node.args:
                dest = node.args[0]
                callee_expr = node.args[1] if len(node.args) > 1 else None
                call_args = list(node.args[2:])
            elif kind == "local" and node.args:
                callee_expr = node.args[0]
                call_args = list(node.args[1:])
            callee = self._resolve_callee(callee_expr)
            self.events.spawns.append(
                Spawn(
                    kind=kind,
                    node=node,
                    scope=self.scope,
                    dest=dest,
                    callee_expr=callee_expr,
                    callee=callee,
                    call_args=call_args,
                    # a GUPS batch reaches every owner of its values: a place loop of its own
                    loop_depth=self.loop_depth + (func.attr == "gups"),
                    line=node.lineno,
                    guarded=self.guard_depth > 0,
                )
            )
            return
        target = self._resolve_callee(func)
        if target is not None:
            self.events.calls.append(
                PlainCall(
                    target=target, node=node, loop_depth=self.loop_depth,
                    guarded=self.guard_depth > 0,
                )
            )
        elif _passes_context(node, self.scope):
            # an unresolvable call was handed an activity context: it may
            # spawn on our behalf, so classifications lose confidence
            self.events.opaque = True

    def _resolve_callee(self, expr: Optional[ast.expr]) -> Optional[Scope]:
        return resolve_callee(expr, self.scope, self.program)


def resolve_callee(expr: Optional[ast.expr], scope: Scope, program: Program) -> Optional[Scope]:
    """Resolve a call-target expression to a function scope, when possible:
    plain names, lambdas, ``self``/``cls`` methods, and dotted module-alias
    targets (``rt.helper`` after ``import repro.runtime as rt``)."""
    if expr is None:
        return None
    if isinstance(expr, ast.Name):
        return program.resolve_function(expr.id, scope)
    if isinstance(expr, ast.Lambda):
        return program.scope_of.get(expr)
    if isinstance(expr, ast.Attribute):
        if isinstance(expr.value, ast.Name) and expr.value.id in ("self", "cls"):
            return program.resolve_method(scope, expr.attr)
        return program.resolve_module_function(expr, scope)
    return None


def region_events(statements, scope: Scope, program: Program) -> BodyEvents:
    """Spawns/calls governed by the region's own finish context (depth 0)."""
    walker = _EventWalker(scope, program)
    for stmt in statements:
        walker.visit(stmt)
    return walker.events


def ungoverned_events(scope: Scope, program: Program) -> BodyEvents:
    """Spawns/calls in ``scope`` that are *not* under any finish ``with`` of
    this function — when the function runs as a spawned body, these are
    governed by the finish that spawned it."""
    return region_events(scope.body_statements(), scope, program)
