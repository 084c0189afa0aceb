"""The APGAS anti-pattern rule catalogue (APG101..APG110).

Each rule targets a failure mode the runtime or the paper calls out:

========  ==========================  ==============================================
APG101    pragma-mismatch             annotation provably violates its own
                                      FORK_RULES entry (PragmaError at runtime)
APG102    escaping-activity           a task handle outlives its governing finish
APG103    blocking-call-in-activity   a real blocking call inside a simulated activity
APG104    mutable-capture             remote body mutates a captured local (race hazard)
APG105    default-finish-in-hot-loop  unannotated finish per loop iteration (paper 3.1)
APG106    unbounded-glb-victims       GLB configured with an unbounded victim set
APG107    resilient-without-hooks     resilient-capable kernel registers no
                                      checkpoint/restore hooks
APG108    concurrent-store-write      MHP tasks write the same store key at a
                                      provably identical place
APG109    captured-mutable-race       sibling local activities race on a captured
                                      mutable (write vs any access)
APG110    remote-rmw-unordered        an at-body read-modify-writes a remote key
                                      with no ordering finish between instances
========  ==========================  ==============================================

Rules only fire on *provable* violations — a ``confident=False``
classification (an unresolved body may hide spawns) never triggers
APG101, mirroring how the paper's prototype analysis falls back to the
always-correct default instead of guessing.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analyze.callgraph import (
    SPAWN_METHODS,
    finish_sites,
    region_events,
    ungoverned_events,
)
from repro.analyze.infer import SiteClassification, iter_function_scopes
from repro.analyze.rules import Finding, RuleContext, RuleInfo, Severity, rule
from repro.analyze.sourcemodel import Scope
from repro.runtime.finish.pragmas import Pragma


def _all_scopes(ctx: RuleContext):
    for module in ctx.program.modules:
        yield ctx.program.module_scope[module.path]
        yield from iter_function_scopes(ctx.program, module)


def _all_spawns(ctx: RuleContext):
    """Every spawn in every analyzed module, exactly once (the ungoverned
    region of each scope plus each finish site's governed region)."""
    for scope in _all_scopes(ctx):
        yield from ungoverned_events(scope, ctx.program).spawns
        for site in finish_sites(scope, ctx.program):
            yield from region_events(site.with_node.body, site.scope, ctx.program).spawns


# -- APG101 ----------------------------------------------------------------------


@rule("APG101", "pragma-mismatch", Severity.ERROR)
def pragma_mismatch(ctx: RuleContext, info: RuleInfo) -> Iterator[Finding]:
    """A hand-written pragma contradicts what the finish can actually govern:
    the runtime will raise PragmaError on the first offending fork."""
    for c in ctx.classifications:
        if not c.confident or c.dynamic or c.annotation is None:
            continue
        ann = c.annotation
        violated = ""
        total = c.n_remote + c.n_local
        if ann is Pragma.FINISH_ASYNC and (
            total > 1 or c.max_loop >= 1 or c.spawning_children
        ):
            violated = "governs a single activity, but this finish spawns more"
        elif ann is Pragma.FINISH_HERE and (c.max_loop >= 1 or total > 2):
            violated = "governs a two-activity round trip, but this finish spawns more"
        elif ann is Pragma.FINISH_LOCAL and c.n_remote >= 1 and not c.remote_dests_home:
            violated = "cannot govern remote activities, but this finish spawns some"
        if violated:
            module = ctx.module(c.path)
            yield ctx.finding(
                info,
                module,
                c.lineno,
                f"{ann.value} {violated} ({c.reason}); "
                f"the analyzer suggests {c.suggestion.value}",
            )


# -- APG102 ----------------------------------------------------------------------


def _spawn_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in SPAWN_METHODS
    )


@rule("APG102", "escaping-activity", Severity.WARNING)
def escaping_activity(ctx: RuleContext, info: RuleInfo) -> Iterator[Finding]:
    """An activity handle created under a finish escapes the governing
    ``with`` block (returned, yielded, or used after the block): the handle
    outlives the scope that guarantees its termination."""
    for c in ctx.classifications:
        scope = c.site.scope
        module = scope.module
        with_node = c.site.with_node
        end = getattr(with_node, "end_lineno", with_node.lineno)
        handles: dict[str, int] = {}
        for stmt in with_node.body:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and _spawn_call(node.value)
                ):
                    handles[node.targets[0].id] = node.lineno
                elif isinstance(node, (ast.Return, ast.Yield)) and node.value is not None:
                    if _spawn_call(node.value):
                        verb = "returned" if isinstance(node, ast.Return) else "yielded"
                        yield ctx.finding(
                            info,
                            module,
                            node.lineno,
                            f"activity handle {verb} out of its governing finish "
                            f"(opened at line {c.lineno})",
                        )
        if not handles:
            continue
        for stmt in scope.body_statements():
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in handles
                    and node.lineno > end
                ):
                    yield ctx.finding(
                        info,
                        module,
                        handles[node.id],
                        f"activity handle '{node.id}' escapes its governing finish "
                        f"(used at line {node.lineno}, finish ends at line {end})",
                    )
                    del handles[node.id]
                    if not handles:
                        break


# -- APG103 ----------------------------------------------------------------------

#: (module, function) pairs that block the OS thread — poison inside a
#: simulated activity, which must only yield virtual-time effects
_BLOCKING = {
    ("time", "sleep"),
    ("os", "system"),
    ("subprocess", "run"),
    ("subprocess", "call"),
    ("subprocess", "check_call"),
    ("subprocess", "check_output"),
    ("subprocess", "Popen"),
    ("socket", "create_connection"),
}


def _blocking_name(node: ast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Name) and func.id == "input":
        return "input()"
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and (func.value.id, func.attr) in _BLOCKING
    ):
        return f"{func.value.id}.{func.attr}()"
    return None


@rule("APG103", "blocking-call-in-activity", Severity.WARNING)
def blocking_call_in_activity(ctx: RuleContext, info: RuleInfo) -> Iterator[Finding]:
    """A real blocking call (time.sleep, subprocess, ...) inside an activity
    body stalls the whole cooperative simulator; use virtual-time effects
    like ``ctx.compute`` / ``ctx.sleep`` instead."""
    bodies: set[Scope] = set()
    for spawn in _all_spawns(ctx):
        if spawn.callee is not None:
            bodies.add(spawn.callee)
    seen: set[tuple[str, int]] = set()
    for body in sorted(bodies, key=lambda s: (s.module.path, s.node.lineno)):
        for stmt in body.body_statements():
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    blocking = _blocking_name(node)
                    key = (body.module.path, node.lineno)
                    if blocking and key not in seen:
                        seen.add(key)
                        yield ctx.finding(
                            info,
                            body.module,
                            node.lineno,
                            f"{blocking} blocks the worker thread inside activity "
                            f"'{body.qualname}'; yield a virtual-time effect instead",
                        )


# -- APG104 ----------------------------------------------------------------------

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def _mutated_names(body: Scope) -> Iterator[tuple[str, int]]:
    """Names the body mutates through subscript assignment/deletion."""
    for stmt in body.body_statements():
        for node in ast.walk(stmt):
            targets: list = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            for t in targets:
                if isinstance(t, ast.Subscript) and isinstance(t.value, ast.Name):
                    yield t.value.id, node.lineno


@rule("APG104", "mutable-capture", Severity.WARNING)
def mutable_capture(ctx: RuleContext, info: RuleInfo) -> Iterator[Finding]:
    """A remotely spawned body mutates a mutable local captured from an
    enclosing function: on a real multi-place runtime that write happens in
    another address space and is lost (the simulator shares one heap, so the
    bug is silent here but real at scale)."""
    seen: set[tuple[str, int, str]] = set()
    for spawn in _all_spawns(ctx):
        if spawn.kind != "remote" or spawn.callee is None:
            continue
        body = spawn.callee
        for name, lineno in _mutated_names(body):
            if name in body.params or name in body.assigns:
                continue  # the body's own local
            bound = ctx.program.binding_scope(name, body)
            if bound is None:
                continue
            bscope, bexpr = bound
            if bscope.kind not in ("function", "lambda"):
                continue  # module-level state is out of scope for this rule
            if not isinstance(bexpr, _MUTABLE_LITERALS):
                continue
            key = (body.module.path, lineno, name)
            if key in seen:
                continue
            seen.add(key)
            yield ctx.finding(
                info,
                body.module,
                lineno,
                f"remote activity '{body.qualname}' mutates '{name}' captured "
                f"from enclosing scope '{bscope.qualname}' (spawned at "
                f"line {spawn.line}): cross-place race hazard",
            )


# -- APG105 ----------------------------------------------------------------------


def _with_loop_depth(c: SiteClassification) -> int:
    """Loop nesting of the finish ``with`` statement within its function."""
    found: list[int] = []

    def visit(node: ast.AST, depth: int) -> None:
        if found:
            return
        if node is c.site.with_node:
            found.append(depth)
            return
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            depth += 1
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            return  # nested scopes are classified in their own right
        for child in ast.iter_child_nodes(node):
            visit(child, depth)

    for stmt in c.site.scope.body_statements():
        visit(stmt, 0)
    return found[0] if found else 0


@rule("APG105", "default-finish-in-hot-loop", Severity.WARNING)
def default_finish_in_hot_loop(ctx: RuleContext, info: RuleInfo) -> Iterator[Finding]:
    """A DEFAULT finish opened per loop iteration pays the full
    spawn-matrix protocol every time (the O(n^2) control-space hazard of
    paper section 3.1); annotate the specialized pragma the analyzer infers."""
    for c in ctx.classifications:
        if c.dynamic or c.effective_annotation is not Pragma.DEFAULT:
            continue
        if c.n_remote + c.n_local == 0:
            continue  # an empty finish in a loop costs little
        if _with_loop_depth(c) < 1:
            continue
        hint = (
            f"the analyzer suggests {c.suggestion.value} ({c.reason})"
            if c.suggestion is not Pragma.DEFAULT and c.confident
            else "annotate a specialized pragma or hoist the finish out of the loop"
        )
        yield ctx.finding(
            info,
            ctx.module(c.path),
            c.lineno,
            f"DEFAULT finish inside a loop re-pays full termination-detection "
            f"state per iteration; {hint}",
        )


# -- APG106 ----------------------------------------------------------------------


def _is_glbconfig(expr: ast.expr) -> bool:
    return (isinstance(expr, ast.Name) and expr.id == "GlbConfig") or (
        isinstance(expr, ast.Attribute) and expr.attr == "GlbConfig"
    )


@rule("APG106", "unbounded-glb-victims", Severity.WARNING)
def unbounded_glb_victims(ctx: RuleContext, info: RuleInfo) -> Iterator[Finding]:
    """GLB configured with an unbounded victim set: at scale every idle
    worker may target every other place, the all-to-all steal pattern the
    bounded-victims optimization exists to prevent."""
    for module in ctx.program.modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            for kw in node.keywords:
                if (
                    kw.arg == "max_victims"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is None
                ):
                    yield ctx.finding(
                        info,
                        module,
                        node.lineno,
                        "explicit max_victims=None configures an unbounded "
                        "victim set (all-to-all steals at scale)",
                    )
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "original"
                and _is_glbconfig(func.value)
                and not any(kw.arg == "max_victims" for kw in node.keywords)
            ):
                yield ctx.finding(
                    info,
                    module,
                    node.lineno,
                    "GlbConfig.original() disables the victim bound "
                    "(max_victims=None): unbounded steal fan-out at scale",
                )


# -- APG107 ----------------------------------------------------------------------

#: referencing any of these names counts as wiring up checkpoint/restore
_RESILIENT_MACHINERY = {"run_resilient_epochs"}


def _has_resilient_switch(node) -> bool:
    """True when the function takes a boolean ``resilient`` toggle.

    Parameters that *carry* resilience machinery (e.g. an Optional hook
    object) rather than switch it on are not the rule's target.
    """
    args = node.args
    pos = list(args.posonlyargs) + list(args.args)
    defaults = [None] * (len(pos) - len(args.defaults)) + list(args.defaults)
    pairs = list(zip(pos, defaults)) + list(zip(args.kwonlyargs, args.kw_defaults))
    for a, default in pairs:
        if a.arg != "resilient":
            continue
        if isinstance(a.annotation, ast.Name) and a.annotation.id == "bool":
            return True
        if isinstance(default, ast.Constant) and isinstance(default.value, bool):
            return True
    return False


def _forwards_resilient(node) -> bool:
    """The body hands its ``resilient`` flag to someone else (a dispatcher)."""
    for stmt in node.body:
        for n in ast.walk(stmt):
            if isinstance(n, ast.Call) and any(
                kw.arg == "resilient" for kw in n.keywords
            ):
                return True
            if isinstance(n, ast.Assign):
                for t in n.targets:
                    if (
                        isinstance(t, ast.Subscript)
                        and isinstance(t.slice, ast.Constant)
                        and t.slice.value == "resilient"
                    ):
                        return True
    return False


def _names_used(node) -> set:
    used = set()
    for stmt in node.body:
        for n in ast.walk(stmt):
            if isinstance(n, ast.Name):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
    return used


@rule("APG107", "resilient-without-hooks", Severity.WARNING)
def resilient_without_hooks(ctx: RuleContext, info: RuleInfo) -> Iterator[Finding]:
    """A kernel advertises a ``resilient`` switch but never touches the
    checkpoint machinery: under ``--resilient`` a place death still kills the
    whole run because nothing was ever checkpointed.
    References are followed through same-module helpers, so delegating the
    wiring to a ``_make_resilient_*`` factory stays clean."""
    for module in ctx.program.modules:
        toplevel = {
            n.name: n
            for n in module.tree.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _has_resilient_switch(node) or _forwards_resilient(node):
                continue
            # transitive closure over same-module helpers the body references
            used = set()
            frontier = [node]
            visited = {node.name}
            while frontier:
                for name in _names_used(frontier.pop()):
                    used.add(name)
                    helper = toplevel.get(name)
                    if helper is not None and name not in visited:
                        visited.add(name)
                        frontier.append(helper)
            if used & _RESILIENT_MACHINERY:
                continue
            yield ctx.finding(
                info,
                module,
                node.lineno,
                f"'{node.name}' takes a 'resilient' parameter but registers no "
                "checkpoint/restore hooks (run_resilient_epochs): place deaths "
                "stay fatal",
            )


# -- APG108..APG110: determinacy-race rules over the MHP analysis ----------------
#
# These rules intersect the per-finish-site task groups of
# :class:`repro.analyze.mhp.MhpAnalysis` with the effect closure of each
# group, then demand *provability* before firing: level-0 accesses only (the
# task itself, so the executing place is known), constant store keys, and a
# place token that provably coincides.  Anything weaker stays silent — the
# dynamic vector-clock detector exists for the cases static analysis must
# refuse to judge.


def _place_token(group):
    """Where the group's level-0 accesses provably execute: ``"here"`` for
    the continuation and local spawns, ``("place", p)`` for a remote spawn
    with a literal destination, ``None`` when unprovable (loop-variable
    destinations and the like)."""
    if group.kind in ("continuation", "local"):
        return "here"
    spawn = group.spawn
    if spawn is not None and isinstance(spawn.dest, ast.Constant):
        return ("place", spawn.dest.value)
    return None


def _level0_store(group, op: str):
    """The group's own constant-key store accesses (not through ``ctx.at``)."""
    return [
        a
        for a in group.accesses
        if a.target == "store"
        and a.op == op
        and a.key is not None
        and a.level == 0
        and not a.via_at
    ]


@rule("APG108", "concurrent-store-write", Severity.ERROR)
def concurrent_store_write(ctx: RuleContext, info: RuleInfo) -> Iterator[Finding]:
    """Two may-happen-in-parallel tasks of one finish both write the same
    constant ``ctx.store`` key at a provably identical place — the scheduler
    picks the survivor, so the program is nondeterministic.  A spawn in an
    unguarded loop races its own sister instances the same way."""
    seen: set = set()
    for sg in ctx.mhp.site_groups():
        writes = []  # (group index, multi, place token, access)
        for gi, group in enumerate(sg.groups):
            token = _place_token(group)
            for acc in _level0_store(group, "write"):
                writes.append((gi, group.multi, token, acc))
        for i, (gia, ma, ta, aa) in enumerate(writes):
            if ta is None:
                continue
            where = "here" if ta == "here" else f"place {ta[1]}"
            if ma:
                key = (aa.path, aa.line, aa.key, "self")
                if key not in seen:
                    seen.add(key)
                    yield ctx.finding(
                        info,
                        ctx.module(aa.path),
                        aa.line,
                        f"store key {aa.key!r} is written at {where} by every "
                        f"instance of a loop-spawned activity (finish at line "
                        f"{sg.site.lineno}): last writer wins nondeterministically",
                    )
            for gib, mb, tb, ab in writes[i + 1 :]:
                if gib == gia or tb != ta or ab.key != aa.key:
                    continue
                key = (aa.path, aa.line, ab.path, ab.line, aa.key)
                if key in seen:
                    continue
                seen.add(key)
                yield ctx.finding(
                    info,
                    ctx.module(aa.path),
                    aa.line,
                    f"store key {aa.key!r} is written at {where} by two "
                    f"concurrent tasks of the finish at line {sg.site.lineno} "
                    f"(other write at {ab.line}): unsynchronized write-write race",
                )


@rule("APG109", "captured-mutable-race", Severity.WARNING)
def captured_mutable_race(ctx: RuleContext, info: RuleInfo) -> Iterator[Finding]:
    """Sibling *local* activities of one finish race on a mutable captured
    from an enclosing function: one writes while another reads or writes,
    with no happens-before edge between them.  (Remote captures are APG104's
    domain — on a real runtime they do not even share the heap.)"""
    seen: set = set()
    for sg in ctx.mhp.site_groups():
        by_binding: dict = {}  # (name, binding qualname) -> [(gi, multi, acc)]
        for gi, group in enumerate(sg.groups):
            if group.kind != "local":
                continue
            for acc in group.accesses:
                if (
                    acc.target == "captured"
                    and acc.level == 0
                    and not acc.via_at
                    and acc.binding is not None
                ):
                    by_binding.setdefault((acc.key, acc.binding), []).append(
                        (gi, group.multi, acc)
                    )
        for (name, _binding), entries in by_binding.items():
            groups_involved = {gi for gi, _, _ in entries}
            for gi, multi, acc in entries:
                if acc.op != "write":
                    continue
                if not multi and len(groups_involved) < 2:
                    continue  # one single-instance task mutating alone is fine
                key = (acc.path, acc.line, name)
                if key in seen:
                    continue
                seen.add(key)
                how = (
                    "every instance of a loop-spawned activity"
                    if multi
                    else "concurrent sibling activities"
                )
                yield ctx.finding(
                    info,
                    ctx.module(acc.path),
                    acc.line,
                    f"captured mutable '{name}' is mutated by {how} of the "
                    f"finish at line {sg.site.lineno} with no ordering between "
                    f"them: read/write race",
                )


def _body_evals(ctx: RuleContext, scope: Scope, depth: int = 0, stack=None) -> list:
    """``ctx.at`` evaluations a spawned body performs, following plain
    helper calls (depth- and cycle-guarded)."""
    if stack is None:
        stack = set()
    if depth > 8 or id(scope) in stack:
        return []
    stack.add(id(scope))
    try:
        events = ungoverned_events(scope, ctx.program)
        out = list(events.evals)
        for call in events.calls:
            out += _body_evals(ctx, call.target, depth + 1, stack)
    finally:
        stack.discard(id(scope))
    return out


@rule("APG110", "remote-rmw-unordered", Severity.WARNING)
def remote_rmw_unordered(ctx: RuleContext, info: RuleInfo) -> Iterator[Finding]:
    """An activity body uses ``ctx.at`` to read *and* write the same store
    key at a literal remote place, and the finish runs several such bodies
    concurrently: the read-modify-write interleaves across instances and
    updates are lost.  The same at-body called sequentially (or by a single
    activity) is fine — ordering comes from the activity itself."""
    seen: set = set()
    for sg in ctx.mhp.site_groups():
        rmws = []  # (group index, multi, dest literal, key, Eval)
        for gi, group in enumerate(sg.groups):
            spawn = group.spawn
            if spawn is None or spawn.callee is None:
                continue
            for ev in _body_evals(ctx, spawn.callee):
                if ev.callee is None or not isinstance(ev.dest, ast.Constant):
                    continue
                closure = ctx.mhp.effects.scope_accesses(ev.callee)
                own = [
                    a
                    for a in closure
                    if a.target == "store"
                    and a.key is not None
                    and a.level == 0
                    and not a.via_at
                ]
                read = {a.key for a in own if a.op == "read"}
                written = {a.key for a in own if a.op == "write"}
                for key in sorted(read & written, key=repr):
                    rmws.append((gi, group.multi, ev.dest.value, key, ev))
        for i, (gia, ma, da, ka, ea) in enumerate(rmws):
            conflict = ma or any(
                gib != gia and db == da and kb == ka
                for gib, _mb, db, kb, _eb in rmws[i + 1 :]
            )
            if not conflict:
                continue
            dedup = (ea.scope.module.path, ea.line, ka)
            if dedup in seen:
                continue
            seen.add(dedup)
            yield ctx.finding(
                info,
                ctx.module(ea.scope.module.path),
                ea.line,
                f"at-body '{ea.callee.qualname}' read-modify-writes store key "
                f"{ka!r} at place {da!r}; concurrent sibling activities of the "
                f"finish at line {sg.site.lineno} interleave the update "
                f"(lost-update race) — order them with a finish per round",
            )
