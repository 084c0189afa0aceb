"""The protocol auditor: check paper invariants against a recorded trace.

The paper's central claims are quantitative protocol claims; this module
post-processes an event trace (:mod:`repro.obs.trace`) and verifies them:

* **Finish control-message counts** match the closed-form expectation of the
  pragma (paper Section 3.1): one count-only message per remotely terminating
  activity for FINISH_ASYNC / FINISH_HERE / FINISH_SPMD and the default
  task-balancing algorithm, zero for FINISH_LOCAL, and between ``r`` and
  ``3r`` software-routed hops for ``r`` remote joins under FINISH_DENSE
  (p -> master(p) -> master(home) -> home, with coalescing at the masters).
* **GLB victim out-degree** is bounded by 1,024 (Section 6.1): no place ever
  directs random steal requests at more distinct victims.
* **Broadcast tree depth** is at most ceil(log2 n) over an n-place group
  (Section 3.2): the binomial spawning tree replaces the O(p) flood.
* **Routing** never exceeds 3 physical hops (Section 4): direct-striped
  L-D-L routes are the longest paths on the Power 775 fabric.
* **Chaos recovery** (fault-injection runs): the resilient transport delivers
  each logical transfer to the application *exactly once* however many
  duplicates the fabric produced, and every dropped data message is either
  retried until delivered or written off against a recorded place death —
  dropped messages never vanish silently.

Checks whose evidence is absent from the trace (e.g. no broadcast ran) are
reported as skipped, not passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from repro.obs.trace import TraceEvent, Tracer

#: the paper's bound on the GLB communication-graph out-degree
VICTIM_OUT_DEGREE_BOUND = 1024

#: longest physical route on the direct-striped fabric (L-D-L)
MAX_ROUTE_HOPS = 3

#: worst-case software-routing hops for one FINISH_DENSE termination report
DENSE_MAX_HOPS = 3


@dataclass
class AuditCheck:
    """Outcome of one invariant check."""

    name: str
    passed: Optional[bool]  # None = skipped (no evidence in the trace)
    expected: str = ""
    actual: str = ""
    detail: str = ""

    @property
    def skipped(self) -> bool:
        return self.passed is None


@dataclass
class AuditReport:
    """All checks run against one trace."""

    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when no executed check failed (skipped checks do not count)."""
        return all(c.passed is not False for c in self.checks)

    @property
    def failures(self) -> list:
        return [c for c in self.checks if c.passed is False]

    def check(self, name: str) -> AuditCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def render(self) -> str:
        lines = [f"protocol audit: {'PASS' if self.passed else 'FAIL'}"]
        for c in self.checks:
            mark = "skip" if c.skipped else ("PASS" if c.passed else "FAIL")
            line = f"  [{mark}] {c.name}"
            if c.expected or c.actual:
                line += f": expected {c.expected}, observed {c.actual}"
            if c.detail:
                line += f" ({c.detail})"
            lines.append(line)
        return "\n".join(lines)


def _events(trace: Union[Tracer, Iterable[TraceEvent]]) -> list:
    return list(trace.events if isinstance(trace, Tracer) else trace)


def audit_trace(trace: Union[Tracer, Iterable[TraceEvent]], places: int) -> AuditReport:
    """Run every applicable invariant check against ``trace``."""
    events = _events(trace)
    report = AuditReport()
    report.checks.append(
        AuditCheck(
            name="trace.nonempty",
            passed=bool(events),
            expected="> 0 events",
            actual=f"{len(events)} events",
        )
    )
    report.checks.append(_check_finish(events))
    report.checks.append(_check_pragma_shapes(events))
    report.checks.append(_check_victim_out_degree(events, places))
    report.checks.append(_check_broadcast_depth(events))
    report.checks.append(_check_routing(events))
    report.checks.append(_check_exactly_once(events))
    report.checks.append(_check_retry_recovery(events))
    report.checks.append(_check_epoch_consistency(events))
    report.checks.append(_check_serve_isolation(events))
    return report


# -- finish control-message counts ------------------------------------------------


def expected_ctl_bounds(pragma: str, remote_joins: int) -> tuple:
    """Closed-form (min, max) control-message count for one finish."""
    if pragma == "finish_local":
        return (0, 0)
    if pragma == "finish_dense":
        if remote_joins == 0:
            return (0, 0)
        return (remote_joins, DENSE_MAX_HOPS * remote_joins)
    # default / finish_async / finish_here / finish_spmd: exactly one
    # count-only message per remotely terminating activity
    return (remote_joins, remote_joins)


def _check_finish(events: list) -> AuditCheck:
    # the tracer emits a `finish.quiesce` summary on every quiescence
    # transition; the last one per finish id carries the final counters
    final: dict[int, TraceEvent] = {}
    for e in events:
        if e.name == "finish.quiesce":
            final[e.id] = e
    if not final:
        return AuditCheck(name="finish.ctl_messages", passed=None, detail="no finish in trace")
    violations = []
    for fid, e in sorted(final.items()):
        pragma = e.args["pragma"]
        rj = e.args["remote_joins"]
        ctl = e.args["ctl_messages"]
        lo, hi = expected_ctl_bounds(pragma, rj)
        if not (lo <= ctl <= hi):
            violations.append(f"finish#{fid} {pragma}: {ctl} ctl msgs for {rj} remote joins")
    return AuditCheck(
        name="finish.ctl_messages",
        passed=not violations,
        expected="per-pragma closed form",
        actual=f"{len(final) - len(violations)}/{len(final)} finishes conform",
        detail="; ".join(violations[:3]),
    )


def _check_pragma_shapes(events: list) -> AuditCheck:
    """Each specialized finish stayed within the shape its pragma promises.

    This is the dynamic face of the static analyzer's pragma-mismatch rule
    (APG101 in :mod:`repro.analyze.apgas_rules`): FINISH_ASYNC governs at
    most one activity, FINISH_HERE at most a two-activity round trip, and
    FINISH_LOCAL never sees a remote join.  The pragma's ``FORK_RULES`` entry
    raises on the offending spawn at runtime; this check confirms from the
    trace alone that no finish slipped past it (and gives replayed or
    hand-crafted traces the same scrutiny).
    """
    final: dict[int, TraceEvent] = {}
    for e in events:
        if e.name == "finish.quiesce":
            final[e.id] = e
    if not final:
        return AuditCheck(name="finish.pragma_shapes", passed=None, detail="no finish in trace")
    violations = []
    for fid, e in sorted(final.items()):
        pragma = e.args.get("pragma")
        forks = e.args.get("total_forks")
        rj = e.args.get("remote_joins")
        if pragma == "finish_async" and forks is not None and forks > 1:
            violations.append(f"finish#{fid} finish_async governed {forks} activities")
        elif pragma == "finish_here" and forks is not None and forks > 2:
            violations.append(f"finish#{fid} finish_here governed {forks} activities")
        elif pragma == "finish_local" and rj is not None and rj > 0:
            violations.append(f"finish#{fid} finish_local saw {rj} remote joins")
    return AuditCheck(
        name="finish.pragma_shapes",
        passed=not violations,
        expected="per-pragma activity shape",
        actual=f"{len(final) - len(violations)}/{len(final)} finishes conform",
        detail="; ".join(violations[:3]),
    )


# -- GLB victim out-degree ---------------------------------------------------------


def _check_victim_out_degree(events: list, places: int) -> AuditCheck:
    victims_of: dict[int, set] = {}
    for e in events:
        if e.name == "glb.steal":
            victims_of.setdefault(e.args["thief"], set()).add(e.args["victim"])
    if not victims_of:
        return AuditCheck(
            name="glb.victim_out_degree", passed=None, detail="no steal requests in trace"
        )
    bound = min(VICTIM_OUT_DEGREE_BOUND, max(places - 1, 1))
    worst = max(len(v) for v in victims_of.values())
    return AuditCheck(
        name="glb.victim_out_degree",
        passed=worst <= bound,
        expected=f"<= {bound}",
        actual=f"max {worst} distinct victims over {len(victims_of)} thieves",
    )


# -- broadcast tree depth ----------------------------------------------------------


def _check_broadcast_depth(events: list) -> AuditCheck:
    nodes = [e for e in events if e.name == "broadcast.node"]
    if not nodes:
        return AuditCheck(
            name="broadcast.tree_depth", passed=None, detail="no broadcast in trace"
        )
    n = max(e.args["hi"] for e in nodes)
    depth = max(e.args["depth"] for e in nodes)
    bound = math.ceil(math.log2(n)) if n > 1 else 0
    return AuditCheck(
        name="broadcast.tree_depth",
        passed=depth <= bound,
        expected=f"<= ceil(log2 {n}) = {bound}",
        actual=f"max depth {depth} over {len(nodes)} tree nodes",
    )


# -- routing hop bound -------------------------------------------------------------


def _check_routing(events: list) -> AuditCheck:
    transfers = [e for e in events if e.name == "net.transfer"]
    if not transfers:
        return AuditCheck(name="net.route_hops", passed=None, detail="no transfers in trace")
    worst = max(e.args["hops"] for e in transfers)
    return AuditCheck(
        name="net.route_hops",
        passed=worst <= MAX_ROUTE_HOPS,
        expected=f"<= {MAX_ROUTE_HOPS}",
        actual=f"max {worst} hops over {len(transfers)} transfers",
    )


# -- chaos recovery invariants -----------------------------------------------------


def _check_exactly_once(events: list) -> AuditCheck:
    """Each reliable-transfer sequence number reaches the application once.

    The resilient transport emits ``transport.deliver`` on first delivery and
    ``transport.dup`` for every suppressed duplicate; exactly-once means no
    sequence number appears in two ``transport.deliver`` instants.
    """
    delivered: dict[int, int] = {}
    dups = 0
    for e in events:
        if e.name == "transport.deliver":
            delivered[e.args["seq"]] = delivered.get(e.args["seq"], 0) + 1
        elif e.name == "transport.dup":
            dups += 1
    if not delivered and not dups:
        return AuditCheck(
            name="chaos.exactly_once", passed=None, detail="no resilient transfers in trace"
        )
    twice = [seq for seq, n in delivered.items() if n > 1]
    return AuditCheck(
        name="chaos.exactly_once",
        passed=not twice,
        expected="one application delivery per sequence number",
        actual=(
            f"{len(delivered)} transfers delivered once, {dups} duplicates suppressed"
            if not twice
            else f"{len(twice)} sequence numbers delivered more than once"
        ),
        detail=", ".join(f"seq {s}" for s in sorted(twice)[:5]),
    )


def _check_retry_recovery(events: list) -> AuditCheck:
    """Every dropped data message is recovered or written off against a death.

    A ``chaos.drop`` with a positive tag removed the data leg of a reliable
    transfer (acks are tagged with the negative sequence number; a dropped ack
    is repaired by the retransmit/re-ack cycle of the data leg and needs no
    check of its own).  The sequence must later appear in a
    ``transport.deliver`` instant — or one of its endpoints must be recorded
    dead (``chaos.kill``) or declared unreachable, which settles the message
    through the finish write-off path instead.
    """
    dropped: dict[int, TraceEvent] = {}
    delivered: set[int] = set()
    dead_places: set[int] = set()
    unreachable: set[int] = set()
    for e in events:
        if e.name == "chaos.drop" and (e.args.get("tag") or 0) > 0:
            dropped.setdefault(e.args["tag"], e)
        elif e.name == "transport.deliver":
            delivered.add(e.args["seq"])
        elif e.name == "chaos.kill":
            dead_places.add(e.place)
        elif e.name == "transport.unreachable":
            unreachable.add(e.args["seq"])
    if not dropped:
        return AuditCheck(
            name="chaos.retry_recovery", passed=None, detail="no dropped data messages in trace"
        )
    lost = [
        seq
        for seq, e in dropped.items()
        if seq not in delivered
        and seq not in unreachable
        and e.args["src"] not in dead_places
        and e.args["dst"] not in dead_places
    ]
    recovered = sum(1 for seq in dropped if seq in delivered)
    return AuditCheck(
        name="chaos.retry_recovery",
        passed=not lost,
        expected="every dropped data message delivered or written off",
        actual=f"{recovered}/{len(dropped)} dropped transfers recovered by retry",
        detail=", ".join(f"seq {s} lost" for s in sorted(lost)[:5]),
    )


# -- resilient epoch consistency ---------------------------------------------------


def _check_epoch_consistency(events: list) -> AuditCheck:
    """Checkpoint epochs commit in order and restores target committed state.

    The coordinator's one ``epochs`` sequence: committed epochs are
    consecutive from the first and never repeat, every aborted epoch is
    eventually re-committed, and every restore targets epoch -1 (initialize
    from scratch) or a committed epoch — never a torn one.
    """
    commits: list = []
    aborts: set = set()
    violations = []
    total = 0
    for e in events:
        epoch = e.args.get("epoch")
        if e.name == "resilient.commit":
            total += 1
            if epoch in commits:
                violations.append(f"epoch {epoch} committed twice")
            elif commits and epoch != commits[-1] + 1:
                violations.append(f"commit {epoch} after {commits[-1]}")
            commits.append(epoch)
        elif e.name == "resilient.abort":
            total += 1
            aborts.add(epoch)
        elif e.name == "resilient.restore":
            total += 1
            if epoch != -1 and epoch not in commits:
                violations.append(f"restore to uncommitted epoch {epoch}")
    if not total:
        return AuditCheck(
            name="resilient.epoch_consistency",
            passed=None,
            detail="no checkpoint epochs in trace",
        )
    never = aborts - set(commits)
    if never:
        violations.append(f"aborted epoch(s) {sorted(never)} never re-committed")
    return AuditCheck(
        name="resilient.epoch_consistency",
        passed=not violations,
        expected="ordered commits; restores only to committed epochs",
        actual=f"{len(commits)} commits conform"
        if not violations
        else f"{len(violations)} violation(s)",
        detail="; ".join(violations[:3]),
    )


# -- serving isolation -------------------------------------------------------------

#: protocol instants that carry a peer place: (event name -> two place args)
_SERVE_GLB_PEERS = {
    "glb.steal": ("thief", "victim"),
    "glb.steal_result": ("thief", "victim"),
    "glb.lifeline": ("thief", "neighbor"),
    "glb.loot": ("src", "thief"),
}


def _check_serve_isolation(events: list) -> AuditCheck:
    """No cross-job leaks between the scheduler's disjoint place partitions.

    Each ``serve.job_begin``/``serve.job_end`` pair defines an ownership
    window over the job's places.  The check fails if (a) two windows overlap
    on a place — the scheduler double-booked it — or (b) a GLB protocol
    message or network transfer connects places owned by *different* jobs at
    that instant.  The control place and unowned places are exempt: spawns
    from place 0 and finish control traffic home to it are how jobs start and
    terminate, not leaks between them.
    """
    begins = [e for e in events if e.name == "serve.job_begin"]
    if not begins:
        return AuditCheck(
            name="serve.isolation", passed=None, detail="no serving jobs in trace"
        )
    end_ts = {e.id: e.ts for e in events if e.name == "serve.job_end"}
    per_place: dict[int, list] = {}
    for b in begins:
        t1 = end_ts.get(b.id, math.inf)
        for p in b.args["places"]:
            per_place.setdefault(p, []).append((b.ts, t1, b.id))
    violations = []
    for p, spans in sorted(per_place.items()):
        spans.sort()
        for (_s0, e0, j0), (s1, _e1, j1) in zip(spans, spans[1:]):
            if s1 < e0:
                violations.append(f"place {p} owned by jobs {j0} and {j1} at once")

    def owner(place: int, ts: float):
        owners = [
            jid for t0, t1, jid in per_place.get(place, ()) if t0 <= ts <= t1
        ]
        # a boundary instant can match the job ending and the one beginning;
        # only an unambiguous owner participates in the leak checks
        return owners[0] if len(owners) == 1 else None

    for e in events:
        peers = _SERVE_GLB_PEERS.get(e.name)
        if peers is not None:
            a, b = owner(e.args[peers[0]], e.ts), owner(e.args[peers[1]], e.ts)
            if a is not None and b is not None and a != b:
                violations.append(
                    f"{e.name} between job {a} and job {b} at t={e.ts:.6g}"
                )
        elif e.name == "net.transfer":
            a, b = owner(e.args["src"], e.ts), owner(e.args["dst"], e.ts)
            if a is not None and b is not None and a != b:
                violations.append(
                    f"net.transfer from job {a} to job {b} at t={e.ts:.6g}"
                )
    return AuditCheck(
        name="serve.isolation",
        passed=not violations,
        expected="disjoint place partitions; no cross-job GLB or network traffic",
        actual=f"{len(begins)} job windows clean"
        if not violations
        else f"{len(violations)} violation(s)",
        detail="; ".join(violations[:3]),
    )
