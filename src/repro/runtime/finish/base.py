"""Distributed termination detection: the machinery shared by all protocols.

A ``finish`` must detect when every activity transitively spawned in its scope
has terminated.  The simulator keeps *exact* fork/join counters (the oracle —
bookkeeping is free in Python), but a finish only *declares* quiescence once
the control messages its protocol would really send have all arrived at the
finish home through the simulated network.  Protocols therefore differ in
observable cost — message count, message size, who gets flooded, home-side
state — which is precisely what the paper's Section 3.1 is about.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import DeadPlaceError, FinishError
from repro.runtime.finish.pragmas import FORK_RULES, Pragma
from repro.sim.events import SimEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import ApgasRuntime

#: envelope of a count-only termination message
CTL_BYTES = 16


class _CtlMsg:
    """One in-flight control message, for death accounting."""

    __slots__ = ("src", "dst", "reports")

    def __init__(self, src: int, dst: int, reports: int) -> None:
        self.src = src
        self.dst = dst
        self.reports = reports


class BaseFinish:
    """Common fork/join accounting and control-message plumbing.

    Subclasses override :meth:`on_fork` / :meth:`on_join` to implement their
    control-message behavior; the concurrency patterns a pragma cannot govern
    are rejected by its entry in :data:`~repro.runtime.finish.pragmas.FORK_RULES`.
    """

    pragma = Pragma.DEFAULT

    #: how long a software router buffers reports before forwarding
    COALESCE_WINDOW = 10e-6

    #: survive participant deaths by writing off the dead place's activities
    #: and lost reports instead of failing (resilient-finish adoption; GLB
    #: turns this on so the surviving places can drain the remaining work)
    tolerate_death = False

    def __init__(self, rt: "ApgasRuntime", home: int, name: str = "") -> None:
        self.rt = rt
        self.home = home
        # ids are per-runtime so two identical runs export identical traces
        self.finish_id = next(rt._finish_ids)
        self.name = name or f"{self.pragma.value}#{self.finish_id}"
        #: forks minus joins (exact oracle)
        self.pending = 0
        self.total_forks = 0
        #: joins of activities at places other than home (the terminations
        #: whose reports must cross the network; drives the audit closed forms)
        self.remote_joins = 0
        #: joins whose termination report has not yet reached the home place
        self._unreported = 0
        self._waiters: list[SimEvent] = []
        #: the structured failure, once a participant place died
        self.failed: Optional[DeadPlaceError] = None
        #: not-yet-joined activities by place (death detection)
        self._live_at: dict[int, int] = {}
        #: control messages still in flight (death detection / write-off)
        self._ctl_inflight: set[_CtlMsg] = set()
        #: spawn messages still in flight (a sender dying with one loses it)
        self._spawn_inflight: set[_CtlMsg] = set()
        #: control messages / bytes this finish caused (diagnostics + tests)
        self.ctl_messages = 0
        self.ctl_bytes = 0
        #: bytes of protocol state held at the home place (diagnostics)
        self.home_space_bytes = 0
        metrics = rt.obs.metrics
        #: death accounting (tokens, live-activity census) only matters when
        #: fault injection can kill a place; without chaos it is pure overhead
        self._track_live = rt.chaos is not None
        #: the pragma's legality rule, or None when it accepts any fork
        self._fork_rule = FORK_RULES.get(self.pragma)
        #: virtual-dispatch guard: most protocols leave this hook as the base
        #: no-op, and the fork path is hot enough that the call shows
        self._has_on_fork = type(self).on_fork is not BaseFinish.on_fork
        metrics.counter("finish.opened", pragma=self.pragma.value).inc()
        self._c_ctl_messages = metrics.counter("finish.ctl_messages", pragma=self.pragma.value)
        self._c_ctl_bytes = metrics.counter("finish.ctl_bytes", pragma=self.pragma.value)
        self._tracer = rt.obs.trace
        self._trace_closed = False
        if self._tracer.enabled:
            self._tracer.span_begin(
                self.name, "finish", home, rt.engine.now,
                id=self.finish_id, pragma=self.pragma.value, home=home,
            )
        if self._track_live:
            # only a place death reads the table; without chaos it would just
            # keep every finish of the run alive
            rt.register_finish(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.name} pending={self.pending} "
            f"unreported={self._unreported}>"
        )

    # -- the three protocol events ------------------------------------------------

    def fork(self, src: int, dst: int) -> None:
        """An activity governed by this finish is being spawned src -> dst."""
        if self.failed is not None:
            raise self.failed
        rule = self._fork_rule
        if rule is not None:
            rule(self.name, self.home, self.total_forks, dst)
        self.pending += 1
        self.total_forks += 1
        if self._track_live:
            self._live_at[dst] = self._live_at.get(dst, 0) + 1
        if self._has_on_fork:
            self.on_fork(src, dst)

    def join(self, place: int) -> None:
        """An activity governed by this finish terminated at ``place``."""
        if self.failed is not None:
            # a straggler surviving the failure; keep the books sane, send
            # nothing — the waiters already hold the DeadPlaceError
            if self.pending > 0:
                self.pending -= 1
            if self._track_live:
                self._drop_live(place)
            return
        if self.pending <= 0:
            raise FinishError(f"{self.name}: join without a matching fork")
        self.pending -= 1
        if self._track_live:
            self._drop_live(place)
        if place != self.home:
            self.remote_joins += 1
        self.on_join(place)
        self._check()

    def wait(self) -> SimEvent:
        """Event that fires when this finish is quiescent — or fails with
        :class:`~repro.errors.DeadPlaceError` if a participant place died."""
        event = SimEvent(name=f"{self.name}.wait")
        if self.failed is not None:
            event.fail(self.failed)
        elif self.quiescent:
            event.trigger()
        else:
            self._waiters.append(event)
        race = self.rt.race
        if race is not None:
            # joined children's clocks flow into the waiting opener once the
            # scope quiesces (the happens-before edge `finish` establishes)
            race.on_wait(self, event)
        return event

    @property
    def quiescent(self) -> bool:
        return self.failed is None and self.pending == 0 and self._unreported == 0

    def _drop_live(self, place: int) -> None:
        n = self._live_at.get(place, 0)
        if n <= 1:
            self._live_at.pop(place, None)
        else:
            self._live_at[place] = n - 1

    # -- protocol hooks ----------------------------------------------------------

    def on_fork(self, src: int, dst: int) -> None:
        """Protocol bookkeeping at spawn time (no message: bookkeeping rides
        inside the spawn message itself)."""

    def on_join(self, place: int) -> None:
        """Send whatever termination reports the protocol requires.

        The specialized pragmas' rule, also what the auditor's
        ``expected_ctl_bounds`` and procs' ``ProxyFinish.join`` state: one
        count-only message per remotely terminating activity, nothing for a
        home-local one.
        """
        if place == self.home:
            return
        self.report_pending()
        self.send_ctl(place, self.home, CTL_BYTES, self.report_arrived)

    def holds_state_at(self, place: int) -> int:
        """Reports parked in protocol state at ``place`` (e.g. a coalescing
        router's buffer).  Overridden by protocols that route through
        intermediaries; the count is *removed* from the protocol's books by
        the caller, so implementations must zero their own copy."""
        return 0

    def on_place_death(self, place: int) -> None:
        """Protocol hook at place-death time (before involvement is judged)."""

    # -- shared plumbing ------------------------------------------------------------

    def _check(self) -> None:
        if not self.quiescent:
            return
        tracer = self._tracer
        if tracer.enabled:
            now = self.rt.engine.now
            # a summary per quiescence transition; the auditor uses the last
            tracer.instant(
                "finish.quiesce", "finish", self.home, now,
                id=self.finish_id,
                pragma=self.pragma.value,
                home=self.home,
                total_forks=self.total_forks,
                remote_joins=self.remote_joins,
                ctl_messages=self.ctl_messages,
                ctl_bytes=self.ctl_bytes,
            )
            if not self._trace_closed:
                self._trace_closed = True
                tracer.span_end(self.name, "finish", self.home, now, id=self.finish_id)
        if self._waiters:
            waiters, self._waiters = self._waiters, []
            for event in waiters:
                event.trigger()

    def report_pending(self, count: int = 1) -> None:
        """Mark ``count`` joins as awaiting delivery of their report at home."""
        self._unreported += count

    def report_arrived(self, count: int = 1) -> None:
        if self.failed is not None:
            return
        if count > self._unreported:
            raise FinishError(f"{self.name}: more reports arrived than sent")
        self._unreported -= count
        self._check()

    def send_ctl(self, src: int, dst: int, nbytes: int, on_arrival, reports: int = 1) -> None:
        """Route one protocol control message through the simulated network.

        ``reports`` is how many termination reports the message carries (>1
        for coalesced protocols); a place failure writes off the in-flight
        messages touching it by exactly that many reports.
        """
        self.ctl_messages += 1
        self.ctl_bytes += nbytes
        self._c_ctl_messages.value += 1
        self._c_ctl_bytes.value += nbytes
        tracer = self._tracer
        if tracer.enabled:
            tracer.instant(
                "finish.ctl", "finish", src, self.rt.engine.now,
                id=self.finish_id, src=src, dst=dst, nbytes=nbytes, pragma=self.pragma.value,
            )
        if self.rt.chaos is None:
            # reliable fabric: no message can be lost or written off, so the
            # in-flight token and its arrival wrapper are pure overhead
            self.rt.send_finish_ctl(self, src, dst, nbytes, on_arrival)
            return
        token = _CtlMsg(src, dst, reports)
        self._ctl_inflight.add(token)

        def arrived() -> None:
            if token not in self._ctl_inflight:
                return  # written off when a place died; its count is settled
            self._ctl_inflight.discard(token)
            on_arrival()

        self.rt.send_finish_ctl(self, src, dst, nbytes, arrived)

    def spawn_departed(self, src: int, dst: int) -> Optional[_CtlMsg]:
        """A remote spawn left ``src``; the token rides in the message.

        On a reliable fabric no spawn can be written off, so no token is
        tracked at all (``None`` rides in the message instead).
        """
        if self.rt.chaos is None:
            return None
        token = _CtlMsg(src, dst, 1)
        self._spawn_inflight.add(token)
        return token

    def spawn_landed(self, token: Optional[_CtlMsg]) -> bool:
        """The spawn message arrived.  False means it was written off when a
        place died (or the finish failed) — the activity must not start,
        because its fork has already been settled."""
        if self.failed is not None:
            return False
        if token is None:
            return True
        if token not in self._spawn_inflight:
            return False
        self._spawn_inflight.discard(token)
        return True

    # -- place failure -------------------------------------------------------------

    def notify_place_death(self, place: int, cause: str = "") -> None:
        """A place died.  If this finish has a stake there — live activities,
        in-flight control messages, parked reports, or its home — it either
        fails with a structured :class:`~repro.errors.DeadPlaceError` or, when
        :attr:`tolerate_death` is set, writes the dead place's contribution
        off and carries on with the survivors.  ``cause`` (how the death was
        detected, if known) is appended to the error's detail."""
        if self.failed is not None or self.quiescent:
            return
        self.on_place_death(place)
        if place == self.home:
            self._fail(DeadPlaceError(place, detected_by=self.name, detail="finish home failed"))
            return
        lost_msgs = [t for t in self._ctl_inflight if t.src == place or t.dst == place]
        lost_spawns = [t for t in self._spawn_inflight if t.src == place or t.dst == place]
        lost_live = self._live_at.get(place, 0)
        lost_reports = sum(t.reports for t in lost_msgs) + self.holds_state_at(place)
        if not lost_live and not lost_reports and not lost_spawns:
            return
        if not self.tolerate_death:
            detail = f"{lost_live} live activities, {lost_reports} unreported terminations lost"
            self._fail(DeadPlaceError(
                place,
                detected_by=self.name,
                detail=f"{detail}; {cause}" if cause else detail,
            ))
            return
        # adoption: the dead place's activities and lost reports are settled
        for token in lost_msgs:
            self._ctl_inflight.discard(token)
        for token in lost_spawns:
            self._spawn_inflight.discard(token)
            if token.dst != place:
                # the spawn left a now-dead sender and will never start its
                # activity at the (live) destination; settle its fork here
                self.pending -= 1
                self._drop_live(token.dst)
        self._live_at.pop(place, None)
        self.pending -= lost_live
        self._unreported -= lost_reports
        self.rt.obs.metrics.counter("finish.forgiven", pragma=self.pragma.value).inc(
            lost_live + lost_reports + len(lost_spawns)
        )
        # one adoption event per tolerated death (forgiven counts the pieces)
        self.rt.obs.metrics.counter(
            "finish.deaths_tolerated", pragma=self.pragma.value
        ).inc()
        if self._tracer.enabled:
            self._tracer.instant(
                "finish.forgive", "finish", self.home, self.rt.engine.now,
                id=self.finish_id, pragma=self.pragma.value, dead=place,
                live=lost_live, reports=lost_reports,
            )
        self._check()

    def _fail(self, exc: DeadPlaceError) -> None:
        self.failed = exc
        self.rt.obs.metrics.counter("finish.failed", pragma=self.pragma.value).inc()
        tracer = self._tracer
        if tracer.enabled:
            now = self.rt.engine.now
            tracer.instant(
                "finish.dead_place", "finish", self.home, now,
                id=self.finish_id, pragma=self.pragma.value, dead=exc.place,
                detail=exc.detail,
            )
            if not self._trace_closed:
                self._trace_closed = True
                tracer.span_end(self.name, "finish", self.home, now, id=self.finish_id)
        if self._waiters:
            waiters, self._waiters = self._waiters, []
            for event in waiters:
                event.fail(exc)
