"""Launch and supervise one OS process per place.

Place 0 is the calling process itself: it is simultaneously the launcher,
the control rank running ``main``, and the star router every child-to-child
frame passes through.  Children are forked (``multiprocessing`` fork
context, so the program and its modules are inherited, not re-imported) and
each holds exactly one socketpair back to place 0.

Lifecycle::

    fork children -> run main under the root finish -> root quiesces
      -> EXIT to every child -> children reply DONE (with their per-place
         control-message counts) and exit -> reap -> report

Failure containment:

* a child's uncaught exception sends a CRASH frame; place 0 raises
  :class:`~repro.errors.ProcsError` carrying the child's traceback;
* an unexpected EOF (a child died without a word) raises a structured
  :class:`~repro.errors.ProcsError` naming the place and its wait status
  (exit code or signal) — immediately, never riding out the deadline;
* a wall-clock ``deadline`` bounds the whole run: exceeded, the launcher
  raises :class:`~repro.errors.ProcsTimeoutError`;
* *every* path through the finally block terminates, then kills, then joins
  each child — no exit leaves orphan processes behind.

Fault tolerance (``chaos=`` and/or ``resilient=True``) changes the death
path from fatal to structured: the router heartbeats every child (PING/PONG)
so both EOF-death and hung-but-connected places are detected, a dead place
is retired from the routing table, a DEAD notice is broadcast to every
survivor (after all frames the dead place managed to send — the star
topology's FIFO guarantee), and place 0's finish protocol applies the
strict-fail / tolerant-write-off contract.  A resilient program can then ask
the launcher to **respawn** the place: a fresh OS process is forked and
re-registered with the router, and checkpoint/restore (see
:mod:`repro.kernels.portable.resilient`) replays the lost epoch.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import time
import traceback
from typing import Any, Dict, List, Optional, Set, Union

from repro.chaos.spec import ChaosSpec
from repro.errors import PlaceError, ProcsError
from repro.runtime.finish.pragmas import Pragma
from repro.xrt.backend import BackendRun, ctl_by_pragma
from repro.xrt.procs import wire
from repro.xrt.procs.loop import PlaceLoop
from repro.xrt.procs.runtime import ProcsRuntime

#: default wall-clock budget for one run (conformance programs finish in
#: well under a second; the margin absorbs loaded CI machines)
DEFAULT_DEADLINE = 60.0

#: how long shutdown waits for a child to exit before escalating
_REAP_GRACE = 2.0

#: heartbeat cadence and how long a silent place survives before it is
#: declared dead; the timeout is deliberately many intervals so a place
#: grinding through a long compute chunk (answering PINGs only between
#: callback batches) is never a false positive
DEFAULT_HEARTBEAT_INTERVAL = 0.25
DEFAULT_HEARTBEAT_TIMEOUT = 5.0


class _RouterLoop(PlaceLoop):
    """Place 0's loop: also the star router for child-to-child frames."""

    def __init__(self, deadline: Optional[float]) -> None:
        super().__init__(deadline=deadline)
        self.conn_for: Dict[int, wire.Conn] = {}
        #: places declared dead and not (yet) revived
        self.dead: Set[int] = set()
        #: wall time (this loop's clock) a frame last arrived from each place,
        #: kept only while ``heartbeats`` are armed
        self.last_seen: Dict[int, float] = {}
        self.heartbeats = False
        #: frames to/from dead places the router blackholed (counted, not lost)
        self.blackholed = 0

    def route(self, frame: wire.Frame) -> None:
        dst = frame[2]
        conn = self.conn_for.get(dst)
        if conn is None:
            if dst in self.dead:
                self.blackholed += 1
                return
            raise PlaceError(f"no route to place {dst}")
        conn.send_frame(frame)

    def on_frame(self, conn: wire.Conn, frame: wire.Frame) -> None:
        if conn.peer in self.dead:
            self.blackholed += 1
            return
        if self.heartbeats:
            self.last_seen[conn.peer] = self.now
        if frame[2] == 0:
            self.dispatch(frame)
        else:
            self.route(frame)


def _conn_counts(conn: wire.Conn) -> tuple:
    """``(frames, bytes, dropped, writes, reads)`` of one of place 0's
    connections, both directions summed where there are two."""
    return (
        conn.frames_sent + conn.decoder.frames_decoded,
        conn.bytes_sent + conn.decoder.bytes_fed,
        conn.dropped,
        conn.writes,
        conn.reads,
    )


def _child_status(proc) -> str:
    """Human-readable wait status: exit code or the signal that killed it."""
    if proc is None:
        return "wait status unknown"
    proc.join(timeout=_REAP_GRACE)
    code = proc.exitcode
    if code is None:
        return "still running"
    if code < 0:
        try:
            name = signal.Signals(-code).name
        except ValueError:  # pragma: no cover - exotic signal number
            name = f"signal {-code}"
        return f"killed by {name}"
    return f"exit code {code}"


def run_procs_program(
    kernel,
    places: int,
    params: Optional[dict] = None,
    deadline: float = DEFAULT_DEADLINE,
    chaos: Union[ChaosSpec, str, None] = None,
    resilient: bool = False,
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
) -> BackendRun:
    """Run one portable program with one OS process per place.

    ``kernel`` is a portable kernel name (resolved through
    :func:`repro.kernels.portable.build_program`) or directly a program
    callable ``main(ctx)``; ``main`` runs at place 0 under the root finish.
    Returns once every place exited and is reaped.

    ``chaos`` takes a kill-only :class:`~repro.chaos.ChaosSpec` (or its text
    form): each ``kill=place@time`` SIGKILLs that place's actual OS process
    ``time`` wall-clock seconds into the run.  ``resilient=True`` resolves
    the kernel through the checkpoint/restore programs of
    :mod:`repro.kernels.portable.resilient` so killed places are respawned
    and the run completes with the fault-free checksum.  Either flag arms
    the failure detector (heartbeats + DEAD notices).
    """
    if places < 1:
        raise PlaceError(f"need at least one place, got {places}")
    params = dict(params or {})
    spec: Optional[ChaosSpec] = None
    if chaos is not None:
        spec = chaos if isinstance(chaos, ChaosSpec) else ChaosSpec.parse(chaos)
        # shared spec-time validation: out-of-range and control-place kills
        # exit before a single process is forked
        spec.validate_transport("procs")
        spec.validate_places(places, control_place=0)
    fault_tolerant = spec is not None or resilient

    if callable(kernel):
        main, kernel_name = kernel, getattr(kernel, "__name__", "program")
    elif resilient:
        from repro.kernels.portable.resilient import build_resilient_program

        main = build_resilient_program(kernel, places, **params)
        kernel_name = kernel
    else:
        from repro.kernels.portable import build_program

        main = build_program(kernel, places, **params)
        kernel_name = kernel

    t0 = time.perf_counter()
    mp = multiprocessing.get_context("fork")
    loop = _RouterLoop(deadline=deadline)
    children: List = []
    children_by_place: Dict[int, Any] = {}
    child_deadline = deadline * 2 + 5.0

    def _fork_child(place: int, name: str) -> None:
        psock, csock = socket.socketpair()
        # the child inherits every parent-side end currently open (fork
        # copies fds); it closes them first thing, or sibling-death EOF
        # detection would be defeated by the surviving copies
        # children carry a *longer* deadline: the parent's watchdog is the
        # canonical one (it raises ProcsTimeoutError and reaps); a child's
        # own deadline is only a backstop for a vanished parent
        inherited = [c.sock for c in loop.conn_for.values()] + [psock]
        proc = mp.Process(
            target=_child_main,
            args=(place, places, csock, inherited, child_deadline),
            daemon=True,
            name=name,
        )
        proc.start()
        csock.close()
        children.append(proc)
        children_by_place[place] = proc
        conn = wire.Conn(psock, peer=place)
        loop.conn_for[place] = conn
        loop.add_conn(conn)
        loop.last_seen[place] = loop.now

    try:
        for place in range(1, places):
            _fork_child(place, f"place-{place}")

        prt = ProcsRuntime(loop, place_id=0, n_places=places)
        prt.send_frame = loop.route

        done_reports: Dict[int, dict] = {}
        deaths: List[dict] = []
        state = {
            "draining": False, "revivals": 0, "hb_seq": 0,
            # _conn_counts of the connections retired so far
            "retired": (0, 0, 0, 0, 0),
        }

        def _maybe_finish_drain() -> None:
            if state["draining"] and all(p in done_reports for p in loop.conn_for):
                loop.stop()

        def on_done(src: int, payload) -> None:
            done_reports[src] = payload
            _maybe_finish_drain()

        def on_crash(src: int, payload) -> None:
            raise ProcsError(f"place {src} crashed:\n{payload}")

        def _retire_conn(place: int) -> None:
            conn = loop.conn_for.pop(place, None)
            if conn is None:
                return
            state["retired"] = tuple(map(sum, zip(state["retired"], _conn_counts(conn))))
            loop.drop_conn(conn)

        def _mark_dead(place: int, cause: str) -> None:
            """The one death path: retire, notify survivors, tell the runtime."""
            if place in loop.dead or place not in loop.conn_for:
                return
            proc = children_by_place.get(place)
            if proc is not None and proc.is_alive() and proc.pid:
                # hung-but-connected detection ends in a kill: a place that
                # stopped answering must not linger half-attached
                try:
                    os.kill(proc.pid, signal.SIGKILL)
                except (ProcessLookupError, OSError):  # pragma: no cover
                    pass
            _retire_conn(place)
            loop.dead.add(place)
            full_cause = f"{cause} ({_child_status(proc)})"
            deaths.append({"place": place, "cause": full_cause,
                           "time": round(loop.now, 3)})
            # the DEAD notice rides each survivor's FIFO connection, so it
            # arrives after every routed frame the dead place managed to send
            for q, qconn in loop.conn_for.items():
                qconn.send_frame((wire.DEAD, 0, q, (place, full_cause)))
            prt.on_place_dead(place, full_cause)
            _maybe_finish_drain()

        def on_eof(conn: wire.Conn) -> None:
            if conn.peer in done_reports:
                return  # it reported and exited; silence is expected now
            if fault_tolerant:
                _mark_dead(conn.peer, "connection EOF")
                return
            proc = children_by_place.get(conn.peer)
            raise ProcsError(
                f"place {conn.peer} died unexpectedly before reporting DONE "
                f"({_child_status(proc)})"
            )

        loop.register_handler(wire.DONE, on_done)
        loop.register_handler(wire.CRASH, on_crash)
        loop.register_handler(wire.PONG, lambda src, payload: None)
        loop.on_eof = on_eof

        def respawn_place(place: int) -> None:
            if not 0 < place < places:
                raise PlaceError(f"cannot respawn place {place} of {places}")
            if place in loop.conn_for:
                return  # already alive
            loop.dead.discard(place)
            state["revivals"] += 1
            _fork_child(place, f"place-{place}-r{state['revivals']}")

        if fault_tolerant:
            prt.respawn_place = respawn_place
            loop.heartbeats = True

            def _hb_tick() -> None:
                if loop.stopped or state["draining"]:
                    return
                now = loop.now
                for place, conn in list(loop.conn_for.items()):
                    silent = now - loop.last_seen.get(place, now)
                    if silent > heartbeat_timeout:
                        _mark_dead(place, f"no heartbeat for {silent:.2f}s "
                                          f"(timeout {heartbeat_timeout:.2f}s)")
                        continue
                    conn.send_frame((wire.PING, 0, place, state["hb_seq"]))
                state["hb_seq"] += 1
                loop.post(heartbeat_interval, _hb_tick)

            loop.post(heartbeat_interval, _hb_tick)

        if spec is not None:
            def _fire_kill(place: int) -> None:
                if state["draining"] or place in loop.dead:
                    return
                proc = children_by_place.get(place)
                if proc is None or not proc.is_alive() or not proc.pid:
                    return
                try:
                    os.kill(proc.pid, signal.SIGKILL)
                except (ProcessLookupError, OSError):  # pragma: no cover
                    pass
                # the EOF shows up on the next poll and takes the same
                # _mark_dead path as any organic death

            for place, t in spec.kills:
                loop.post(max(t, 0.0), _fire_kill, place)

        root = prt.open_finish(0, Pragma.DEFAULT, name="root")
        main_process = prt.spawn_local(0, main, (), root, name="main").process

        def on_quiesce(_event) -> None:
            state["draining"] = True
            if not loop.conn_for:
                loop.stop()
                return
            for place, conn in loop.conn_for.items():
                conn.send_frame((wire.EXIT, 0, place, None))
            _maybe_finish_drain()

        root.wait().add_callback(on_quiesce)

        loop.run()

        result = main_process.done.value if main_process.done.fired else None
        ctl = ctl_by_pragma(prt.obs.metrics)
        per_place = {0: {"ctl_by_pragma": dict(ctl),
                         "activities_run": prt.place(0).activities_run}}
        tolerated = int(prt.obs.metrics.total("finish.deaths_tolerated"))
        for place, payload in done_reports.items():
            per_place[place] = payload
            tolerated += payload.get("deaths_tolerated", 0)
            for pragma, count in payload.get("ctl_by_pragma", {}).items():
                ctl[pragma] = ctl.get(pragma, 0) + count
        messages, nbytes, dropped, writes, reads = map(
            sum, zip(state["retired"], *map(_conn_counts, loop.conn_for.values())))
        dropped += loop.blackholed + sum(p.get("dropped", 0) for p in done_reports.values())
        return BackendRun(
            backend="procs",
            kernel=kernel_name,
            places=places,
            result=result,
            wall_time=time.perf_counter() - t0,
            ctl_by_pragma=ctl,
            messages_routed=messages,
            bytes_routed=nbytes,
            socket_writes=writes,
            socket_reads=reads,
            per_place=per_place,
            deaths=deaths,
            revivals=state["revivals"],
            frames_dropped=dropped,
            deaths_tolerated=tolerated,
            chaos=spec.describe() if spec is not None else None,
        )
    finally:
        loop.close()
        _reap(children)


def _reap(children) -> None:
    """Make every child exit: join, then terminate, then kill — in order."""
    deadline = time.monotonic() + _REAP_GRACE
    for proc in children:
        proc.join(timeout=max(0.0, deadline - time.monotonic()))
    for escalate in ("terminate", "kill"):
        stragglers = [p for p in children if p.is_alive()]
        if not stragglers:
            break
        for proc in stragglers:
            getattr(proc, escalate)()
        for proc in stragglers:
            proc.join(timeout=_REAP_GRACE)
    for proc in children:
        proc.join()  # all dead by now; collect exit status


# -- the child side ------------------------------------------------------------------


def _child_main(
    place: int,
    n_places: int,
    sock: socket.socket,
    inherited: List[socket.socket],
    deadline: float,
) -> None:  # pragma: no cover - runs in forked children
    for s in inherited:
        try:
            s.close()
        except OSError:
            pass
    loop = PlaceLoop(deadline=deadline)
    conn = wire.Conn(sock, peer=0)
    loop.add_conn(conn)
    prt = ProcsRuntime(loop, place_id=place, n_places=n_places)
    prt.send_frame = conn.send_frame

    def on_exit(src: int, payload) -> None:
        conn.send_frame((wire.DONE, place, 0, {
            "ctl_by_pragma": ctl_by_pragma(prt.obs.metrics),
            "activities_run": prt.place(place).activities_run,
            "deaths_tolerated": int(prt.obs.metrics.total("finish.deaths_tolerated")),
            "dropped": conn.dropped,
        }))
        loop.stop()

    def on_ping(src: int, seq) -> None:
        # answered from the socket loop itself: proves the loop is alive
        # even while activities are mid-compute
        conn.send_frame((wire.PONG, place, 0, seq))

    loop.register_handler(wire.EXIT, on_exit)
    loop.register_handler(wire.PING, on_ping)
    # parent gone -> nothing to report to; just leave
    loop.on_eof = lambda _conn: loop.stop()

    code = 0
    try:
        loop.run()
        conn.flush_blocking(_REAP_GRACE)
    except BaseException:  # noqa: BLE001 - everything becomes a CRASH frame
        code = 1
        try:
            conn.send_frame((wire.CRASH, place, 0, traceback.format_exc()))
            conn.flush_blocking(_REAP_GRACE)
        except Exception:
            pass
    finally:
        conn.close()
    # skip atexit/multiprocessing teardown: the parent owns supervision, and
    # a forked child flushing inherited buffers would duplicate output
    os._exit(code)
