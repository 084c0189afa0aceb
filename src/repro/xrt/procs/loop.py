"""PlaceLoop: the wall-clock implementation of the Clock seam.

One of these runs per place process.  It provides the same scheduling surface
as the discrete-event :class:`~repro.sim.engine.Engine` — ``now``,
``schedule``, ``call_soon``, ``post``, and the blocked-process registry — so
:class:`~repro.sim.process.Process`, :class:`~repro.sim.store.Store`, and
:class:`~repro.sim.events.SimEvent` run on it unmodified.  On top of that it
pumps this place's socket(s): readable frames are dispatched to registered
handlers (a delivered activity starts inside its frame's dispatch), and every
connection with queued frames is written once per tick, before the poll.

The loop interleaves callback batches with socket polls so a program that
spins on cooperative yields (``yield None`` / zero timeouts) cannot starve
message delivery, and a message storm cannot starve timers.
"""

from __future__ import annotations

import heapq
import select
from collections import deque
from typing import Callable, Dict, List, Optional

from repro.errors import ProcsTimeoutError
from repro.xrt.backend import WallClock
from repro.xrt.procs.wire import Conn, Frame

#: callbacks run between socket polls — small enough that a ready-queue storm
#: still services I/O promptly, large enough that the poll syscall amortizes
_BATCH = 128

#: longest sleep when fully idle; bounds deadline-check latency
_IDLE_WAIT = 0.05

_READ = select.POLLIN
_READ_WRITE = select.POLLIN | select.POLLOUT


class _TimerHandle:
    """Cancellation token for :meth:`PlaceLoop.schedule`."""

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class PlaceLoop:
    """A wall-clock scheduler + socket pump for one place process."""

    def __init__(self, deadline: Optional[float] = None) -> None:
        self._clock = WallClock()
        #: absolute wall deadline (seconds on this clock); exceeded -> raise
        self._deadline = deadline
        self._ready: deque[Callable[[], None]] = deque()
        self._timers: list = []  # heap of (due, seq, handle, callback)
        self._timer_seq = 0
        #: one poll object; ``fd -> Conn`` resolves what it reports
        self._poller = select.poll()
        self._by_fd: Dict[int, Conn] = {}
        self._conns: List[Conn] = []
        self._handlers: Dict[str, Callable[[int, object], None]] = {}
        self._blocked: set = set()
        self._stopped = False
        #: set when a connection hits EOF; the launcher/child decides severity
        self.on_eof: Optional[Callable[[Conn], None]] = None

    # -- the Clock interface (what Process/Store/SimEvent need) ----------------

    @property
    def now(self) -> float:
        return self._clock.now

    def schedule(self, delay: float, callback: Callable[[], None]) -> _TimerHandle:
        handle = _TimerHandle()
        if delay <= 0:
            self._ready.append(lambda: None if handle.cancelled else callback())
            return handle
        self._timer_seq += 1
        heapq.heappush(self._timers, (self.now + delay, self._timer_seq, handle, callback))
        return handle

    def call_soon(self, callback: Callable[[], None]) -> _TimerHandle:
        return self.schedule(0.0, callback)

    def post(self, delay: float, fn: Callable, *args) -> None:
        """Fire-and-forget ``fn(*args)``: no handle; on a wall clock the
        arguments can ride a closure."""
        callback = (lambda: fn(*args)) if args else fn
        if delay <= 0:
            self._ready.append(callback)
            return
        self._timer_seq += 1
        heapq.heappush(self._timers, (self.now + delay, self._timer_seq, None, callback))

    def _note_blocked(self, process) -> None:
        self._blocked.add(process)

    def _note_unblocked(self, process) -> None:
        self._blocked.discard(process)

    # -- sockets ----------------------------------------------------------------

    def add_conn(self, conn: Conn) -> None:
        self._conns.append(conn)
        self._by_fd[conn.fileno()] = conn
        self._poller.register(conn.fileno(), _READ)
        conn.armed = _READ

    def _forget(self, conn: Conn) -> None:
        """Stop polling ``conn``, so a new connection may reuse its fd."""
        if conn.armed:
            del self._by_fd[conn.fileno()]
            self._poller.unregister(conn.fileno())
            conn.armed = 0

    def drop_conn(self, conn: Conn) -> None:
        """Retire a connection mid-run (peer declared dead by the router).

        Safe whether or not the connection already hit EOF (``_drain``
        forgot it then), and marking ``eof`` makes any later ``send_frame``
        count into ``dropped`` instead of buffering bytes for a peer that
        will never read them.
        """
        self._forget(conn)
        if conn in self._conns:
            self._conns.remove(conn)
        conn.eof = True
        conn.close()

    def register_handler(self, kind: str, handler: Callable[[int, object], None]) -> None:
        """``handler(src, payload)`` is invoked for each arriving frame of ``kind``."""
        self._handlers[kind] = handler

    def dispatch(self, frame: Frame) -> None:
        """Deliver one frame addressed to this place."""
        kind, src, _dst, payload = frame
        try:
            handler = self._handlers[kind]
        except KeyError:
            raise RuntimeError(f"no handler for frame kind {kind!r}") from None
        handler(src, payload)

    # -- running ----------------------------------------------------------------

    def stop(self) -> None:
        self._stopped = True

    @property
    def stopped(self) -> bool:
        return self._stopped

    def _poll(self, timeout_ms: float) -> None:
        # one write per connection per tick: everything the last callback batch
        # queued leaves now, in queue order, and writability is awaited only
        # for what the socket refused
        for conn in tuple(self._conns):  # _drain may retire a connection
            if conn._out:
                conn.pump_write()
            if conn.eof:
                if conn.armed:  # a write (here or in send_frame) hit EPIPE
                    self._drain(conn)
                continue
            events = _READ_WRITE if conn._out else _READ
            if events != conn.armed:
                self._poller.modify(conn.fileno(), events)
                conn.armed = events
        by_fd = self._by_fd
        for fd, mask in self._poller.poll(timeout_ms):
            conn = by_fd[fd]
            if mask & select.POLLOUT:
                conn.pump_write()
            if mask & ~select.POLLOUT or conn.eof:  # readable, hang-up or error
                self._drain(conn)

    def _drain(self, conn: Conn) -> None:
        """Deliver what ``conn`` has received; on EOF retire it and report.

        A write-side EPIPE sets ``conn.eof`` too, and the read side is drained
        all the same, so frames the dead peer managed to send still land
        before ``on_eof`` runs.
        """
        for frame in conn.pump_read():
            self.on_frame(conn, frame)
        if conn.eof:
            self._forget(conn)
            if self.on_eof is not None:
                self.on_eof(conn)

    def on_frame(self, conn: Conn, frame: Frame) -> None:
        """Route or dispatch one decoded frame (overridden by the router)."""
        self.dispatch(frame)

    def _fire_due_timers(self, now: float) -> None:
        timers = self._timers
        while timers and timers[0][0] <= now:
            _due, _seq, handle, callback = heapq.heappop(timers)
            if handle is None or not handle.cancelled:
                self._ready.append(callback)

    def run(self) -> None:
        """Run until :meth:`stop`; raises on deadline or a crashed activity."""
        ready, timers = self._ready, self._timers
        while not self._stopped:
            # a bounded batch so ready-queue churn cannot starve the sockets
            for _ in range(min(len(ready), _BATCH)):
                ready.popleft()()
                if self._stopped:
                    return
            now = self._clock.now  # the tick's one read: deadline, timers, poll timeout
            if self._deadline is not None and now > self._deadline:
                raise ProcsTimeoutError(
                    f"place loop exceeded its {self._deadline:.1f}s deadline "
                    f"({len(self._blocked)} process(es) blocked)"
                )
            if timers and timers[0][0] <= now:
                self._fire_due_timers(now)
            if ready:
                timeout = 0.0
            elif timers:
                timeout = min(timers[0][0] - now, _IDLE_WAIT)
            else:
                timeout = _IDLE_WAIT
            self._poll(1e3 * timeout)

    def close(self) -> None:
        for conn in self._conns:
            self._forget(conn)
            conn.close()
