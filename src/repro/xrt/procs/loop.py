"""PlaceLoop: the wall-clock implementation of the Clock seam.

One of these runs per place process.  It provides the same scheduling surface
as the discrete-event :class:`~repro.sim.engine.Engine` — ``now``,
``schedule``, ``call_soon``, ``post``, and the blocked-process registry — so
:class:`~repro.sim.process.Process`, :class:`~repro.sim.store.Store`, and
:class:`~repro.sim.events.SimEvent` run on it unmodified.  On top of that it
pumps this place's socket(s): readable frames are dispatched to registered
handlers, and every connection with queued frames is written once per tick,
before the poll.

The loop interleaves callback batches with socket polls so a program that
spins on cooperative yields (``yield None`` / zero timeouts) cannot starve
message delivery, and a message storm cannot starve timers.
"""

from __future__ import annotations

import heapq
import selectors
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

_READ_WRITE = selectors.EVENT_READ | selectors.EVENT_WRITE


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
        self._selector = selectors.DefaultSelector()
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
        self._selector.register(conn.sock, selectors.EVENT_READ, conn)
        conn.armed = selectors.EVENT_READ

    def drop_conn(self, conn: Conn) -> None:
        """Retire a connection mid-run (peer declared dead by the router).

        Safe whether or not the connection already hit EOF: the selector
        unregister tolerates both orders, and marking ``eof`` makes any
        later ``send_frame`` count into ``dropped`` instead of buffering
        bytes for a peer that will never read them.
        """
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        if conn in self._conns:
            self._conns.remove(conn)
        conn.armed = 0
        conn.eof = True
        conn.close()

    def register_handler(self, kind: str, handler: Callable[[int, object], None]) -> None:
        """``handler(src, payload)`` is invoked for each arriving frame of ``kind``."""
        self._handlers[kind] = handler

    def dispatch(self, frame: Frame) -> None:
        """Deliver one frame addressed to this place."""
        kind, src, _dst, payload = frame
        handler = self._handlers.get(kind)
        if handler is None:
            raise RuntimeError(f"no handler for frame kind {kind!r}")
        handler(src, payload)

    # -- running ----------------------------------------------------------------

    def stop(self) -> None:
        self._stopped = True

    @property
    def stopped(self) -> bool:
        return self._stopped

    def _poll(self, timeout: float) -> None:
        # one write per connection per tick: everything the last callback batch
        # queued leaves now, in queue order, and writability is awaited only
        # for what the socket refused
        for conn in tuple(self._conns):  # _drain may retire a connection
            if conn.wants_write:
                conn.pump_write()
            if conn.eof:
                if conn.armed:  # a write (here or in send_frame) hit EPIPE
                    self._drain(conn)
                continue
            events = _READ_WRITE if conn.wants_write else selectors.EVENT_READ
            if events != conn.armed:
                self._selector.modify(conn.sock, events, conn)
                conn.armed = events
        for key, mask in self._selector.select(timeout):
            conn: Conn = key.data
            if mask & selectors.EVENT_WRITE:
                conn.pump_write()
            if (mask & selectors.EVENT_READ) or conn.eof:
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
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError):  # pragma: no cover
                pass
            conn.armed = 0
            if self.on_eof is not None:
                self.on_eof(conn)

    def on_frame(self, conn: Conn, frame: Frame) -> None:
        """Route or dispatch one decoded frame (overridden by the router)."""
        self.dispatch(frame)

    def _fire_due_timers(self) -> None:
        now = self.now
        while self._timers and self._timers[0][0] <= now:
            _due, _seq, handle, callback = heapq.heappop(self._timers)
            if handle is not None and handle.cancelled:
                continue
            self._ready.append(callback)

    def run(self) -> None:
        """Run until :meth:`stop`; raises on deadline or a crashed activity."""
        while not self._stopped:
            self._fire_due_timers()
            # a bounded batch so ready-queue churn cannot starve the sockets
            for _ in range(min(len(self._ready), _BATCH)):
                self._ready.popleft()()
                if self._stopped:
                    return
            if self._deadline is not None and self.now > self._deadline:
                raise ProcsTimeoutError(
                    f"place loop exceeded its {self._deadline:.1f}s deadline "
                    f"({len(self._blocked)} process(es) blocked)"
                )
            if self._ready:
                timeout = 0.0
            elif self._timers:
                timeout = min(max(0.0, self._timers[0][0] - self.now), _IDLE_WAIT)
            else:
                timeout = _IDLE_WAIT
            self._poll(timeout)

    def close(self) -> None:
        for conn in self._conns:
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
            conn.close()
        self._selector.close()
