"""Framed, non-blocking socket connections and the procs message kinds.

Every message between place processes is one frame (see
:func:`repro.xrt.serialization.encode_frame_parts`) holding a 4-tuple
``(kind, src, dst, payload)``.  Topology is a star: each child place holds one
connection to place 0, which routes child-to-child frames by ``dst``.  A
single router gives a useful causal guarantee for the finish protocol: a FORK
notice enqueued before the SPAWN it covers is *delivered* to the home place
before any JOIN that spawn can produce.
"""

from __future__ import annotations

import socket
from collections import deque
from itertools import islice
from typing import Any, Deque, List, Tuple

from repro.xrt.serialization import OOB_MIN_BYTES, FrameDecoder, encode_frame_parts

# -- message kinds ---------------------------------------------------------------

#: remote spawn: payload (fn, args, fid, pragma_value, home, name)
SPAWN = "spawn"
#: finish fork notice to the home place (uncounted bookkeeping; the sim's
#: equivalent rides inside the spawn message): payload (fid, pragma_value, dst)
#: — the destination place lets the home finish attribute the pending count
#: per place, which is what makes death write-offs exact
FORK = "fork"
#: finish join — the counted control message: payload (fid, pragma_value)
JOIN = "join"
#: blocking remote evaluation: payload (fn, args, reply_id)
EVAL = "eval"
#: evaluation result: payload (reply_id, value, is_error)
REPLY = "reply"
#: mailbox delivery: payload (mailbox, item)
ITEM = "item"
#: place 0 -> child: the program is over, report and exit: payload None
EXIT = "exit"
#: child -> place 0: final per-place report: payload dict
DONE = "done"
#: child -> place 0: uncaught exception: payload formatted traceback str
CRASH = "crash"
#: place 0 -> child: liveness probe; the child must answer PONG from its
#: socket loop (proving the loop is alive, not that activities progress):
#: payload heartbeat sequence number
PING = "ping"
#: child -> place 0: heartbeat answer: payload the PING's sequence number
PONG = "pong"
#: place 0 -> child: structured death notice: payload (dead_place, cause).
#: Per-connection FIFO plus the single router give the causal guarantee the
#: finish protocol needs: a DEAD notice is delivered after every frame the
#: dead place managed to send that the router routed before marking it dead.
DEAD = "dead"

Frame = Tuple[str, int, int, Any]

#: asked of the kernel for both socket buffers (best effort: ``wmem_max``
#: caps it), so a whole 1 MiB frame leaves in one ``sendmsg`` and none of it
#: has to be copied to honour the sender's copy semantics
_SOCKET_BUFFER_BYTES = 2 * 1024 * 1024

#: parts per ``sendmsg`` (the platform's IOV_MAX is at least 1024)
_MAX_IOV = 512


class Conn:
    """One framed connection, non-blocking in both directions.

    Reads land where the :class:`FrameDecoder` wants them (``recv_into``), so
    partial frames are handled in exactly one place and a large body is
    received straight into the memory its arrays will own.  Writes queue the
    parts of :func:`encode_frame_parts` and leave through ``sendmsg``: the
    owning loop flushes each connection once per tick, before it polls, and
    waits for writability only for what the socket refused.  Neither side can
    deadlock the pair: a frame is never written with a blocking call.

    Copy semantics hold for senders: :meth:`send_frame` returns owning every
    byte it still has to write, so the caller may overwrite an array it just
    sent.
    """

    __slots__ = (
        "sock", "peer", "decoder", "_out", "bytes_sent", "frames_sent", "dropped", "eof",
        "writes", "reads", "armed",
    )

    def __init__(self, sock: socket.socket, peer: int) -> None:
        sock.setblocking(False)
        for option in (socket.SO_SNDBUF, socket.SO_RCVBUF):
            try:
                sock.setsockopt(socket.SOL_SOCKET, option, _SOCKET_BUFFER_BYTES)
            except OSError:  # pragma: no cover - best effort; the host caps it
                pass
        self.sock = sock
        #: the place on the other end (from place 0's view; -1 means "router")
        self.peer = peer
        self.decoder = FrameDecoder()
        #: parts awaiting the socket, oldest first; all owned by this queue.
        #: Small heads merge into a trailing ``bytearray``
        self._out: Deque = deque()
        self.bytes_sent = 0
        self.frames_sent = 0
        #: frames queued after EOF — nothing is ever *silently* lost: every
        #: frame is either sent or counted here (``procs.wire.dropped``)
        self.dropped = 0
        self.eof = False
        #: system calls that moved bytes; ``frames_sent / writes`` is the
        #: coalescing ratio
        self.writes = 0
        self.reads = 0
        #: poll event mask the owning loop has registered (the loop's
        #: field; 0 once the loop has seen this connection's EOF)
        self.armed = 0

    def fileno(self) -> int:
        return self.sock.fileno()

    # -- sending ---------------------------------------------------------------

    def send_frame(self, frame: Frame) -> None:
        """Queue one frame.  Bytes move at the owning loop's next flush, except
        that a frame borrowing the caller's memory is written at once and
        whatever the kernel did not take is copied before returning."""
        if self.eof:
            self.dropped += 1
            return
        parts = encode_frame_parts(frame)
        head = parts[0]
        nbytes = len(head)
        out = self._out
        # heads merge into the newest part while both are small, so a tick's
        # control frames are one buffer and large bytes are never re-copied
        tail = out[-1] if out and nbytes < OOB_MIN_BYTES else None
        if type(tail) is bytearray:
            tail += head
        elif type(tail) is bytes and len(tail) < OOB_MIN_BYTES:
            out[-1] = bytearray(tail) + head
        else:
            out.append(head)
        self.frames_sent += 1
        borrowed = len(parts) - 1
        if borrowed:
            for part in parts[1:]:
                out.append(part)
                nbytes += len(part)
            self.pump_write()
            # the borrowed parts are the newest: own what is still queued
            for i in range(max(0, len(out) - borrowed), len(out)):
                out[i] = bytes(out[i])
        self.bytes_sent += nbytes

    @property
    def wants_write(self) -> bool:
        return bool(self._out)

    def pump_write(self) -> None:
        """Push queued parts out; stops at the first would-block."""
        out = self._out
        while out:
            try:
                sent = self.sock.sendmsg(islice(out, _MAX_IOV))
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                # peer gone mid-write (EPIPE after a SIGKILL), or a blocking
                # flush timed out: the queued bytes can never be delivered —
                # surface as EOF so the owner retires the connection; the
                # loop drains the read side first, so frames the peer managed
                # to send are not lost
                self.eof = True
                out.clear()
                return
            self.writes += 1
            while sent:
                part = out[0]
                if sent >= len(part):
                    sent -= len(part)
                    out.popleft()
                elif type(part) is bytearray:
                    del part[:sent]  # the mergeable tail stays resizable
                    break
                else:
                    out[0] = memoryview(part)[sent:]
                    break

    def flush_blocking(self, timeout: float) -> None:
        """Best-effort synchronous drain (shutdown paths only)."""
        self.sock.settimeout(timeout)
        try:
            self.pump_write()
        finally:
            try:
                self.sock.setblocking(False)
            except OSError:
                pass

    # -- receiving -------------------------------------------------------------

    def pump_read(self) -> List[Frame]:
        """Read whatever is available; return the frames completed by it."""
        frames: List[Frame] = []
        decoder = self.decoder
        while True:
            space = decoder.space()
            try:
                n = self.sock.recv_into(space)
            except (BlockingIOError, InterruptedError):
                return frames
            except OSError:
                self.eof = True
                return frames
            if not n:
                self.eof = True
                return frames
            self.reads += 1
            frames += decoder.advance(n)
            if n < len(space):
                # a short read on a stream socket: the kernel's queue is
                # empty, and asking again would only cost a would-block
                return frames

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - close on a dead fd
            pass
