"""Serialization: payload size estimation and the real wire format.

The X10 compiler analyzes the bodies of ``at`` statements to identify
inter-place data dependencies and serializes the captured data.  This module
serves both execution backends:

* The **simulator** needs only the *size* of the serialized data —
  :func:`estimate_nbytes` estimates it for the Python values kernels actually
  ship around.
* The **procs backend** (:mod:`repro.xrt.procs`) ships the data for real:
  :func:`encode_frame_parts` / :class:`FrameDecoder` implement the
  authoritative wire format — a 4-byte big-endian length prefix followed by a
  pickled payload, with large contiguous buffers (NumPy arrays) carried *out
  of band* behind the pickle so they are written from, and read into, their
  own memory — including reassembly of frames that arrive split across an
  arbitrary number of partial socket reads.

Where the estimate and the wire format disagree, **the wire format is
authoritative**: :func:`wire_nbytes` measures the real encoding, and
:func:`estimate_nbytes` charges nested containers a per-container envelope so
that nesting a payload can never make its estimate *shrink* relative to the
standalone estimate (the historical nested-tuple inconsistency).
"""

from __future__ import annotations

import pickle
import struct

import numpy as np

from repro.errors import TransportError

_SCALAR_BYTES = 8
_OVERHEAD_BYTES = 16  # per-message envelope (type ids, finish id, etc.)

#: every nested container pays its own envelope on the wire (pickle emits
#: per-container markers); the estimate mirrors that so
#: ``estimate_nbytes((x,)) >= estimate_nbytes(x)`` holds for any ``x``
_NESTED_OVERHEAD = 16

# -- size estimation (the simulator's view) -------------------------------------


def estimate_nbytes(obj) -> int:
    """Estimated serialized size of ``obj`` in bytes.

    NumPy arrays count their buffer; containers recurse; scalars count one
    machine word.  Objects can opt in by exposing a ``serialized_nbytes``
    attribute (used by work items in the GLB queues).  Nested containers are
    charged a per-container envelope, matching the authoritative wire format
    (:func:`wire_nbytes`), so an estimate is monotone under nesting.
    """
    if type(obj) is tuple:
        # the dominant payload shape — argument tuples of scalars and Nones —
        # sized without the per-element dispatch of the general walk
        total = _OVERHEAD_BYTES
        for item in obj:
            kind = type(item)
            if kind is int or kind is float or kind is bool:
                total += _SCALAR_BYTES
            elif item is not None:
                break
        else:
            return total
    return _OVERHEAD_BYTES + _estimate(obj, nested=False)


def _estimate(obj, nested: bool = True) -> int:
    # top-level containers are covered by estimate_nbytes's envelope; every
    # container *below* the top level pays its own (wire-format parity)
    envelope = _NESTED_OVERHEAD if nested else 0
    if obj is None:
        return 0
    custom = getattr(obj, "serialized_nbytes", None)
    if custom is not None:
        return int(custom)
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (bool, int, float, complex, np.generic)):
        return _SCALAR_BYTES
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, dict):
        return envelope + sum(_estimate(k) + _estimate(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return envelope + sum(_estimate(item) for item in obj)
    # unknown object: charge a conservative flat cost
    return 64


# -- the authoritative wire format (the procs backend's view) --------------------
#
#   plain frame:        | !I length          | pickle                          |
#   out-of-band frame:  | !I length | OOB    | table | pickle | buf0 | buf1 ...|
#
# ``length`` counts everything after the 4-byte prefix.  The table is
# ``!I n_buffers, !I pickle_len, n_buffers x !I buffer_len`` and must add up to
# ``length`` exactly.  A payload with no contiguous buffer of
# :data:`OOB_MIN_BYTES` or more is a plain frame: header + protocol-5 pickle.

#: length-prefix header: 4-byte big-endian unsigned frame length
_HEADER = struct.Struct("!I")
HEADER_BYTES = _HEADER.size

#: refuse absurd frames: a corrupted length prefix must fail loudly, not
#: allocate gigabytes (64 MiB is far above any conformance payload)
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: top bit of the length prefix (free: lengths stop at MAX_FRAME_BYTES): the
#: body starts with an out-of-band table
_OOB_FLAG = 0x8000_0000
_LENGTH_MASK = _OOB_FLAG - 1
_TABLE_HEAD = struct.Struct("!II")

#: contiguous buffers at least this large travel out of band; smaller ones
#: stay inside the pickle, where one copy costs less than one more iovec
OOB_MIN_BYTES = 16 * 1024

#: out-of-band buffers start on this boundary of the received body, so the
#: arrays that alias it are as aligned as freshly allocated ones
_ALIGN = 16

#: frames up to this size (header included) are parsed out of the decoder's
#: reusable scratch; a larger body is read into a buffer of its own
SCRATCH_BYTES = 64 * 1024


def encode_frame_parts(obj) -> list:
    """Encode one message as the byte parts of a self-delimiting frame.

    ``parts[0]`` is ``bytes`` the caller owns (length prefix, table if any,
    pickle); every further part is a ``memoryview`` that *borrows* the memory
    of a buffer inside ``obj``, valid only while ``obj`` is unchanged.  Written
    back to back the parts are the frame.
    """
    buffers: list = []

    def out_of_band(buffer: pickle.PickleBuffer) -> bool:
        view = buffer.raw()
        if view.nbytes < OOB_MIN_BYTES:
            return True  # the pickler serializes it in band
        buffers.append(view)
        return False

    payload = pickle.dumps(obj, protocol=5, buffer_callback=out_of_band)
    if not buffers:
        _check_length(len(payload))
        return [_HEADER.pack(len(payload)) + payload]
    table_len = _TABLE_HEAD.size + HEADER_BYTES * len(buffers)
    # zero bytes after the pickle's STOP opcode (the unpickler never reads
    # them) put the first buffer on an _ALIGN boundary of the body
    payload += bytes(-(table_len + len(payload)) % _ALIGN)
    sizes = [view.nbytes for view in buffers]
    length = table_len + len(payload) + sum(sizes)
    _check_length(length)
    table = struct.pack(f"!{2 + len(sizes)}I", len(sizes), len(payload), *sizes)
    return [_HEADER.pack(length | _OOB_FLAG) + table + payload, *buffers]


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame of {length} bytes exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
        )


def encode_frame(obj) -> bytes:
    """Encode one message as one ``bytes`` frame (a copy of every part)."""
    return b"".join(encode_frame_parts(obj))


def wire_nbytes(obj) -> int:
    """Actual size of ``obj`` on the wire (prefix + body) — authoritative."""
    return sum(len(part) for part in encode_frame_parts(obj))


def _decode_out_of_band(body: bytearray):
    """Unpickle an out-of-band body; its arrays alias (and keep alive) ``body``."""
    total = len(body)
    n_buffers, pickle_len = _TABLE_HEAD.unpack_from(body) if total >= _TABLE_HEAD.size else (0, 0)
    start = _TABLE_HEAD.size + HEADER_BYTES * n_buffers
    # the table is read only once it is known to fit: a corrupt count must
    # not size a format string
    sizes = struct.unpack_from(f"!{n_buffers}I", body, _TABLE_HEAD.size) if start <= total else ()
    if not sizes or start + pickle_len + sum(sizes) != total:
        raise TransportError(
            f"out-of-band table ({n_buffers} buffers, pickle of {pickle_len}) does not "
            f"add up to its {total}-byte body: corrupt stream"
        )
    view = memoryview(body)
    buffers = []
    stop = start + pickle_len
    for size in sizes:
        buffers.append(view[stop : stop + size])
        stop += size
    return pickle.loads(view[start : start + pickle_len], buffers=buffers)


class FrameDecoder:
    """Incremental frame reassembly over a byte stream.

    The receive side of :func:`encode_frame_parts` and the only place the
    procs backend parses bytes, so partial-read handling lives in exactly one
    spot.  A reader asks :meth:`space` where the next bytes should land,
    writes there (``recv_into``) and reports how many with :meth:`advance`;
    :meth:`feed` does the same for bytes that already sit somewhere else
    (single bytes, half headers, many frames at once).  Frames that fit
    :data:`SCRATCH_BYTES` are parsed out of one reusable scratch buffer; a
    larger body is received straight into a ``bytearray`` of exactly its size,
    and the arrays of an out-of-band body alias that ``bytearray``: they are
    writable and nothing else refers to their memory.
    """

    __slots__ = ("_scratch", "_filled", "_body", "_body_filled", "_body_oob",
                 "bytes_fed", "frames_decoded")

    def __init__(self) -> None:
        self._scratch = memoryview(bytearray(SCRATCH_BYTES))
        #: bytes of ``_scratch`` holding an incomplete frame (always from 0)
        self._filled = 0
        #: the large body under assembly, how much of it arrived, its flag
        self._body: bytearray | None = None
        self._body_filled = 0
        self._body_oob = False
        self.bytes_fed = 0
        self.frames_decoded = 0

    def space(self) -> memoryview:
        """Where the next received bytes belong (never empty)."""
        if self._body is not None:
            return memoryview(self._body)[self._body_filled :]
        return self._scratch[self._filled :]

    def advance(self, n: int) -> list:
        """``n`` bytes were written into :meth:`space`; return the messages
        they completed (maybe none)."""
        self.bytes_fed += n
        out: list = []
        body = self._body
        if body is not None:
            self._body_filled += n
            if self._body_filled == len(body):
                self._body = None
                out.append(_decode_out_of_band(body) if self._body_oob else pickle.loads(body))
                self.frames_decoded += 1
            return out
        scratch = self._scratch
        filled = self._filled + n
        done = self._parse(scratch, filled, out)
        rest = filled - done
        if rest >= HEADER_BYTES:
            (prefix,) = _HEADER.unpack_from(scratch, done)
            length = prefix & _LENGTH_MASK
            if HEADER_BYTES + length > SCRATCH_BYTES:
                body = bytearray(length)
                arrived = rest - HEADER_BYTES
                body[:arrived] = scratch[done + HEADER_BYTES : filled]
                self._body, self._body_filled = body, arrived
                self._body_oob = prefix != length
                rest = 0
        if done and rest:
            scratch[:rest] = scratch[done:filled]  # memoryview copies are memmove
        self._filled = rest
        return out

    def feed(self, data) -> list:
        """Absorb ``data``; return every message completed by it (maybe none)."""
        out: list = []
        rest = memoryview(data)
        if self._body is None and not self._filled:
            # nothing half-assembled: whole frames are parsed where they are
            done = self._parse(rest, len(rest), out)
            self.bytes_fed += done
            rest = rest[done:]
        while rest:
            space = self.space()
            n = min(len(space), len(rest))
            space[:n] = rest[:n]
            rest = rest[n:]
            out += self.advance(n)
        return out

    def _parse(self, buf, end: int, out: list) -> int:
        """Decode the whole frames at the front of ``buf[:end]`` into ``out``;
        return the offset of the first incomplete one."""
        pos = 0
        while end - pos >= HEADER_BYTES:
            (prefix,) = _HEADER.unpack_from(buf, pos)
            length = prefix & _LENGTH_MASK
            if length > MAX_FRAME_BYTES:
                raise TransportError(
                    f"incoming frame claims {length} bytes "
                    f"(> MAX_FRAME_BYTES {MAX_FRAME_BYTES}): corrupt stream"
                )
            start = pos + HEADER_BYTES
            if end - start < length:
                break
            pos = start + length
            if prefix == length:
                out.append(pickle.loads(buf[start:pos]))
            else:
                # copied out: the arrays must own their memory, not the caller's
                out.append(_decode_out_of_band(bytearray(buf[start:pos])))
            self.frames_decoded += 1
        return pos

    @property
    def pending_bytes(self) -> int:
        """Bytes received toward an incomplete frame."""
        if self._body is not None:
            return HEADER_BYTES + self._body_filled
        return self._filled
