"""The authoritative wire format: framing, partial reads, and real sockets.

Satellite 2 of the procs-backend PR: seeded round-trips of every procs
message shape through real socketpairs, >64 KiB payload framing, and
partial-read reassembly down to one byte at a time.  Everything here is
in-process (no forked children), so it runs in the tier-1 gate.
"""

from __future__ import annotations

import pickle
import random
import socket
import struct

import numpy as np
import pytest

from repro.errors import TransportError
from repro.xrt.conformance import deep_equal
from repro.xrt.procs import wire
from repro.xrt.serialization import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    FrameDecoder,
    encode_frame,
    estimate_nbytes,
    wire_nbytes,
)

# -- frame encoding ----------------------------------------------------------------


def test_encode_frame_is_header_plus_pickle():
    obj = ("item", 1, 2, ("mailbox", [1, 2, 3]))
    data = encode_frame(obj)
    (length,) = struct.unpack("!I", data[:HEADER_BYTES])
    assert length == len(data) - HEADER_BYTES
    assert pickle.loads(data[HEADER_BYTES:]) == obj


def test_wire_nbytes_matches_encoded_length():
    for obj in (None, 0, "x" * 100, {"a": np.arange(7)}, ("spawn", 0, 3, (1, 2))):
        assert wire_nbytes(obj) == len(encode_frame(obj))


def test_oversize_frame_refused_on_send():
    with pytest.raises(TransportError):
        encode_frame(np.zeros(MAX_FRAME_BYTES // 8 + 16, dtype=np.float64))


def test_corrupt_length_prefix_refused_on_receive():
    dec = FrameDecoder()
    with pytest.raises(TransportError):
        dec.feed(struct.pack("!I", MAX_FRAME_BYTES + 1) + b"x")


# -- partial-read reassembly -------------------------------------------------------


def test_decoder_one_byte_at_a_time():
    messages = [("join", 2, 0, ((0, 1), "finish_spmd")), {"k": list(range(50))}, None]
    stream = b"".join(encode_frame(m) for m in messages)
    dec = FrameDecoder()
    out = []
    for i in range(len(stream)):
        out.extend(dec.feed(stream[i : i + 1]))
    assert out == messages
    assert dec.pending_bytes == 0
    assert dec.frames_decoded == len(messages)
    assert dec.bytes_fed == len(stream)


def test_decoder_split_inside_header():
    data = encode_frame("hello")
    dec = FrameDecoder()
    assert dec.feed(data[:2]) == []  # half a header
    assert dec.pending_bytes == 2
    assert dec.feed(data[2:]) == ["hello"]


def test_decoder_many_frames_in_one_chunk():
    messages = [("item", i, 0, ("box", i)) for i in range(20)]
    stream = b"".join(encode_frame(m) for m in messages)
    dec = FrameDecoder()
    assert dec.feed(stream) == messages


def test_decoder_random_chunking_round_trips():
    rng = random.Random(1234)
    messages = [
        ("spawn", 0, 3, ("fn", (1, 2.5, None), (0, 7), "finish_spmd", 0, "w")),
        ("item", 3, 1, ("uts:ctl", ("loot", [(1, 4)], 2))),
        {"arr": np.arange(100, dtype=np.uint64)},
        b"\x00" * 300,
    ]
    stream = b"".join(encode_frame(m) for m in messages)
    dec = FrameDecoder()
    out, i = [], 0
    while i < len(stream):
        step = rng.randint(1, 37)
        out.extend(dec.feed(stream[i : i + step]))
        i += step
    assert len(out) == len(messages)
    np.testing.assert_array_equal(out[2]["arr"], messages[2]["arr"])


def test_large_payload_over_64kib_frames():
    payload = np.arange(3 * 65536, dtype=np.float64)  # ~1.5 MiB on the wire
    data = encode_frame(("item", 1, 2, ("big", payload)))
    assert len(data) > 64 * 1024
    dec = FrameDecoder()
    out = []
    for i in range(0, len(data), 4096):
        out.extend(dec.feed(data[i : i + 4096]))
    assert len(out) == 1
    kind, src, dst, (box, arr) = out[0]
    assert (kind, src, dst, box) == ("item", 1, 2, "big")
    np.testing.assert_array_equal(arr, payload)


# -- every message kind through a real socket --------------------------------------


def _sample_frames(seed: int):
    """One seeded frame per procs message kind (the complete wire vocabulary)."""
    rng = np.random.default_rng(seed)
    fid = (int(rng.integers(0, 4)), int(rng.integers(0, 100)))
    arr = rng.standard_normal(int(rng.integers(1, 2000)))
    return [
        (wire.SPAWN, 0, 2, ("mod.fn", ({"p": 3},), fid, "finish_spmd", 0, "worker")),
        (wire.FORK, 2, 0, (fid, "finish_dense", 3)),
        (wire.JOIN, 2, 0, (fid, "finish_dense")),
        (wire.EVAL, 0, 1, ("mod.fn", (1, 2), 17)),
        (wire.REPLY, 1, 0, (17, arr, False)),
        (wire.ITEM, 3, 1, ("fft:a2a", (3, arr.reshape(-1, 1)))),
        (wire.EXIT, 0, 3, None),
        (wire.DONE, 3, 0, {"ctl_by_pragma": {"finish_spmd": 4}, "activities_run": 2}),
        (wire.CRASH, 2, 0, "Traceback (most recent call last): ..."),
        (wire.PING, 0, 3, int(rng.integers(0, 1000))),
        (wire.PONG, 3, 0, int(rng.integers(0, 1000))),
        (wire.DEAD, 0, 1, (2, "no heartbeat for 5.10s (timeout 5.00s)")),
    ]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_all_message_kinds_round_trip_over_socketpair(seed):
    a_sock, b_sock = socket.socketpair()
    a, b = wire.Conn(a_sock, peer=1), wire.Conn(b_sock, peer=0)
    try:
        frames = _sample_frames(seed)
        for frame in frames:
            a.send_frame(frame)
        assert a.wants_write
        a.pump_write()
        received = []
        while len(received) < len(frames):
            received.extend(b.pump_read())
        assert not b.eof
        assert len(received) == len(frames)
        for sent, got in zip(frames, received):
            assert got[0] == sent[0] and got[1] == sent[1] and got[2] == sent[2]
        np.testing.assert_array_equal(received[4][3][1], frames[4][3][1])
        assert a.frames_sent == len(frames)
        assert a.bytes_sent == sum(wire_nbytes(f) for f in frames)
        assert b.decoder.frames_decoded == len(frames)
    finally:
        a.close()
        b.close()


def test_conn_eof_detected_on_peer_close():
    a_sock, b_sock = socket.socketpair()
    a, b = wire.Conn(a_sock, peer=1), wire.Conn(b_sock, peer=0)
    a.send_frame(("item", 0, 1, ("box", "last words")))
    a.pump_write()
    a.close()
    got = []
    while not b.eof:
        got.extend(b.pump_read())
    assert got == [("item", 0, 1, ("box", "last words"))]
    b.close()


def test_send_after_eof_counts_dropped_frames():
    """Satellite: nothing is ever *silently* lost — a frame queued after the
    peer hung up is counted in ``Conn.dropped``, not vanished."""
    a_sock, b_sock = socket.socketpair()
    a, b = wire.Conn(a_sock, peer=1), wire.Conn(b_sock, peer=0)
    try:
        a.close()
        while not b.eof:
            b.pump_read()
        sent_before = b.frames_sent
        b.send_frame(("item", 0, 1, ("box", "into the void")))
        b.send_frame(("join", 0, 1, ((0, 0), "default")))
        assert b.dropped == 2
        assert b.frames_sent == sent_before  # dropped frames are not "sent"
        assert not b.wants_write  # and nothing was buffered for the wire
    finally:
        b.close()


def test_every_frame_is_sent_or_counted_dropped():
    """The wire conservation law: frames offered == frames sent + dropped."""
    a_sock, b_sock = socket.socketpair()
    a, b = wire.Conn(a_sock, peer=1), wire.Conn(b_sock, peer=0)
    offered = 0
    try:
        for i in range(5):
            a.send_frame(("item", 0, 1, ("box", i)))
            offered += 1
        a.pump_write()
        b.close()  # peer dies mid-conversation
        while not a.eof:
            a.pump_read()
        for i in range(3):
            a.send_frame(("item", 0, 1, ("box", i)))
            offered += 1
        assert a.frames_sent + a.dropped == offered
        assert a.dropped == 3
    finally:
        a.close()


def test_conn_nonblocking_read_returns_empty():
    a_sock, b_sock = socket.socketpair()
    a, b = wire.Conn(a_sock, peer=1), wire.Conn(b_sock, peer=0)
    try:
        assert b.pump_read() == []  # nothing sent: would-block, not EOF
        assert not b.eof
    finally:
        a.close()
        b.close()


# -- seeded partial reads and writes through Conn ----------------------------------


class _FakeSocket:
    """One end of an in-memory stream whose system calls move a seeded random
    number of bytes, from one to a megabyte, or refuse (``BlockingIOError``)."""

    _CAPS = (1, 8, 64, 4096, 1 << 16, 1 << 20)

    def __init__(self, rng: random.Random, stream: bytearray) -> None:
        self.rng = rng
        self.stream = stream
        self.taken = 0  # bytes of ``stream`` the reader has consumed

    def _quota(self) -> int:
        if self.rng.random() < 0.15:
            raise BlockingIOError
        return self.rng.randint(1, self.rng.choice(self._CAPS))

    def sendmsg(self, buffers) -> int:
        quota = sent = self._quota()
        for buf in buffers:
            chunk = memoryview(buf)[:quota]
            self.stream += chunk
            quota -= len(chunk)
        return sent - quota

    def recv_into(self, space) -> int:
        n = min(self._quota(), len(space), len(self.stream) - self.taken)
        if n == 0:
            raise BlockingIOError
        space[:n] = memoryview(self.stream)[self.taken : self.taken + n]
        self.taken += n
        return n

    def setblocking(self, flag) -> None: ...
    def setsockopt(self, *args) -> None: ...
    def close(self) -> None: ...


def _array_cases(rng: np.random.Generator) -> list:
    """Payloads on both sides of every branch of the out-of-band encoding."""
    big = rng.random((512, 512))
    return [
        None,
        rng.random(1),
        rng.random(16 * 1024 // 8 - 1),  # 8 bytes under the threshold: in band
        rng.random(16 * 1024 // 8),  # at the threshold: out of band
        rng.random(1 << 17),  # 1 MiB
        (rng.integers(0, 1 << 40, 1 << 14), "between", rng.random(1 << 13)),  # two large
        np.asfortranarray(rng.random((96, 64))),
        big[::3, 5:90],  # non-contiguous: pickled in band, whatever its size
        np.empty((0, 3)),
        rng.bytes(100 * 1024),  # a large body with no out-of-band part
    ]


def _seeded_frames(seed: int) -> list:
    frames = _sample_frames(seed)
    frames += [(wire.ITEM, 1, 0, ("case", case))
               for case in _array_cases(np.random.default_rng(seed))]
    random.Random(seed).shuffle(frames)
    return frames


@pytest.mark.parametrize("block", range(8))
def test_conn_survives_seeded_partial_reads_and_writes(block):
    for seed in range(block * 25, block * 25 + 25):
        rng = random.Random(seed)
        frames = _seeded_frames(seed)
        stream = bytearray()
        tx = wire.Conn(_FakeSocket(rng, stream), peer=1)
        rx = wire.Conn(_FakeSocket(rng, stream), peer=0)
        received = []
        for frame in frames:
            tx.send_frame(frame)
            if rng.random() < 0.5:
                tx.pump_write()
                received += rx.pump_read()
        while tx.wants_write or len(received) < len(frames):
            tx.pump_write()
            received += rx.pump_read()
        assert deep_equal(frames, received) == [], seed
        assert tx.frames_sent == rx.decoder.frames_decoded == len(frames)
        assert tx.bytes_sent == rx.decoder.bytes_fed == len(stream) \
            == sum(wire_nbytes(f) for f in frames), seed
        assert rx.decoder.pending_bytes == 0

        # the same stream through feed(), in seeded chunks
        dec, fed, pos = FrameDecoder(), [], 0
        while pos < len(stream):
            step = rng.randint(1, rng.choice(_FakeSocket._CAPS))
            fed += dec.feed(bytes(stream[pos : pos + step]))
            pos += step
        assert deep_equal(frames, fed) == [], seed
        assert dec.bytes_fed == len(stream) and dec.pending_bytes == 0


def test_one_byte_feeds_decode_the_out_of_band_stream():
    """Every split point of every header, table, pickle and buffer at once."""
    frames = _seeded_frames(0)
    stream = b"".join(encode_frame(f) for f in frames)
    dec, out = FrameDecoder(), []
    for i in range(len(stream)):
        out += dec.feed(stream[i : i + 1])
    assert deep_equal(frames, out) == []
    assert dec.bytes_fed == len(stream) and dec.pending_bytes == 0


def test_small_frames_are_byte_identical_to_header_plus_pickle():
    """Only a contiguous buffer of 16 KiB or more changes the encoding."""
    under = ("item", 1, 0, ("box", np.arange(16 * 1024 // 8 - 1, dtype=np.float64)))
    data = encode_frame(under)
    assert data == struct.pack("!I", len(data) - HEADER_BYTES) + pickle.dumps(under, protocol=5)
    at = ("item", 1, 0, ("box", np.arange(16 * 1024 // 8, dtype=np.float64)))
    (prefix,) = struct.unpack("!I", encode_frame(at)[:HEADER_BYTES])
    assert prefix >> 31 == 1 and prefix & 0x7FFFFFFF == wire_nbytes(at) - HEADER_BYTES


# -- what a naive zero-copy gets wrong ---------------------------------------------


def test_sender_may_overwrite_an_array_right_after_send_frame():
    """Copy semantics: the peer is not reading yet, so most of the 8 MiB is
    still queued when the sender scribbles over its array."""
    a_sock, b_sock = socket.socketpair()
    a, b = wire.Conn(a_sock, peer=1), wire.Conn(b_sock, peer=0)
    try:
        payload = np.arange(1 << 20, dtype=np.float64)
        a.send_frame((wire.ITEM, 0, 1, ("box", payload)))
        assert a.wants_write  # the kernel cannot have taken 8 MiB
        payload[:] = -1.0
        received = []
        while not received:
            a.pump_write()
            received += b.pump_read()
        np.testing.assert_array_equal(received[0][3][1], np.arange(1 << 20, dtype=np.float64))
    finally:
        a.close()
        b.close()


@pytest.mark.parametrize("n", [1 << 12, 1 << 16], ids=["via-scratch", "own-body"])
def test_received_arrays_are_writable_and_own_their_memory(n):
    a_sock, b_sock = socket.socketpair()
    a, b = wire.Conn(a_sock, peer=1), wire.Conn(b_sock, peer=0)
    try:
        received = []
        for fill in (1.0, 2.0, 3.0):
            a.send_frame((wire.REPLY, 1, 0, (0, np.full(n, fill), False)))
            while len(received) < fill:
                a.pump_write()
                received += b.pump_read()
        first, second, third = (frame[3][1] for frame in received)
        assert first.flags.writeable and second.flags.writeable
        first[:] = -1.0
        second[:] = -2.0
        assert (first == -1.0).all() and (second == -2.0).all() and (third == 3.0).all()
    finally:
        a.close()
        b.close()


def test_out_of_band_claims_are_checked_before_anything_is_allocated():
    oob = 0x8000_0000
    with pytest.raises(TransportError, match="MAX_FRAME_BYTES"):
        FrameDecoder().feed(struct.pack("!I", oob | (MAX_FRAME_BYTES + 1)))
    # a 24-byte body whose table claims a 4 GiB buffer, then one claiming 2**32 - 1 buffers
    for table in (struct.pack("!III", 1, 4, 0xFFFF_FFFF), struct.pack("!III", 0xFFFF_FFFF, 4, 8)):
        body = table + b"N." + bytes(10)
        with pytest.raises(TransportError, match="add up"):
            FrameDecoder().feed(struct.pack("!I", oob | len(body)) + body)


# -- system calls are counted ------------------------------------------------------


def test_a_tick_of_small_frames_is_one_write_and_one_read():
    a_sock, b_sock = socket.socketpair()
    a, b = wire.Conn(a_sock, peer=1), wire.Conn(b_sock, peer=0)
    try:
        for i in range(100):
            a.send_frame((wire.JOIN, 1, 0, ((0, i), "finish_dense")))
        a.pump_write()
        assert (a.writes, a.frames_sent, a.wants_write) == (1, 100, False)
        assert [frame[3][0] for frame in b.pump_read()] == [(0, i) for i in range(100)]
        assert b.reads == 1
    finally:
        a.close()
        b.close()


# -- estimate vs wire (satellite 3 regression) -------------------------------------


def test_estimate_monotone_under_nesting():
    """The historical bug: nesting a payload made its estimate *shrink*."""
    samples = [
        0,
        3.14,
        "abc",
        b"xyz",
        np.arange(16),
        [1, 2, 3],
        (1.0, (2.0, 3.0)),
        {"a": [1, 2], "b": (3,)},
    ]
    for x in samples:
        assert estimate_nbytes((x,)) >= estimate_nbytes(x), x
        assert estimate_nbytes([x]) >= estimate_nbytes(x), x
        assert estimate_nbytes(((x,),)) >= estimate_nbytes((x,)), x


def test_estimate_tracks_wire_order_of_magnitude():
    """The estimate need not equal the pickle size, but an array-dominated
    payload must be estimated within a small factor of the real encoding."""
    payload = ("item", 1, 2, ("box", np.arange(50_000, dtype=np.float64)))
    est, real = estimate_nbytes(payload), wire_nbytes(payload)
    assert 0.5 * real < est < 2.0 * real
