"""The common X10RT point-to-point API: active messages with named handlers."""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional

from repro.errors import TransportError
from repro.machine.config import MachineConfig
from repro.machine.network import Network, TransferKind
from repro.machine.topology import Topology
from repro.obs import Observability
from repro.sim.engine import Engine


class _Message:
    """One logical message of the resilient transport, from send to ack.

    Every leg, data or ack, original or duplicate, lands as one posted
    ``(bound method, record)`` payload call, and each attempt arms one
    cancellable retransmit timer: a message costs this record and a timer
    per attempt, no event and no closure per leg.  ``fn(dst, body)`` runs at
    ``dst`` on the first landing; ``delivered`` turns later landings into
    duplicates; ``live`` means the sender still waits for an ack.
    """

    __slots__ = (
        "src", "dst", "nbytes", "seq", "fn", "body",
        "attempt", "rto", "timer", "delivered", "live",
    )

    def __init__(self, src, dst, nbytes, seq, fn, body, rto) -> None:
        self.src, self.dst, self.nbytes, self.seq = src, dst, nbytes, seq
        self.fn, self.body = fn, body
        self.attempt, self.rto, self.timer = 0, rto, None
        self.delivered, self.live = False, True


class _Reliability:
    """Acks, timeout/exponential-backoff retries, and idempotent delivery.

    Active under chaos: every logical message gets a sequence number and a
    :class:`_Message` record, the receiver acknowledges each arrival, the
    sender retransmits on an exponential-backoff timer until the ack lands,
    and the record's ``delivered`` flag suppresses duplicates — so the
    application-visible delivery is exactly-once even over a fabric that
    drops and duplicates.  A destination that stays silent through
    ``max_retries`` retransmissions is declared dead through the chaos
    injector (failure-detector semantics), which fails the finishes
    involving it instead of hanging the run.
    """

    def __init__(self, transport: "Transport", chaos) -> None:
        self.engine = transport.engine
        self.network = transport.network
        self._n_places = transport.topology.places
        self.chaos = chaos
        #: the injector's live set of dead places, read without a call
        self._dead = chaos.dead
        spec = chaos.spec
        self.rto = spec.rto
        self.max_retries = spec.max_retries
        self.ack_bytes = spec.ack_bytes
        self._seq = 0
        metrics = transport.obs.metrics
        self._c_retries = metrics.counter("transport.retry.count")
        self._c_exhausted = metrics.counter("transport.retry.exhausted")
        self._c_acks = metrics.counter("transport.acks")
        self._c_dup_suppressed = metrics.counter("transport.dup_suppressed")
        self._c_delivered = metrics.counter("transport.delivered")
        self._tracer = transport.obs.trace

    def send(self, src: int, dst: int, nbytes: float, fn, body) -> None:
        """Ship ``nbytes`` src -> dst and run ``fn(dst, body)`` there exactly
        once, however many attempts and duplicates it takes; a dead
        destination swallows it."""
        n = self._n_places
        if nbytes < 0 or not 0 <= src < n or not 0 <= dst < n:
            self.network.check(src, dst, nbytes)
        self._seq = seq = self._seq + 1
        if dst in self._dead:
            return
        self._attempt(_Message(src, dst, nbytes, seq, fn, body, self.rto))

    # -- sender side -------------------------------------------------------------

    def _attempt(self, msg: _Message) -> None:
        if msg.src in self._dead:
            msg.live = False  # a dead sender stops retrying
            return
        times = self.network.chaos_leg(msg.src, msg.dst, msg.nbytes, TransferKind.MSG, 1.0, msg.seq)
        if times is not None:
            self._post_landings(times, self._on_data, msg)
        # almost every timer is cancelled by its ack; the engine's lazy
        # deletion with compaction keeps the dead entries bounded
        msg.timer = self.engine.schedule(msg.rto, partial(self._on_timeout, msg))

    def _post_landings(self, times, fn, msg: _Message) -> None:
        """Put a leg's landing, and its duplicate's, on the clock as ``fn(msg)``."""
        engine = self.engine
        now = engine._now
        t, dup = times
        engine.post(t - now if t > now else 0.0, fn, msg)
        if dup is not None:
            engine.post(dup - now if dup > now else 0.0, fn, msg)

    def _on_timeout(self, msg: _Message) -> None:
        src, dst = msg.src, msg.dst
        dead = self._dead
        if src in dead:
            msg.live = False  # the sender itself died; nobody is waiting
            return
        if dst in dead:
            # the peer died mid-flight: stop instead of retrying into a black
            # hole; the receivers blocked on it learn of the death itself
            msg.live = False
            return
        attempt = msg.attempt
        if attempt >= self.max_retries:
            self._c_exhausted.value += 1
            if self._tracer.enabled:
                self._trace("transport.unreachable", src, msg, attempts=attempt)
            self.chaos.declare_dead(dst, reason=f"unreachable after {attempt} retries")
            msg.live = False
            return
        msg.attempt = attempt = attempt + 1
        msg.rto *= 2
        self._c_retries.value += 1
        if self._tracer.enabled:
            self._trace("transport.retry", src, msg, attempt=attempt)
        self._attempt(msg)

    def _trace(self, name: str, place: int, msg: _Message, **extra) -> None:
        self._tracer.instant(
            name, "transport", place, self.engine.now, seq=msg.seq, src=msg.src, dst=msg.dst, **extra
        )

    # -- receiver side -----------------------------------------------------------

    def _on_data(self, msg: _Message) -> None:
        dst = msg.dst
        if dst in self._dead and self.chaos.swallowed(dst):
            return
        if msg.delivered:
            self._c_dup_suppressed.value += 1
            if self._tracer.enabled:
                self._trace("transport.dup", dst, msg)
        else:
            msg.delivered = True
            self._c_delivered.value += 1
            if self._tracer.enabled:
                self._trace("transport.deliver", dst, msg)
            msg.fn(dst, msg.body)
        # (re-)acknowledge; acks are tagged -seq so traces can tell the legs apart
        times = self.network.chaos_leg(dst, msg.src, self.ack_bytes, TransferKind.MSG, 1.0, -msg.seq)
        if times is not None:
            self._post_landings(times, self._on_ack, msg)

    def _on_ack(self, msg: _Message) -> None:
        if (msg.src in self._dead and self.chaos.swallowed(msg.src)) or not msg.live:
            return  # lost at a dead sender, a duplicate ack, or already resolved
        msg.live = False
        self._c_acks.value += 1
        msg.timer.cancel()


class Transport:
    """Base X10RT transport: point-to-point active messages.

    Handlers are registered by name (the moral equivalent of X10RT message
    types).  Delivery order between a fixed (src, dst) pair follows simulated
    delivery times; the engine's deterministic tie-breaking makes runs
    reproducible.

    With a chaos injector attached the transport runs in *resilient* mode
    (see :class:`_Reliability`); without one the send path is exactly the
    seed's fire-and-forget path, bit-for-bit.
    """

    #: capability flags, overridden by concrete transports
    supports_rdma = False
    supports_hw_collectives = False
    name = "base"

    #: multiplier on per-message software cost relative to PAMI (wire size
    #: and injection overhead)
    software_overhead_factor = 1.0
    #: seconds of per-message software latency on top of the fabric's
    software_latency_extra = 0.0

    def __init__(
        self,
        engine: Engine,
        config: MachineConfig,
        topology: Topology,
        obs: Optional[Observability] = None,
        chaos=None,
    ) -> None:
        if self.software_latency_extra or self.software_overhead_factor != 1.0:
            config = config.with_(
                software_latency=config.software_latency + self.software_latency_extra,
                msg_injection_overhead=config.msg_injection_overhead
                * self.software_overhead_factor,
            )
        self.engine = engine
        self.config = config
        self.topology = topology
        self.obs = obs if obs is not None else Observability()
        self._tracer = self.obs.trace
        self.chaos = chaos
        self.network = Network(engine, config, topology, obs=self.obs, chaos=chaos)
        self._handlers: dict[str, Callable[[int, Any], None]] = {}
        self._send_counters: dict[str, Any] = {}
        self._reliability = _Reliability(self, chaos) if chaos is not None else None

    @property
    def reliable(self) -> bool:
        return self._reliability is not None

    # -- handler registry ---------------------------------------------------------

    def register_handler(self, name: str, fn: Callable[[int, Any], None]) -> None:
        if name in self._handlers:
            raise TransportError(f"handler {name!r} already registered")
        self._handlers[name] = fn

    # -- sending --------------------------------------------------------------------

    def post_args(self, src: int, dst: int, handler: str, body: Any, nbytes: float = 16) -> None:
        """Send an active message, fire and forget: ``handler(dst, body)``
        runs at ``dst`` exactly once on delivery.

        The one send call, under remote spawns and evals, finish control
        traffic and mailbox items.  A dead destination silently swallows the
        message (the finish layer detects the loss through its own
        accounting, not through the transport).  ``nbytes`` is scaled by the
        transport's ``software_overhead_factor``: software-heavy transports
        behave as if each message were bigger.  Delivery is a single posted
        payload call, no SimEvent and no closure, traced or not: one
        :meth:`Network.transfer_call` on a reliable fabric, one
        :class:`_Message` record per message (however many legs it takes)
        under chaos.
        """
        fn = self._handlers.get(handler)
        if fn is None:
            raise TransportError(f"no handler registered for {handler!r}")
        counter = self._send_counters.get(handler)
        if counter is None:
            counter = self._send_counters[handler] = self.obs.metrics.counter(
                "xrt.messages", handler=handler
            )
        counter.value += 1
        if self._tracer.enabled:
            self._tracer.instant(
                "xrt.send",
                "message",
                src,
                self.engine.now,
                src=src,
                dst=dst,
                handler=handler,
                nbytes=nbytes,
            )
        wire = nbytes * self.software_overhead_factor
        if self._reliability is not None:
            self._reliability.send(src, dst, wire, fn, body)
        else:
            self.network.transfer_call(src, dst, wire, fn, dst, body)
