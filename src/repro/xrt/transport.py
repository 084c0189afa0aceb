"""The common X10RT point-to-point API: active messages with named handlers."""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional

from repro.errors import DeadPlaceError, TransportError
from repro.machine.config import MachineConfig
from repro.machine.network import Network, TransferKind
from repro.machine.topology import Topology
from repro.obs import Observability
from repro.sim.engine import Engine
from repro.sim.events import SimEvent


class _Reliability:
    """Acks, timeout/exponential-backoff retries, and idempotent delivery.

    Active under chaos: every logical transfer gets a sequence number, the
    receiver acknowledges each arrival, the sender retransmits unacked
    transfers on an exponential-backoff timer, and a delivery table keyed by
    sequence number suppresses duplicates — so the application-visible
    delivery is exactly-once even over a fabric that drops and duplicates.
    A destination that stays silent through ``max_retries`` retransmissions
    is declared dead through the chaos injector (failure-detector semantics),
    which fails the finishes involving it instead of hanging the run.
    """

    def __init__(self, transport: "Transport", chaos) -> None:
        self.transport = transport
        self.chaos = chaos
        spec = chaos.spec
        self.rto = spec.rto
        self.max_retries = spec.max_retries
        self.ack_bytes = spec.ack_bytes
        self._seq = itertools.count(1)
        #: sequence numbers whose payload already reached the application
        self._delivered: set[int] = set()
        #: per-seq sender state for unacked transfers
        self._pending: dict[int, dict] = {}
        metrics = transport.obs.metrics
        self._c_retries = metrics.counter("transport.retry.count")
        self._c_exhausted = metrics.counter("transport.retry.exhausted")
        self._c_acks = metrics.counter("transport.acks")
        self._c_dup_suppressed = metrics.counter("transport.dup_suppressed")
        self._c_delivered = metrics.counter("transport.delivered")
        self._tracer = transport.obs.trace

    def transfer(self, src: int, dst: int, nbytes: float) -> SimEvent:
        """Ship ``nbytes`` src -> dst; the event fires on the first delivery
        (exactly once), however many attempts and duplicates it takes — or
        fails with :class:`~repro.errors.DeadPlaceError` when the destination
        is (or becomes) dead, so senders never hang on a dead peer."""
        seq = next(self._seq)
        done = SimEvent(name=f"rel:{seq}")
        if self.chaos.is_dead(dst):
            done.fail(DeadPlaceError(dst, detected_by=f"transfer@{src}",
                                     detail="destination already dead at send time"))
            return done
        self._pending[seq] = {"acked": False, "attempt": 0, "rto": self.rto}
        self._attempt(src, dst, nbytes, seq, done)
        return done

    # -- sender side -------------------------------------------------------------

    def _attempt(self, src: int, dst: int, nbytes: float, seq: int, done: SimEvent) -> None:
        if self.chaos.is_dead(src):
            self._pending.pop(seq, None)  # a dead sender stops retrying
            return
        event = self.transport.network.transfer(src, dst, nbytes, TransferKind.MSG, tag=seq)
        event.add_callback(lambda _e: self._on_data(src, dst, seq, done))
        state = self._pending.get(seq)
        if state is None:
            return
        # almost every timer is cancelled by its ack; the engine's lazy
        # deletion with compaction keeps the dead entries bounded
        state["handle"] = self.transport.engine.schedule(
            state["rto"], lambda: self._on_timeout(src, dst, nbytes, seq, done)
        )

    def _on_timeout(self, src: int, dst: int, nbytes: float, seq: int, done: SimEvent) -> None:
        state = self._pending.get(seq)
        if state is None or state["acked"]:
            return
        if self.chaos.is_dead(src):
            self._pending.pop(seq, None)  # the sender itself died; nobody is waiting
            return
        if self.chaos.is_dead(dst):
            # the peer died mid-flight: surface the failure at the next timer
            # tick instead of retrying into a black hole (or hanging forever)
            self._pending.pop(seq, None)
            if not done.fired:
                done.fail(DeadPlaceError(dst, detected_by=f"transfer@{src}",
                                         detail="destination died before acknowledging"))
            return
        if state["attempt"] >= self.max_retries:
            self._pending.pop(seq, None)
            self._c_exhausted.inc()
            if self._tracer.enabled:
                self._tracer.instant(
                    "transport.unreachable", "transport", src, self.transport.engine.now,
                    seq=seq, src=src, dst=dst, attempts=state["attempt"],
                )
            self.chaos.declare_dead(dst, reason=f"unreachable after {state['attempt']} retries")
            if not done.fired:
                done.fail(DeadPlaceError(dst, detected_by=f"transfer@{src}",
                                         detail=f"unreachable after {state['attempt']} retries"))
            return
        state["attempt"] += 1
        state["rto"] *= 2
        self._c_retries.inc()
        if self._tracer.enabled:
            self._tracer.instant(
                "transport.retry", "transport", src, self.transport.engine.now,
                seq=seq, src=src, dst=dst, attempt=state["attempt"],
            )
        self._attempt(src, dst, nbytes, seq, done)

    # -- receiver side -----------------------------------------------------------

    def _on_data(self, src: int, dst: int, seq: int, done: SimEvent) -> None:
        if self.chaos.is_dead(dst):
            return
        if seq in self._delivered:
            self._c_dup_suppressed.inc()
            if self._tracer.enabled:
                self._tracer.instant(
                    "transport.dup", "transport", dst, self.transport.engine.now,
                    seq=seq, src=src, dst=dst,
                )
        else:
            self._delivered.add(seq)
            self._c_delivered.inc()
            if self._tracer.enabled:
                self._tracer.instant(
                    "transport.deliver", "transport", dst, self.transport.engine.now,
                    seq=seq, src=src, dst=dst,
                )
            done.trigger()
        # (re-)acknowledge; acks are tagged -seq so traces can tell the legs apart
        ack = self.transport.network.transfer(
            dst, src, self.ack_bytes, TransferKind.MSG, tag=-seq
        )
        ack.add_callback(lambda _e: self._on_ack(seq))

    def _on_ack(self, seq: int) -> None:
        state = self._pending.pop(seq, None)
        if state is None:
            return  # duplicate ack, or the transfer was already resolved
        state["acked"] = True
        self._c_acks.inc()
        handle = state.get("handle")
        if handle is not None:
            handle.cancel()


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
        reliable: Optional[bool] = None,
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
        if reliable is None:
            reliable = chaos is not None
        if reliable and chaos is None:
            raise TransportError("reliable transport needs a chaos injector (rto/retry spec)")
        self._reliability = _Reliability(self, chaos) if reliable else None

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
        behave as if each message were bigger.  On a reliable fabric with
        tracing off, delivery is a single scheduled payload call: no
        SimEvent, no closure.
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
        if self._reliability is None:
            if self.network.transfer_call(src, dst, wire, fn, dst, body):
                return
            delivered = self.network.transfer(src, dst, wire, kind=TransferKind.MSG)
        else:
            delivered = self._reliability.transfer(src, dst, wire)

        def on_delivery(event):
            if event._exc is None:
                fn(dst, body)

        delivered.add_callback(on_delivery)

    def reliable_transfer(self, src: int, dst: int, nbytes: float) -> SimEvent:
        """An exactly-once message transfer: retried/deduplicated in resilient
        mode, a plain network transfer otherwise.  The emulated collectives
        build their rounds on this so they too survive lossy fabrics."""
        if self._reliability is not None:
            return self._reliability.transfer(src, dst, nbytes)
        return self.network.transfer(src, dst, nbytes, kind=TransferKind.MSG)
