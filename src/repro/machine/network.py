"""The simulated interconnect: message transfers with real resource contention."""

from __future__ import annotations

import enum
from collections import OrderedDict
from typing import Optional

from repro.errors import TransportError
from repro.machine.config import MachineConfig
from repro.machine.resources import SerialResource
from repro.machine.routing import LinkClass, link_bandwidth, resolve
from repro.machine.topology import Topology
from repro.obs import Observability
from repro.sim.engine import Engine
from repro.sim.events import SimEvent


class TransferKind(enum.Enum):
    """How a transfer engages the hub hardware."""

    MSG = "msg"  # active message / control message (PAMI software path)
    RDMA = "rdma"  # remote direct memory access (asyncCopy)
    GUPS = "gups"  # batched remote atomic updates (Torrent GUPS engine)


class NetworkStats:
    """Aggregate traffic counters, used by tests to assert message complexity.

    Folded into the :mod:`repro.obs` metrics registry: this class is now a
    read-only view over the ``net.*`` series with the legacy accessor surface.
    """

    __slots__ = ("_metrics",)

    def __init__(self, metrics) -> None:
        self._metrics = metrics

    @property
    def messages(self) -> dict:
        return {k: int(self._metrics.value("net.messages", kind=k.value)) for k in TransferKind}

    @property
    def bytes(self) -> dict:
        return {k: int(self._metrics.value("net.bytes", kind=k.value)) for k in TransferKind}

    @property
    def route_misses(self) -> int:
        return int(self._metrics.value("net.route_misses"))

    @property
    def by_link_class(self) -> dict:
        return {
            c: int(self._metrics.value("net.link_messages", link=c.value)) for c in LinkClass
        }

    def total_messages(self) -> int:
        return sum(self.messages.values())

    def total_bytes(self) -> int:
        return sum(self.bytes.values())


class _DeliveryEvent(SimEvent):
    """A delivery that may fire more than once under chaos duplication.

    Normal :class:`SimEvent` semantics for the first delivery; a duplicated
    transfer re-invokes every registered callback through :meth:`redeliver`.
    Only the transport sees these events, and its idempotent-delivery table
    is what keeps a duplicate from reaching the application handler twice.
    """

    __slots__ = ("_sticky",)

    def __init__(self, name: str = "") -> None:
        super().__init__(name)
        self._sticky: list = []

    def add_callback(self, callback) -> None:
        self._sticky.append(callback)
        super().add_callback(callback)

    def redeliver(self) -> None:
        for callback in list(self._sticky):
            callback(self)


class _RouteCache:
    """Per-octant LRU of recently used destination octants.

    Models the hub's preference for low out-degree communication graphs: a
    transfer to a destination not in the cache pays a route-setup penalty.
    """

    __slots__ = ("capacity", "entries", "misses")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: OrderedDict[int, None] = OrderedDict()
        self.misses = 0

    def lookup(self, dst_octant: int) -> bool:
        """Touch the route; returns True on hit."""
        if dst_octant in self.entries:
            self.entries.move_to_end(dst_octant)
            return True
        self.misses += 1
        self.entries[dst_octant] = None
        if len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
        return False


class Network:
    """Transfers bytes between places over the modeled Power 775 fabric.

    Every transfer serializes on three resources — source hub injection, the
    bottleneck link, destination hub ejection — and pays software and per-hop
    latencies.  Resources are created lazily, so a 32k-place machine does not
    allocate O(n^2) link objects up front.
    """

    def __init__(
        self,
        engine: Engine,
        config: MachineConfig,
        topology: Topology,
        obs: Optional[Observability] = None,
        chaos=None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.topology = topology
        self.obs = obs if obs is not None else Observability()
        #: optional :class:`~repro.chaos.ChaosInjector`; None = reliable fabric
        self.chaos = chaos
        metrics = self.obs.metrics
        self._tracer = self.obs.trace
        self._msg_count = {k: metrics.counter("net.messages", kind=k.value) for k in TransferKind}
        self._msg_bytes = {k: metrics.counter("net.bytes", kind=k.value) for k in TransferKind}
        self._link_count = {c: metrics.counter("net.link_messages", link=c.value) for c in LinkClass}
        self._route_miss_count = metrics.counter("net.route_misses")
        self.stats = NetworkStats(metrics)
        self._injection: dict[int, SerialResource] = {}
        self._ejection: dict[int, SerialResource] = {}
        self._shm: dict[int, SerialResource] = {}
        self._links: dict[tuple, SerialResource] = {}
        self._route_caches: dict[int, _RouteCache] = {}
        # -- fast-path state: pure caches, shared by both code paths ----------
        self._cpo = config.cores_per_octant
        self._n_places = topology.places
        #: (src_oct, dst_oct) -> Route (resolve() is pure given the topology)
        self._routes: dict[tuple[int, int], object] = {}
        #: (src_oct, dst_oct) -> precomputed hot-path tuple, MSG transfers only
        self._fast: dict[tuple[int, int], tuple] = {}
        self._delivery_names = {k: f"{k.value}-delivery" for k in TransferKind}
        self._name_msg = self._delivery_names[TransferKind.MSG]
        self._c_msg_n = self._msg_count[TransferKind.MSG]
        self._c_msg_b = self._msg_bytes[TransferKind.MSG]
        self._c_link_shm = self._link_count[LinkClass.SHM]
        #: real Counter objects (not the disabled registry's null instrument)?
        #: gates the fast paths' direct ``.value`` increments
        self._m_on = metrics.enabled
        # immutable config scalars, one attribute load instead of two
        self._k_shm_lat = config.shm_latency
        self._k_shm_bw = config.shm_bandwidth
        self._k_sw_lat = config.software_latency
        self._k_miss_pen = config.route_miss_penalty
        self._k_msg_occ = config.msg_injection_overhead
        self._k_inj_bw = config.octant_injection_bandwidth

    # -- lazy resources ---------------------------------------------------------

    def injection(self, octant: int) -> SerialResource:
        res = self._injection.get(octant)
        if res is None:
            res = self._injection[octant] = SerialResource(f"inj[{octant}]")
        return res

    def ejection(self, octant: int) -> SerialResource:
        res = self._ejection.get(octant)
        if res is None:
            res = self._ejection[octant] = SerialResource(f"ej[{octant}]")
        return res

    def _shm_resource(self, octant: int) -> SerialResource:
        res = self._shm.get(octant)
        if res is None:
            res = self._shm[octant] = SerialResource(f"shm[{octant}]")
        return res

    def link(self, key: tuple) -> SerialResource:
        res = self._links.get(key)
        if res is None:
            res = self._links[key] = SerialResource(f"link{key}")
        return res

    def route_cache(self, octant: int) -> _RouteCache:
        cache = self._route_caches.get(octant)
        if cache is None:
            cache = self._route_caches[octant] = _RouteCache(self.config.route_cache_entries)
        return cache

    def _route(self, src_oct: int, dst_oct: int):
        """Memoized :func:`~repro.machine.routing.resolve` (pure per topology)."""
        key = (src_oct, dst_oct)
        route = self._routes.get(key)
        if route is None:
            route = self._routes[key] = resolve(self.topology, src_oct, dst_oct)
        return route

    def _fast_entry(self, src_oct: int, dst_oct: int) -> tuple:
        """Precomputed per-octant-pair state for the MSG fast path.

        Everything here is a pure function of the octant pair: the resolved
        route, the bottleneck resource objects, the bandwidth, and the total
        hop latency.  Mutable per-transfer state (resource clocks, the LRU
        route cache) lives in the referenced objects, exactly as on the slow
        path — the fast path only skips re-deriving the immutable parts.
        """
        route = self._route(src_oct, dst_oct)
        if route.link_class is LinkClass.SHM:
            entry = (None, self._shm_resource(src_oct), 0.0, 0.0, None, None, None)
        else:
            entry = (
                self._link_count[route.link_class],
                self.link(route.link_key),
                link_bandwidth(self.config, route.link_class),
                self.config.hop_latency * route.hops,
                self.route_cache(src_oct),
                self.injection(src_oct),
                self.ejection(dst_oct),
            )
        self._fast[(src_oct, dst_oct)] = entry
        return entry

    # -- the transfer model -------------------------------------------------------

    def _transfer_fast(self, src_place: int, dst_place: int, nbytes: float) -> SimEvent:
        """MSG transfer with chaos and tracing disabled.

        Bit-identical arithmetic to :meth:`transfer` — same reservations in
        the same order, same route-cache touches, same metric increments —
        minus the per-transfer chaos/tracer bookkeeping and the route/enum
        re-derivation.  The zero-overhead suite holds the two paths equal.
        """
        t = self._fast_delivery_time(src_place, dst_place, nbytes)
        event = SimEvent(name=self._name_msg)
        now = self.engine._now
        self.engine.post(t - now if t > now else 0.0, event.trigger)
        return event

    def _fast_delivery_time(self, src_place: int, dst_place: int, nbytes: float) -> float:
        """Shared arithmetic of the MSG fast paths: counters, reservations,
        route-cache touch; returns the absolute delivery time.

        The :meth:`SerialResource.reserve` and :meth:`_RouteCache.lookup`
        bodies are inlined here — same arithmetic, same mutations, no call
        frames — because three reservations per message dominate the profile.
        """
        cpo = self._cpo
        src_oct = src_place // cpo
        dst_oct = dst_place // cpo
        entry = self._fast.get((src_oct, dst_oct))
        if entry is None:
            entry = self._fast_entry(src_oct, dst_oct)
        link_count, resource, bw, hop_total, route_cache, injection, ejection = entry
        m_on = self._m_on
        if m_on:
            self._c_msg_n.value += 1
            self._c_msg_b.value += int(nbytes)
        now = self.engine._now
        if link_count is None:  # shared memory within the octant
            if m_on:
                self._c_link_shm.value += 1
            start = now + self._k_shm_lat
            busy = resource.busy_until
            if start < busy:
                start = busy
            dur = nbytes / self._k_shm_bw
            end = start + dur
            resource.busy_until = end
            resource.total_busy += dur
            resource.reservations += 1
            return end
        if m_on:
            link_count.value += 1
        start = now + self._k_sw_lat
        entries = route_cache.entries
        if dst_oct in entries:
            entries.move_to_end(dst_oct)
        else:
            route_cache.misses += 1
            entries[dst_oct] = None
            if len(entries) > route_cache.capacity:
                entries.popitem(last=False)
            if m_on:
                self._route_miss_count.value += 1
            start += self._k_miss_pen
        occ = self._k_msg_occ
        stream_occ = nbytes / self._k_inj_bw
        if stream_occ > occ:
            occ = stream_occ
        busy = injection.busy_until
        if start < busy:
            start = busy
        t = start + occ
        injection.busy_until = t
        injection.total_busy += occ
        injection.reservations += 1
        busy = resource.busy_until
        if t < busy:
            t = busy
        dur = nbytes / bw
        t += dur
        resource.busy_until = t
        resource.total_busy += dur
        resource.reservations += 1
        busy = ejection.busy_until
        if t < busy:
            t = busy
        t += occ
        ejection.busy_until = t
        ejection.total_busy += occ
        ejection.reservations += 1
        return t + hop_total

    def transfer_call(self, src_place: int, dst_place: int, nbytes: float, fn, a, b) -> bool:
        """Fast-path MSG transfer that posts ``fn(a, b)`` directly at the
        delivery time — no :class:`SimEvent`, no closure.

        The hottest send path in the simulator: active-message posts go
        through here so that a message in flight costs no per-message
        objects beyond the engine's argument tuple.  Returns False (doing
        nothing) when the transfer is not fast-path eligible; the caller must
        then fall back to :meth:`transfer`.  When it runs, the
        network-visible effects are bit-identical to :meth:`transfer`: same
        counters, same reservations, same route-cache touches, same engine
        sequence-number consumption (one posted entry).  The
        :meth:`_fast_delivery_time` body is transcribed inline (one call
        frame per message is measurable at this call count), and the
        zero-overhead suite holds the two copies to the same reservations,
        counters, and delivery times.
        """
        if (
            self.chaos is not None
            or self._tracer.enabled
            or not 0 <= src_place < self._n_places
            or not 0 <= dst_place < self._n_places
        ):
            return False
        if nbytes < 0:
            raise TransportError(f"negative transfer size {nbytes!r}")
        cpo = self._cpo
        src_oct = src_place // cpo
        dst_oct = dst_place // cpo
        entry = self._fast.get((src_oct, dst_oct))
        if entry is None:
            entry = self._fast_entry(src_oct, dst_oct)
        link_count, resource, bw, hop_total, route_cache, injection, ejection = entry
        m_on = self._m_on
        if m_on:
            self._c_msg_n.value += 1
            self._c_msg_b.value += int(nbytes)
        engine = self.engine
        now = engine._now
        if link_count is None:  # shared memory within the octant
            if m_on:
                self._c_link_shm.value += 1
            t = now + self._k_shm_lat
            busy = resource.busy_until
            if t < busy:
                t = busy
            dur = nbytes / self._k_shm_bw
            t += dur
            resource.busy_until = t
            resource.total_busy += dur
            resource.reservations += 1
            engine.post(t - now if t > now else 0.0, fn, a, b)
            return True
        if m_on:
            link_count.value += 1
        start = now + self._k_sw_lat
        entries = route_cache.entries
        if dst_oct in entries:
            entries.move_to_end(dst_oct)
        else:
            route_cache.misses += 1
            entries[dst_oct] = None
            if len(entries) > route_cache.capacity:
                entries.popitem(last=False)
            if m_on:
                self._route_miss_count.value += 1
            start += self._k_miss_pen
        occ = self._k_msg_occ
        stream_occ = nbytes / self._k_inj_bw
        if stream_occ > occ:
            occ = stream_occ
        busy = injection.busy_until
        if start < busy:
            start = busy
        t = start + occ
        injection.busy_until = t
        injection.total_busy += occ
        injection.reservations += 1
        busy = resource.busy_until
        if t < busy:
            t = busy
        dur = nbytes / bw
        t += dur
        resource.busy_until = t
        resource.total_busy += dur
        resource.reservations += 1
        busy = ejection.busy_until
        if t < busy:
            t = busy
        t += occ
        ejection.busy_until = t
        ejection.total_busy += occ
        ejection.reservations += 1
        t += hop_total
        engine.post(t - now if t > now else 0.0, fn, a, b)
        return True

    def transfer(
        self,
        src_place: int,
        dst_place: int,
        nbytes: float,
        kind: TransferKind = TransferKind.MSG,
        tlb_factor: float = 1.0,
        tag: Optional[int] = None,
    ) -> SimEvent:
        """Start a transfer now; the returned event fires at delivery time.

        ``tag`` is an opaque correlation id (the resilient transport's
        sequence number) echoed into trace events so the auditor can pair a
        dropped message with its eventual redelivery.  Under chaos a transfer
        may be dropped (the event never fires), delayed, or duplicated (the
        event fires twice — see :class:`_DeliveryEvent`); a dead endpoint
        blackholes the transfer entirely.
        """
        if nbytes < 0:
            raise TransportError(f"negative transfer size {nbytes!r}")
        chaos = self.chaos
        if (
            chaos is None
            and kind is TransferKind.MSG
            and not self._tracer.enabled
            and 0 <= src_place < self._n_places
            and 0 <= dst_place < self._n_places
        ):
            return self._transfer_fast(src_place, dst_place, nbytes)
        cfg = self.config
        src_oct = self.topology.octant_of(src_place)
        dst_oct = self.topology.octant_of(dst_place)
        route = self._route(src_oct, dst_oct)
        now = self.engine.now

        if chaos is not None and (chaos.is_dead(src_place) or chaos.is_dead(dst_place)):
            chaos.blackholed(src_place, dst_place, now, tag)
            return SimEvent(name="chaos-blackhole")

        self._msg_count[kind].inc()
        self._msg_bytes[kind].inc(int(nbytes))
        self._link_count[route.link_class].inc()
        tracer = self._tracer
        if tracer.enabled:
            tracer.instant(
                "net.transfer",
                "link",
                src_place,
                now,
                src=src_place,
                dst=dst_place,
                kind=kind.value,
                nbytes=int(nbytes),
                link=route.link_class.value,
                hops=route.hops,
            )

        if route.link_class is LinkClass.SHM:
            occ = nbytes / cfg.shm_bandwidth
            done = self._shm_resource(src_oct).reserve(now + cfg.shm_latency, occ)
            return self._deliver_at(done, kind, dst_place)

        # drop / duplicate / delay / reorder apply to the inter-octant
        # software message path only; the wire and hub costs are paid either
        # way (the loss happens inside the fabric, not at the sender)
        fate = None
        if chaos is not None and kind is TransferKind.MSG:
            fate = chaos.fate(src_place, dst_place, now, tag)

        wire_nbytes = nbytes
        if chaos is not None:
            wire_nbytes = nbytes * chaos.degrade_factor(now)

        # route-setup penalty for destinations outside the hub's route cache
        start = now + self._software_overhead(kind)
        if not self.route_cache(src_oct).lookup(dst_oct):
            self._route_miss_count.inc()
            start += cfg.route_miss_penalty

        inj_occ, ej_occ = self._hub_occupancy(kind, wire_nbytes, tlb_factor)
        bw = link_bandwidth(cfg, route.link_class)
        t = self.injection(src_oct).reserve(start, inj_occ)
        t = self.link(route.link_key).reserve(t, wire_nbytes / bw)
        t = self.ejection(dst_oct).reserve(t, ej_occ)
        t += cfg.hop_latency * route.hops

        if fate is not None:
            if fate.drop:
                return SimEvent(name="chaos-dropped")
            t += fate.extra_delay
            if fate.dup_delay is not None:
                # the duplicate consumed the wire too
                self._msg_count[kind].inc()
                self._msg_bytes[kind].inc(int(nbytes))
                self._link_count[route.link_class].inc()
                return self._deliver_at(t, kind, dst_place, dup_time=t + fate.dup_delay)
        return self._deliver_at(t, kind, dst_place)

    def _software_overhead(self, kind: TransferKind) -> float:
        if kind is TransferKind.MSG:
            return self.config.software_latency
        return self.config.rdma_latency

    def _hub_occupancy(self, kind: TransferKind, nbytes: float, tlb_factor: float):
        cfg = self.config
        stream_occ = nbytes / cfg.octant_injection_bandwidth
        if kind is TransferKind.MSG:
            occ = max(cfg.msg_injection_overhead, stream_occ)
            return occ, occ
        if kind is TransferKind.RDMA:
            occ = max(cfg.rdma_injection_overhead, stream_occ * tlb_factor)
            return occ, occ
        # GUPS: per-update engine occupancy at the target hub; updates are
        # 16 bytes (index + operand) each
        updates = max(1, int(nbytes / 16))
        ej = updates * cfg.gups_update_overhead * tlb_factor
        inj = max(cfg.rdma_injection_overhead, stream_occ)
        return inj, ej

    def _deliver_at(
        self,
        time: float,
        kind: TransferKind,
        dst_place: int,
        dup_time: Optional[float] = None,
    ) -> SimEvent:
        chaos = self.chaos
        if chaos is None:
            event = SimEvent(name=self._delivery_names[kind])
            self.engine.post(max(0.0, time - self.engine.now), event.trigger)
            return event
        # under chaos a delivery can race a place failure, and a duplicated
        # transfer fires the same event a second time
        event = _DeliveryEvent(name=f"{kind.value}-delivery")

        def land(deliver):
            if chaos.is_dead(dst_place):
                chaos.blackholed(dst_place, dst_place, self.engine.now, None)
                return
            deliver()

        self.engine.schedule(
            max(0.0, time - self.engine.now), lambda: land(event.trigger)
        )
        if dup_time is not None:
            self.engine.schedule(
                max(0.0, dup_time - self.engine.now), lambda: land(event.redeliver)
            )
        return event

    # -- diagnostics ----------------------------------------------------------

    def route_miss_total(self) -> int:
        return sum(c.misses for c in self._route_caches.values())
