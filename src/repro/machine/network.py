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


class _RouteCache:
    """Per-octant LRU of recently used destination octants.

    Models the hub's preference for low out-degree communication graphs: a
    transfer to a destination not in the cache pays a route-setup penalty.
    Pure state; :meth:`Network._reserve_path` does the touch.
    """

    __slots__ = ("capacity", "entries", "misses")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: OrderedDict[int, None] = OrderedDict()
        self.misses = 0


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
        #: the spec slows links down at some point (else a leg skips the call)
        self._degrades = chaos is not None and chaos.spec.degrade_factor > 1.0
        metrics = self.obs.metrics
        self._tracer = self.obs.trace
        self._msg_count = {k: metrics.counter("net.messages", kind=k.value) for k in TransferKind}
        self._msg_bytes = {k: metrics.counter("net.bytes", kind=k.value) for k in TransferKind}
        self._link_count = {c: metrics.counter("net.link_messages", link=c.value) for c in LinkClass}
        self._route_miss_count = metrics.counter("net.route_misses")
        self._injection: dict[int, SerialResource] = {}
        self._ejection: dict[int, SerialResource] = {}
        self._shm: dict[int, SerialResource] = {}
        self._links: dict[tuple, SerialResource] = {}
        self._route_caches: dict[int, _RouteCache] = {}
        # -- pure caches over the immutable topology and config -----------------
        self._cpo = config.cores_per_octant
        self._n_places = topology.places
        #: (src_oct, dst_oct) -> Route (resolve() is pure given the topology)
        self._routes: dict[tuple[int, int], object] = {}
        #: (src_oct, dst_oct) -> precomputed tuple, see :meth:`_path_entry`
        self._paths: dict[tuple[int, int], tuple] = {}
        self._delivery_names = {k: f"{k.value}-delivery" for k in TransferKind}
        # MSG is the hot kind: its counters skip the enum-keyed dict lookups
        self._c_msg_n = self._msg_count[TransferKind.MSG]
        self._c_msg_b = self._msg_bytes[TransferKind.MSG]
        # immutable config scalars, one attribute load instead of two
        self._k_shm_lat = config.shm_latency
        self._k_shm_bw = config.shm_bandwidth
        self._k_sw_lat = config.software_latency
        self._k_rdma_lat = config.rdma_latency
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

    def _path_entry(self, src_oct: int, dst_oct: int) -> tuple:
        """Precomputed per-octant-pair state for :meth:`_reserve_path`.

        Everything here is a pure function of the octant pair: the link-class
        counter, the bottleneck resource, its bandwidth, the total hop
        latency, and the hub resources.  Mutable per-transfer state (resource
        clocks, the LRU route cache) lives in the referenced objects.  A
        shared-memory pair has no route cache and no hubs (``None``).
        """
        route = self._route(src_oct, dst_oct)
        link_count = self._link_count[route.link_class]
        if route.link_class is LinkClass.SHM:
            entry = (link_count, self._shm_resource(src_oct), 0.0, 0.0, None, None, None)
        else:
            entry = (
                link_count,
                self.link(route.link_key),
                link_bandwidth(self.config, route.link_class),
                self.config.hop_latency * route.hops,
                self.route_cache(src_oct),
                self.injection(src_oct),
                self.ejection(dst_oct),
            )
        self._paths[(src_oct, dst_oct)] = entry
        return entry

    # -- the transfer model -------------------------------------------------------

    def _reserve_path(
        self,
        src_place: int,
        dst_place: int,
        nbytes: float,
        wire_nbytes: float,
        kind: TransferKind,
        tlb_factor: float,
    ) -> float:
        """The one copy of the per-message model; returns the absolute
        delivery time.

        Counts the message, then either reserves the octant's shared memory
        or touches the route cache and reserves source injection, bottleneck
        link and destination ejection in that order.  ``wire_nbytes`` is what
        the hubs and the link carry (``nbytes``, inflated under chaos link
        degradation).  :meth:`SerialResource.reserve` is inlined (same
        arithmetic, same mutations, no call frames) because three
        reservations per message dominate the profile.
        """
        cpo = self._cpo
        src_oct = src_place // cpo
        dst_oct = dst_place // cpo
        entry = self._paths.get((src_oct, dst_oct))
        if entry is None:
            entry = self._path_entry(src_oct, dst_oct)
        link_count, resource, bw, hop_total, route_cache, injection, ejection = entry
        msg = kind is TransferKind.MSG
        if msg:
            self._c_msg_n.value += 1
            self._c_msg_b.value += int(nbytes)
        else:
            self._msg_count[kind].value += 1
            self._msg_bytes[kind].value += int(nbytes)
        link_count.value += 1
        now = self.engine._now
        if route_cache is None:  # shared memory within the octant
            t = now + self._k_shm_lat
            busy = resource.busy_until
            if t < busy:
                t = busy
            dur = nbytes / self._k_shm_bw
            t += dur
            resource.busy_until = t
            resource.total_busy += dur
            resource.reservations += 1
            return t
        t = now + (self._k_sw_lat if msg else self._k_rdma_lat)
        # route-setup penalty for destinations outside the hub's route cache
        entries = route_cache.entries
        if dst_oct in entries:
            entries.move_to_end(dst_oct)
        else:
            route_cache.misses += 1
            entries[dst_oct] = None
            if len(entries) > route_cache.capacity:
                entries.popitem(last=False)
            self._route_miss_count.value += 1
            t += self._k_miss_pen
        if msg:
            inj_occ = self._k_msg_occ
            stream_occ = wire_nbytes / self._k_inj_bw
            if stream_occ > inj_occ:
                inj_occ = stream_occ
            ej_occ = inj_occ
        else:
            inj_occ, ej_occ = self._hub_occupancy(kind, wire_nbytes, tlb_factor)
        busy = injection.busy_until
        if t < busy:
            t = busy
        t += inj_occ
        injection.busy_until = t
        injection.total_busy += inj_occ
        injection.reservations += 1
        busy = resource.busy_until
        if t < busy:
            t = busy
        dur = wire_nbytes / bw
        t += dur
        resource.busy_until = t
        resource.total_busy += dur
        resource.reservations += 1
        busy = ejection.busy_until
        if t < busy:
            t = busy
        t += ej_occ
        ejection.busy_until = t
        ejection.total_busy += ej_occ
        ejection.reservations += 1
        return t + hop_total

    def _hub_occupancy(self, kind: TransferKind, nbytes: float, tlb_factor: float):
        """(injection, ejection) occupancy of the RDMA and GUPS engines."""
        cfg = self.config
        stream_occ = nbytes / cfg.octant_injection_bandwidth
        if kind is TransferKind.RDMA:
            occ = max(cfg.rdma_injection_overhead, stream_occ * tlb_factor)
            return occ, occ
        # GUPS: per-update engine occupancy at the target hub; updates are
        # 16 bytes (index + operand) each
        updates = max(1, int(nbytes / 16))
        ej = updates * cfg.gups_update_overhead * tlb_factor
        inj = max(cfg.rdma_injection_overhead, stream_occ)
        return inj, ej

    def transfer_call(self, src_place: int, dst_place: int, nbytes: float, fn, a, b) -> None:
        """The reliable fabric's MSG transfer: posts ``fn(a, b)`` directly at
        the delivery time, no :class:`SimEvent` and no closure.

        The hottest send path in the simulator: every active message on a
        reliable fabric goes through here, traced or not, so a message in
        flight costs nothing beyond the engine's argument tuple.  (Under
        chaos the resilient transport drives :meth:`chaos_leg` instead.)
        """
        n = self._n_places
        if nbytes < 0 or not 0 <= src_place < n or not 0 <= dst_place < n:
            self.check(src_place, dst_place, nbytes)
        if self._tracer.enabled:
            self._trace_transfer(src_place, dst_place, nbytes, TransferKind.MSG)
        t = self._reserve_path(src_place, dst_place, nbytes, nbytes, TransferKind.MSG, 1.0)
        engine = self.engine
        now = engine._now
        engine.post(t - now if t > now else 0.0, fn, a, b)

    def transfer(
        self,
        src_place: int,
        dst_place: int,
        nbytes: float,
        kind: TransferKind = TransferKind.MSG,
        tlb_factor: float = 1.0,
    ) -> SimEvent:
        """Start a transfer now; the returned event fires at delivery time.

        Under chaos the transfer is one :meth:`chaos_leg`: it may be dropped
        or blackholed (the event never fires) or delayed, and a delivery that
        lands on a dead place is swallowed.  A duplicate still occupies the
        wire, but a one-shot event has nothing to fire twice; the resilient
        transport, which sees duplicates, drives its legs itself.
        """
        self.check(src_place, dst_place, nbytes)
        engine = self.engine
        event = SimEvent(name=self._delivery_names[kind])
        if self.chaos is not None:
            times = self.chaos_leg(src_place, dst_place, nbytes, kind, tlb_factor, None)
            if times is not None:
                now = engine._now
                t = times[0]
                engine.post(t - now if t > now else 0.0, self._land, dst_place, event)
            return event
        if self._tracer.enabled:
            self._trace_transfer(src_place, dst_place, nbytes, kind)
        t = self._reserve_path(src_place, dst_place, nbytes, nbytes, kind, tlb_factor)
        engine.post(max(0.0, t - engine.now), event.trigger)
        return event

    def check(self, src_place: int, dst_place: int, nbytes: float) -> None:
        """Reject a negative size or a place outside the machine."""
        if nbytes < 0:
            raise TransportError(f"negative transfer size {nbytes!r}")
        self.topology.octant_of(src_place)
        self.topology.octant_of(dst_place)

    def chaos_leg(self, src_place: int, dst_place: int, nbytes: float, kind: TransferKind,
                  tlb_factor: float, tag: Optional[int]) -> Optional[tuple]:
        """One transfer through the chaos-afflicted fabric, started now.

        Returns ``(landing time, duplicate's landing time or None)``, or None
        when the leg is lost: blackholed because an endpoint is dead, or
        dropped.  Drop, duplicate, delay and reorder apply to the
        inter-octant software message path only, and degradation to the
        links only; the wire and hub costs are paid either way (the loss
        happens inside the fabric, not at the sender).  Puts nothing on the
        clock: the caller posts the landings.
        """
        chaos = self.chaos
        now = self.engine._now
        dead = chaos.dead
        if src_place in dead or dst_place in dead:
            chaos.blackholed(src_place, dst_place, now, tag)
            return None
        if self._tracer.enabled:
            self._trace_transfer(src_place, dst_place, nbytes, kind)
        cpo = self._cpo
        src_oct = src_place // cpo
        dst_oct = dst_place // cpo
        entry = self._paths.get((src_oct, dst_oct))
        if entry is None:
            entry = self._path_entry(src_oct, dst_oct)
        fate = None
        wire_nbytes = nbytes
        if entry[4] is not None:  # a route cache: the leg leaves the octant
            if kind is TransferKind.MSG:
                fate = chaos.fate(src_place, dst_place, now, tag)
            if self._degrades:
                wire_nbytes = nbytes * chaos.degrade_factor(now)
        t = self._reserve_path(src_place, dst_place, nbytes, wire_nbytes, kind, tlb_factor)
        if fate is None:
            return t, None
        if fate.drop:
            return None
        t += fate.extra_delay
        if fate.dup_delay is None:
            return t, None
        # the duplicate consumed the wire too (fates are drawn for MSG legs only)
        self._c_msg_n.value += 1
        self._c_msg_b.value += int(nbytes)
        entry[0].value += 1
        return t, t + fate.dup_delay

    def _land(self, dst_place: int, event: SimEvent) -> None:
        """A chaos-mode delivery reaching ``dst_place``: fire unless it died."""
        if not self.chaos.swallowed(dst_place):
            event.trigger()

    def _trace_transfer(self, src_place, dst_place, nbytes, kind) -> None:
        route = self._route(src_place // self._cpo, dst_place // self._cpo)
        self._tracer.instant(
            "net.transfer", "link", src_place, self.engine._now, src=src_place, dst=dst_place,
            kind=kind.value, nbytes=int(nbytes), link=route.link_class.value, hops=route.hops,
        )
