"""The fault injector: deterministic per-transfer fate draws and place kills.

One :class:`ChaosInjector` is owned by a runtime and consulted by the network
model on every transfer.  All randomness comes from a dedicated
:class:`~repro.sim.rng.RngStream` keyed by the spec's seed, and draws happen
in simulated-event order — which the engine already makes deterministic — so
a (program, spec) pair replays the same fault schedule every run.

Every injected fault reports into :mod:`repro.obs` (``chaos.*`` counters and
``chaos.*`` trace instants), so the protocol auditor can verify recovery
invariants: a dropped control message must be retried and delivered exactly
once, a killed place must surface as a structured failure, never a hang.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.chaos.spec import ChaosSpec
from repro.errors import ChaosError
from repro.obs import Observability
from repro.sim.rng import RngStream


class Fate:
    """The injector's verdict on one transfer."""

    __slots__ = ("drop", "extra_delay", "dup_delay")

    def __init__(self, drop: bool = False, extra_delay: float = 0.0,
                 dup_delay: Optional[float] = None) -> None:
        self.drop = drop
        #: latency added to the delivery time (delay and reorder faults)
        self.extra_delay = extra_delay
        #: when not None, a duplicate delivery lands this long after the first
        self.dup_delay = dup_delay


_CLEAN = Fate()


class ChaosInjector:
    """Draws fault fates, tracks dead places, and notifies death listeners."""

    def __init__(self, spec: ChaosSpec, engine, obs: Optional[Observability] = None) -> None:
        self.spec = spec
        self.engine = engine
        self.obs = obs if obs is not None else Observability()
        self.rng = RngStream(spec.seed, "chaos/fate")
        # ``fate`` draws straight from the generator's bound C methods: per
        # 64-bit output ``random()`` is the double ``uniform(0.0, 1.0)``
        # returns, so the stream and every draw are those of the wrapper
        generator = self.rng.generator
        self._random = generator.random
        self._exponential = generator.exponential
        self._dup_mean = max(spec.delay_mean, 1e-9)
        #: the places dead now; the live set, so the transport and the
        #: network test membership without a call (only kill/revive write it)
        self.dead: set[int] = set()
        self._death_listeners: list[Callable[[int], None]] = []
        self._revive_listeners: list[Callable[[int], None]] = []
        metrics = self.obs.metrics
        self._c_drops = metrics.counter("chaos.drops")
        self._c_dups = metrics.counter("chaos.duplicates")
        self._c_delays = metrics.counter("chaos.delays")
        self._c_reorders = metrics.counter("chaos.reorders")
        self._c_degraded = metrics.counter("chaos.degraded")
        self._c_blackholed = metrics.counter("chaos.blackholed")
        self._c_kills = metrics.counter("chaos.place_failures")
        self._c_revivals = metrics.counter("chaos.place_revivals")
        self._tracer = self.obs.trace
        for place, time in spec.kills:
            engine.schedule(time, lambda p=place: self.kill(p))

    # -- place failure ----------------------------------------------------------

    def is_dead(self, place: int) -> bool:
        return place in self.dead

    @property
    def dead_places(self) -> frozenset:
        return frozenset(self.dead)

    def subscribe_death(self, listener: Callable[[int], None]) -> None:
        """``listener(place)`` runs at kill time, after the place is marked dead."""
        self._death_listeners.append(listener)

    def kill(self, place: int, reason: str = "scheduled") -> None:
        """Fail ``place`` now: mark dead, record, notify listeners in order."""
        if place in self.dead:
            return
        self.dead.add(place)
        self._c_kills.inc()
        if self._tracer.enabled:
            self._tracer.instant(
                "chaos.kill", "chaos", place, self.engine.now, reason=reason
            )
        for listener in list(self._death_listeners):
            listener(place)

    def declare_dead(self, place: int, reason: str) -> None:
        """A failure detector (e.g. retry exhaustion) concluded ``place`` died."""
        self.kill(place, reason=reason)

    def subscribe_revive(self, listener: Callable[[int], None]) -> None:
        """``listener(place)`` runs when a dead place is brought back."""
        self._revive_listeners.append(listener)

    def revive(self, place: int) -> None:
        """Un-kill ``place``: mark it live again and notify revive listeners.

        Called by the runtime's elastic recovery once a fresh (empty)
        :class:`~repro.runtime.place.PlaceRuntime` is installed; listeners
        (Teams, GLB topology, the resilient store) then re-register the place
        in their structures.  The place is marked live *before* listeners run
        so they may immediately message it.
        """
        if place not in self.dead:
            raise ChaosError(f"cannot revive place {place}: it is not dead")
        self.dead.discard(place)
        self._c_revivals.inc()
        if self._tracer.enabled:
            self._tracer.instant("chaos.revive", "chaos", place, self.engine.now)
        for listener in list(self._revive_listeners):
            listener(place)

    # -- per-transfer fates -------------------------------------------------------

    def blackholed(self, src: int, dst: int, now: float, tag: Optional[int]) -> None:
        """Record a transfer swallowed because an endpoint is dead."""
        self._c_blackholed.inc()
        if self._tracer.enabled:
            self._tracer.instant(
                "chaos.blackhole", "chaos", src, now, src=src, dst=dst, tag=tag
            )

    def swallowed(self, place: int) -> bool:
        """A delivery landing at ``place`` now: True, recorded as blackholed,
        when the place died while it was in flight."""
        if place in self.dead:
            self.blackholed(place, place, self.engine.now, None)
            return True
        return False

    def degrade_factor(self, now: float) -> float:
        """Payload inflation applied to link transfers at time ``now``."""
        spec = self.spec
        if spec.degrade_factor > 1.0 and now >= spec.degrade_after:
            self._c_degraded.inc()
            return spec.degrade_factor
        return 1.0

    def fate(self, src: int, dst: int, now: float, tag: Optional[int] = None) -> Fate:
        """Decide the fate of one inter-octant message transfer.

        Draw order is fixed (drop, then duplicate, then delay, then reorder)
        so the consumed stream prefix — and therefore every later draw — is a
        pure function of the seed and the transfer sequence.
        """
        spec = self.spec
        random = self._random
        tracer = self._tracer
        p = spec.drop
        if p and random() < p:
            self._c_drops.value += 1
            if tracer.enabled:
                tracer.instant("chaos.drop", "chaos", src, now, src=src, dst=dst, tag=tag)
            return Fate(drop=True)
        dup_delay = None
        p = spec.dup
        if p and random() < p:
            self._c_dups.value += 1
            dup_delay = self._exponential(self._dup_mean)
            if tracer.enabled:
                tracer.instant(
                    "chaos.dup", "chaos", src, now, src=src, dst=dst, tag=tag,
                    dup_delay=dup_delay,
                )
        extra = 0.0
        p = spec.delay_p
        if p and random() < p:
            self._c_delays.value += 1
            extra += self._exponential(spec.delay_mean)
            if tracer.enabled:
                tracer.instant(
                    "chaos.delay", "chaos", src, now, src=src, dst=dst, tag=tag, extra=extra
                )
        p = spec.reorder_p
        if p and random() < p:
            self._c_reorders.value += 1
            hold = spec.reorder_window * random()  # uniform(0.0, window), same double
            extra += hold
            if tracer.enabled:
                tracer.instant(
                    "chaos.reorder", "chaos", src, now, src=src, dst=dst, tag=tag, hold=hold
                )
        if dup_delay is None and extra == 0.0:
            return _CLEAN
        return Fate(extra_delay=extra, dup_delay=dup_delay)
