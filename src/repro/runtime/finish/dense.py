"""FINISH_DENSE: software-routed, coalesced termination detection.

For dense or irregular communication graphs the network stack has no
regularity to exploit, and optimizing each control message for latency is
wrong — only the *last* message matters.  FINISH_DENSE shapes the control
traffic into something idiomatic for the network: a termination report from
place ``p`` to home ``q`` is routed ``p -> p - p%b -> q - q%b -> q`` where
``b`` is the number of places per node (paper Section 3.1).  The first and
last hops ride shared memory within an octant; the per-node master places
coalesce reports into a single aggregated count per flush window, so the home
octant's network interface receives O(octants) messages instead of O(places).
"""

from __future__ import annotations

from repro.runtime.finish.base import CTL_BYTES, BaseFinish
from repro.runtime.finish.pragmas import Pragma


class _Router:
    """Coalescing state of one software-routing place (an octant master)."""

    __slots__ = ("place", "buffered", "flush_scheduled")

    def __init__(self, place: int) -> None:
        self.place = place
        self.buffered = 0
        self.flush_scheduled = False


class FinishDense(BaseFinish):
    pragma = Pragma.FINISH_DENSE

    def __init__(self, rt, home, name=""):
        super().__init__(rt, home, name)
        self._routers: dict[int, _Router] = {}
        topo = rt.topology
        self._home_master = topo.master_place_of(home)
        self._c_rerouted = rt.obs.metrics.counter("finish.dense.rerouted")
        #: place -> next hop; valid until a place dies (routes avoid the dead)
        self._hops: dict[int, int] = {}

    # -- routing --------------------------------------------------------------

    def notify_place_death(self, place: int, cause: str = "") -> None:
        # unconditionally: even a momentarily-quiescent finish may route more
        # reports later, and those must not follow hops through the dead place
        self._hops.clear()
        super().notify_place_death(place, cause)

    def _hop(self, place: int) -> int:
        hop = self._hops.get(place)
        if hop is None:
            hop = self._hops[place] = self._next_hop(place)
        return hop

    def _next_hop(self, place: int) -> int:
        """Next place on the p -> master(p) -> master(home) -> home route.

        A dead octant master is routed *around*: reports skip straight to the
        next hop toward home, trading coalescing for progress.  Reports the
        dead master already held in custody cannot be recovered this way —
        :meth:`holds_state_at` surfaces those to the failure handling.
        """
        topo = self.rt.topology
        if place == self.home:
            raise AssertionError("no hop needed from home")
        if place == self._home_master or topo.octant_of(place) == topo.octant_of(self.home):
            return self.home
        dead = self.rt.is_dead
        toward_home = self.home if dead(self._home_master) else self._home_master
        master = topo.master_place_of(place)
        if place == master:
            return toward_home
        if dead(master):
            self._c_rerouted.inc()
            return toward_home
        return master

    def on_join(self, place: int) -> None:
        if place == self.home:
            return
        self.report_pending()
        self._forward(place, count=1)

    def _forward(self, place: int, count: int) -> None:
        """Send ``count`` termination reports one hop toward home."""
        nxt = self._hop(place)
        nbytes = CTL_BYTES  # a coalesced count is still one small message

        def on_arrival():
            if nxt == self.home:
                self.report_arrived(count)
            else:
                self._buffer(nxt, count)

        self.send_ctl(place, nxt, nbytes, on_arrival, reports=count)

    def _buffer(self, router_place: int, count: int) -> None:
        """Coalesce reports at a routing place; flush after a short window."""
        router = self._routers.get(router_place)
        if router is None:
            router = self._routers[router_place] = _Router(router_place)
        router.buffered += count
        if not router.flush_scheduled:
            router.flush_scheduled = True
            self.rt.engine.post(self.COALESCE_WINDOW, self._flush, router)

    def _flush(self, router: _Router) -> None:
        router.flush_scheduled = False
        count, router.buffered = router.buffered, 0
        if count and self.failed is None:
            self._forward(router.place, count)

    # -- place failure ---------------------------------------------------------

    def holds_state_at(self, place: int) -> int:
        """Reports sitting in a routing place's coalescing buffer are lost
        with the place; hand them to the base class and zero the buffer."""
        router = self._routers.get(place)
        if router is None:
            return 0
        count, router.buffered = router.buffered, 0
        return count
