"""The GLB engine: workers, random steals, lifelines, resuscitation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import DeadPlaceError, GlbError
from repro.glb.bag import TaskBag
from repro.glb.config import GlbConfig
from repro.glb.lifelines import GRAPHS
from repro.glb.victims import victim_set
from repro.runtime.broadcast import PlaceGroup
from repro.runtime.runtime import ApgasRuntime
from repro.sim.rng import RngStream

#: the per-place counters GLB reports into the metrics registry
_PLACE_METRICS = (
    "processed",
    "cost",
    "steal_attempts",
    "steals_ok",
    "lifelines_sent",
    "resuscitations",
)


class _PlaceState:
    """GLB bookkeeping for one place.

    The numeric counters live in the runtime's metrics registry
    (``glb.<name>{place=p}``); this object holds the instrument references so
    the work loop pays one method call per update.
    """

    __slots__ = (
        "bag",
        "alive",
        "processed",
        "cost",
        "steal_attempts",
        "steals_ok",
        "lifelines_sent",
        "resuscitations",
        "lifeline_requests",
        "victims",
        "lifelines",
        "rng",
    )

    def __init__(self, bag: TaskBag, victims, lifelines, rng: RngStream, metrics, place) -> None:
        self.bag = bag
        self.alive = False
        for name in _PLACE_METRICS:
            setattr(self, name, metrics.counter(f"glb.{name}", place=place))
        self.lifeline_requests: list[int] = []
        self.victims = victims
        self.lifelines = lifelines
        self.rng = rng


@dataclass
class GlbStats:
    """Outcome of one balanced run."""

    places: int
    total_processed: int
    makespan: float
    processed_per_place: list[int]
    steal_attempts: int
    steals_ok: int
    lifelines_sent: int
    resuscitations: int
    ctl_messages: int
    #: total cost units (== total_processed for unit-cost workloads)
    total_cost: float = 0.0

    def efficiency(self, rate: float) -> float:
        """Parallel efficiency against perfect static balance at ``rate``.

        ``rate`` is in cost units per second (items/s for unit-cost bags).
        """
        if self.makespan <= 0:
            return 1.0
        ideal = self.total_cost / (rate * self.places)
        return min(1.0, ideal / self.makespan)

    def imbalance(self) -> float:
        """max/mean of per-place processed counts (1.0 = perfectly balanced)."""
        mean = self.total_processed / self.places
        return max(self.processed_per_place) / mean if mean else float("inf")


class Glb:
    """Balance a :class:`TaskBag` workload across the places of a runtime.

    ``group`` restricts the balancing fabric to an injected
    :class:`~repro.runtime.broadcast.PlaceGroup` — workers, victim sets, and
    lifelines all live strictly inside the group, so two Glb instances on
    disjoint groups never exchange a message (the serving layer's isolation
    invariant).  Internally all topology state is kept in *rank* space
    (indices into the group) and mapped to absolute places only at messaging
    and tracing boundaries; for the default whole-machine group rank ``i``
    *is* place ``i``, so existing behavior is bit-identical.

    Usage::

        rt = ApgasRuntime(places=64, config=MachineConfig.small())
        glb = Glb(rt, root_bag=CountingBag(1_000_000),
                  make_empty_bag=CountingBag, process_rate=1e6)
        stats = glb.run()
        assert stats.efficiency(1e6) > 0.9
    """

    def __init__(
        self,
        rt: ApgasRuntime,
        root_bag: TaskBag,
        make_empty_bag: Callable[[], TaskBag],
        process_rate: float,
        config: Optional[GlbConfig] = None,
        group: Optional[PlaceGroup] = None,
    ) -> None:
        if process_rate <= 0:
            raise GlbError("process_rate must be positive (items per second)")
        self.rt = rt
        self.config = config or GlbConfig()
        self.root_bag = root_bag
        self.process_rate = process_rate
        try:
            graph = GRAPHS[self.config.lifeline_graph]
        except KeyError:
            raise GlbError(
                f"unknown lifeline graph {self.config.lifeline_graph!r}; "
                f"choose from {sorted(GRAPHS)}"
            ) from None
        self.group = list(group) if group is not None else list(range(rt.n_places))
        for p in self.group:
            rt.place(p)  # validate membership against the machine
        self._rank_of = {p: i for i, p in enumerate(self.group)}
        n = len(self.group)
        metrics = rt.obs.metrics
        self._tracer = rt.obs.trace
        self.state = [
            _PlaceState(
                bag=make_empty_bag(),
                victims=victim_set(n, i, self.config.max_victims, self.config.seed),
                lifelines=graph(n, i),
                rng=RngStream(self.config.seed, f"glb/steal/{self.group[i]}"),
                metrics=metrics,
                place=self.group[i],
            )
            for i in range(n)
        ]
        # counters are shared across Glb instances on the same runtime, so a
        # snapshot at construction lets stats() report this run's deltas only
        self._base = [
            {name: getattr(st, name).value for name in _PLACE_METRICS} for st in self.state
        ]
        self._root_finish = None
        self._c_lifelines_rewired = metrics.counter("glb.lifelines_rewired")
        self._c_victims_repaired = metrics.counter("glb.victims_repaired")
        self._c_distribute_rerouted = metrics.counter("glb.distribute_rerouted")
        if rt.chaos is not None:
            rt.chaos.subscribe_death(self._on_place_death)

    # -- public API ------------------------------------------------------------------

    def run(self) -> GlbStats:
        """Distribute, balance, and drain the workload; returns the statistics."""
        self.rt.run(self._main)
        return self.stats()

    def main(self, ctx):
        """The balancing program as an embeddable generator.

        Serving-layer jobs run many Glb instances concurrently inside one
        engine drain: spawn an activity anywhere and ``yield from glb.main(ctx)``
        — the root finish opens at the calling place and work distribution
        starts at ``group[0]``.
        """
        yield from self._main(ctx)

    def stats(self) -> GlbStats:
        """Aggregate statistics of the (completed) run, read from the registry."""

        def delta(rank: int, name: str):
            return getattr(self.state[rank], name).value - self._base[rank][name]

        n = len(self.group)
        per_place = [int(delta(p, "processed")) for p in range(n)]
        return GlbStats(
            places=n,
            total_processed=sum(per_place),
            makespan=self.rt.now,
            processed_per_place=per_place,
            steal_attempts=int(sum(delta(p, "steal_attempts") for p in range(n))),
            steals_ok=int(sum(delta(p, "steals_ok") for p in range(n))),
            lifelines_sent=int(sum(delta(p, "lifelines_sent") for p in range(n))),
            resuscitations=int(sum(delta(p, "resuscitations") for p in range(n))),
            ctl_messages=self._root_finish.ctl_messages if self._root_finish else 0,
            total_cost=sum(delta(p, "cost") for p in range(n)),
        )

    # -- program structure ---------------------------------------------------------------

    def _main(self, ctx):
        with ctx.finish(self.config.root_finish, name="glb-root") as f:
            # survive place deaths: a dead worker's tasks are lost, the
            # survivors drain what remains (resilient-finish adoption)
            f.tolerate_death = True
            self._root_finish = f
            if ctx.here == self.group[0]:
                ctx.async_(self._distribute, 0, len(self.group), self.root_bag)
            else:
                # embedded or non-member launch: the wave starts at rank 0
                ctx.at_async(
                    self.group[0], self._distribute, 0, len(self.group), self.root_bag,
                    nbytes=self.root_bag.serialized_nbytes,
                )
        yield f.wait()

    def _rank(self, place: int) -> int:
        return self._rank_of[place]

    def _rank_dead(self, rank: int) -> bool:
        return self.rt.is_dead(self.group[rank])

    def _distribute(self, ctx, lo: int, hi: int, bag: TaskBag):
        """Initial work distribution: one tree-shaped wave from the root worker.

        ``lo``/``hi`` are group *ranks*; the wave lands at ``group[rank]``.
        """
        step = 1
        st = self.state[self._rank(ctx.here)]
        while lo + step < hi:
            child_lo = lo + step
            child_hi = min(lo + 2 * step, hi)
            part = bag.split() if bag is not None else None
            if part is None and bag is not None and not bag.is_empty():
                # expand a little so the wave has something to carry
                n = bag.process(self.config.prime_items)
                cost = bag.last_process_cost()
                cost = float(n) if cost is None else cost
                st.processed.inc(n)
                st.cost.inc(cost)
                if cost:
                    yield ctx.compute(seconds=cost / self.process_rate)
                part = bag.split()
            if self._rank_dead(child_lo):
                # re-root the wave around the dead child: its share goes to
                # the subtree's first survivor as loot (the rest of the
                # subtree is reached through steals and lifelines)
                target = next(
                    (r for r in range(child_lo, child_hi) if not self._rank_dead(r)), None
                )
                if part is not None:
                    if target is None:
                        bag.merge(part)  # whole subtree dead: keep the work here
                    else:
                        self._c_distribute_rerouted.inc()
                        ctx.at_async(
                            self.group[target], self._receive_loot, part,
                            nbytes=part.serialized_nbytes,
                        )
            elif part is not None:
                ctx.at_async(
                    self.group[child_lo], self._distribute, child_lo, child_hi, part,
                    nbytes=part.serialized_nbytes,
                )
            else:
                ctx.at_async(self.group[child_lo], self._distribute, child_lo, child_hi, None)
            step *= 2
        yield from self._worker(ctx, bag)

    # -- the worker ---------------------------------------------------------------------------

    def _worker(self, ctx, bag: Optional[TaskBag]):
        st = self.state[self._rank(ctx.here)]
        if bag is not None:
            st.bag.merge(bag)
        st.alive = True
        yield from self._work_loop(ctx, st)

    def _work_loop(self, ctx, st: _PlaceState):
        cfg = self.config
        while True:
            while not st.bag.is_empty():
                n = st.bag.process(cfg.chunk_items)
                cost = st.bag.last_process_cost()
                cost = float(n) if cost is None else cost
                st.processed.inc(n)
                st.cost.inc(cost)
                if cost:
                    yield ctx.compute(seconds=cost / self.process_rate)
                self._serve_lifelines(ctx, st)
            # idle: a few synchronous random steal attempts...
            stole = yield from self._random_steal(ctx, st)
            if stole:
                continue
            # ...then lifeline requests, and death (neighbors are group ranks)
            for neighbor in list(st.lifelines):
                if self._rank_dead(neighbor):
                    continue
                st.lifelines_sent.inc()
                if self._tracer.enabled:
                    self._tracer.instant(
                        "glb.lifeline", "glb", ctx.here, ctx.now,
                        thief=ctx.here, neighbor=self.group[neighbor],
                    )
                ctx.at_async(
                    self.group[neighbor], self._lifeline_request, self._rank(ctx.here)
                )
            if not st.bag.is_empty():
                continue  # loot landed while we were out stealing
            st.alive = False
            return

    def _random_steal(self, ctx, st: _PlaceState):
        if len(st.victims) == 0:
            return False
        tracer = self._tracer
        for _ in range(self.config.random_attempts):
            if len(st.victims) == 0:
                return False  # repairs can exhaust the set
            victim = int(st.victims[int(st.rng.integers(0, len(st.victims)))])
            if self._rank_dead(victim):
                continue  # not yet repaired out of the set
            st.steal_attempts.inc()
            if tracer.enabled:
                tracer.instant(
                    "glb.steal", "glb", ctx.here, ctx.now,
                    thief=ctx.here, victim=self.group[victim],
                )
            try:
                loot = yield ctx.at(
                    self.group[victim], self._try_steal, self._rank(ctx.here)
                )
            except DeadPlaceError:
                continue  # the victim died mid-steal; move on

            if tracer.enabled:
                tracer.instant(
                    "glb.steal_result", "glb", ctx.here, ctx.now,
                    thief=ctx.here, victim=self.group[victim], ok=loot is not None,
                )
            if loot is not None:
                st.steals_ok.inc()
                st.bag.merge(loot)
                return True
        return False


    # -- handlers running at other places -----------------------------------------------------

    def _try_steal(self, vctx, thief: Optional[int] = None):
        """Synchronous steal attempt (runs at the victim; ``thief`` is a rank)."""
        st = self.state[self._rank(vctx.here)]
        if st.bag.is_empty():
            return None
        return st.bag.split()

    def _lifeline_request(self, vctx, thief: int):
        """A lifeline request (``thief`` is a rank): satisfy now, or remember."""
        st = self.state[self._rank(vctx.here)]
        if not st.bag.is_empty():
            loot = st.bag.split()
            if loot is not None:
                self._ship(vctx, thief, loot)
                return
        if thief not in st.lifeline_requests and not self._rank_dead(thief):
            st.lifeline_requests.append(thief)

    def _serve_lifelines(self, ctx, st: _PlaceState) -> None:
        """Redistribute along lifelines with memory: split fresh work among
        recorded requesters, resuscitating dead workers."""
        while st.lifeline_requests and not st.bag.is_empty():
            loot = st.bag.split()
            if loot is None:
                break
            thief = st.lifeline_requests.pop(0)
            self._ship(ctx, thief, loot)

    def _ship(self, ctx, thief: int, loot: TaskBag) -> None:
        if self._rank_dead(thief):
            # the thief is gone; keep the work
            self.state[self._rank(ctx.here)].bag.merge(loot)
            return
        if self._tracer.enabled:
            self._tracer.instant(
                "glb.loot", "glb", ctx.here, ctx.now,
                src=ctx.here, thief=self.group[thief], nbytes=loot.serialized_nbytes,
            )
        ctx.at_async(
            self.group[thief], self._receive_loot, loot, nbytes=loot.serialized_nbytes
        )

    def _receive_loot(self, tctx, loot):
        st = self.state[self._rank(tctx.here)]
        if st.alive:
            st.bag.merge(loot)
            return
        st.alive = True
        st.resuscitations.inc()
        if self._tracer.enabled:
            self._tracer.instant("glb.resuscitation", "glb", tctx.here, tctx.now)
        st.bag.merge(loot)
        yield from self._work_loop(tctx, st)

    # -- place failure ------------------------------------------------------------------------

    def _on_place_death(self, place: int) -> None:
        """Repair the balancing topology around a failed place.

        Lifelines pointing at the dead place are re-wired to the dead place's
        own lifelines (splicing it out of the graph keeps the survivors
        connected without raising anyone's degree by more than one); victim
        sets swap the dead entry for the smallest live place outside the set,
        so the out-degree bound is preserved exactly.  Deaths outside the
        group are not this fabric's problem (the serving layer isolates them).
        """
        rank = self._rank_of.get(place)
        if rank is None:
            return
        st = self.state[rank]
        st.alive = False
        st.lifeline_requests.clear()
        self._repair_topology(rank)

    def _repair_topology(self, rank: int) -> None:
        """Splice a dead member (by group rank) out of the rank-space topology."""
        dead = {
            self._rank_of[p] for p in self.rt.chaos.dead_places if p in self._rank_of
        }
        st = self.state[rank]
        inherited = [r for r in st.lifelines if r not in dead]
        n = len(self.group)
        for r, other in enumerate(self.state):
            if r == rank or r in dead:
                continue
            if rank in other.lifelines:
                other.lifelines.remove(rank)
                for candidate in inherited:
                    if candidate != r and candidate not in other.lifelines:
                        other.lifelines.append(candidate)
                        break
                self._c_lifelines_rewired.inc()
                if self._tracer.enabled:
                    self._tracer.instant(
                        "glb.rewire", "glb", self.group[r], self.rt.now,
                        dead=self.group[rank],
                        lifelines=[self.group[x] for x in other.lifelines],
                    )
            mask = other.victims == rank
            if mask.any():
                in_set = {int(v) for v in other.victims}
                repl = next(
                    (q for q in range(n) if q != r and q not in dead and q not in in_set),
                    None,
                )
                if repl is None:
                    other.victims = other.victims[~mask]
                else:
                    other.victims[mask] = repl
                self._c_victims_repaired.inc()
            if rank in other.lifeline_requests:
                other.lifeline_requests.remove(rank)
