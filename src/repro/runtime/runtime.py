"""The APGAS runtime: places, spawning, remote evaluation, finish plumbing."""

from __future__ import annotations

import itertools
from functools import partial
from types import GeneratorType
from typing import Any, Callable, Optional

import numpy as np

from repro.chaos import ChaosInjector, ChaosSpec
from repro.errors import ApgasError, DeadPlaceError, KernelError, PlaceError
from repro.machine.config import MachineConfig
from repro.machine.noise import JitterModel
from repro.machine.topology import Topology
from repro.obs import Observability
from repro.runtime import racedetect
from repro.runtime.activity import Activity, ActivityContext, _UngovernedFinish
from repro.runtime.congruent import (
    CongruentAllocator, CongruentArray, join_when_done, sort_by_owner, xor_into,
)
from repro.runtime.finish import _IMPLEMENTATIONS, BaseFinish, Pragma
from repro.runtime.place import PlaceRuntime
from repro.runtime.team import MessageTeam, Team
from repro.sim import make_engine
from repro.sim.events import SimEvent
from repro.sim.process import Process, Timeout
from repro.xrt import (
    Collectives,
    MemoryRegistry,
    PamiTransport,
    RdmaEngine,
    estimate_nbytes,
)

_reply_ids = itertools.count(1)


def _settle(event: SimEvent, payload, is_error: bool) -> None:
    """Fire an ``at`` result event with the value, or the shipped exception."""
    if is_error:
        event.fail(payload)
    else:
        event.trigger(payload)


class ApgasRuntime:
    """A single X10 computation over a collection of places.

    The number of places and the mapping from places to nodes is specified at
    launch (paper Section 2.1): place ``i`` is bound to core ``i % 32`` of
    octant ``i // 32``.  Execution starts with ``main`` at place 0; other
    places are initially idle.

    Example::

        rt = ApgasRuntime(places=64, config=MachineConfig.small())

        def main(ctx):
            with ctx.finish() as f:
                for p in ctx.places():
                    ctx.at_async(p, work)
            yield f.wait()

        def work(ctx):
            yield ctx.compute(seconds=1e-3)

        rt.run(main)
        print(rt.now)   # simulated makespan
    """

    def __init__(
        self,
        places: int,
        config: Optional[MachineConfig] = None,
        transport_cls: type = PamiTransport,
        collectives_emulated: Optional[bool] = None,
        workers_per_place: int = 1,
        obs: Optional[Observability] = None,
        chaos: Optional[object] = None,
        race: bool = False,
    ) -> None:
        """``workers_per_place`` models ``X10_NTHREADS``: the paper runs one
        worker per place (the default); larger values let concurrent
        activities' compute overlap within a place (the intra-place
        scheduling the paper defers to future work).  ``obs`` is the
        observability bundle (metrics + tracer) shared by every layer; one
        with tracing disabled is created when omitted.  ``chaos`` is a
        :class:`~repro.chaos.ChaosSpec` (or its ``parse`` text form) enabling
        deterministic fault injection; the transport then runs in resilient
        mode and the runtime survives — or fails structurally on — place
        deaths.  ``race`` enables the dynamic determinacy-race detector
        (:mod:`repro.runtime.racedetect`): vector clocks at fork/join/at/
        finish edges plus happens-before checks on every ``ctx.store``
        access; off by default with zero overhead beyond one attribute test
        per hot-path branch."""
        if workers_per_place < 1:
            raise ApgasError("workers_per_place must be >= 1")
        self.workers_per_place = workers_per_place
        self.config = config if config is not None else MachineConfig()
        self.obs = obs if obs is not None else Observability()
        #: the clock (see :mod:`repro.xrt.backend`): virtual time here; the
        #: procs runtime has a wall-clock loop in the same slot
        self.engine = make_engine()
        self.obs.observe_engine(self.engine)
        self.topology = Topology(self.config, places)
        if chaos is None:
            self.chaos: Optional[ChaosInjector] = None
            self.transport = transport_cls(self.engine, self.config, self.topology, obs=self.obs)
        else:
            spec = ChaosSpec.parse(chaos) if isinstance(chaos, str) else chaos
            spec.validate_places(places)
            self.chaos = ChaosInjector(spec, self.engine, self.obs)
            self.chaos.subscribe_death(self._on_place_death)
            self.transport = transport_cls(
                self.engine, self.config, self.topology, obs=self.obs, chaos=self.chaos
            )
        self.network = self.transport.network
        self.collectives = Collectives(self.transport)
        #: ``team`` runs the point-to-point message program, not the
        #: hardware collectives; by default where the fabric has none
        self.collectives_emulated = (
            not self.transport.supports_hw_collectives
            if collectives_emulated is None
            else collectives_emulated
        )
        self._team_ids = itertools.count()
        self.registry = MemoryRegistry()
        self.rdma = (
            RdmaEngine(self.transport, self.registry) if self.transport.supports_rdma else None
        )
        #: ``large_pages`` -> the allocator of ``ctx.congruent`` tables
        self._allocators: dict[bool, CongruentAllocator] = {}
        self.jitter = JitterModel(self.config, places)
        self._places = [PlaceRuntime(i, workers=workers_per_place) for i in range(places)]
        self._finishes: dict[int, BaseFinish] = {}
        #: per-runtime id stream (module-global ids would leak across runs and
        #: make otherwise-identical runs export different traces)
        self._finish_ids = itertools.count(1)
        #: pragma -> PragmaInstruments, filled by each pragma's first open
        self.finish_pragmas: dict = {}
        self.activity_ids = itertools.count(1)
        self._ungoverned = _UngovernedFinish(self)
        #: reply_id -> (event, evaluating place); the place lets a place death
        #: fail the outstanding evaluations it can never answer
        self._replies: dict[int, tuple[SimEvent, int]] = {}
        #: live processes by hosting place, killed wholesale on place failure
        self._procs_at: dict[int, set[Process]] = {}
        #: deaths neither acknowledged nor revived: they poison ``recv``
        self._poison: set = set()
        metrics = self.obs.metrics
        self._c_activities = metrics.counter("runtime.activities_spawned")
        self._c_remote_spawns = metrics.counter("runtime.remote_spawns")
        self._c_remote_evals = metrics.counter("runtime.remote_evals")
        #: ``broadcast.tree_nodes``, registered by the first broadcast tree node
        self.c_tree_nodes = None
        #: the determinacy-race detector, or None (the zero-overhead default)
        self.race: Optional[racedetect.RaceDetector] = (
            racedetect.RaceDetector(self)
            if race or racedetect.detection_forced()
            else None
        )

        self.transport.register_handler("apgas-spawn", self._on_spawn)
        self.transport.register_handler("apgas-eval", self._on_eval)
        self.transport.register_handler("apgas-reply", self._on_reply)
        self.transport.register_handler("apgas-finish", self._on_finish_ctl)
        self.transport.register_handler("apgas-item", self._on_item)

    # -- basic accessors -----------------------------------------------------------

    @property
    def n_places(self) -> int:
        return len(self._places)

    def place(self, place_id: int) -> PlaceRuntime:
        try:
            return self._places[place_id]
        except IndexError:
            raise PlaceError(f"place {place_id} outside 0..{self.n_places - 1}") from None

    @property
    def now(self) -> float:
        return self.engine.now

    def charge(self, place: int, dt: float) -> Timeout:
        """``ctx.compute``: ``dt`` jittered seconds on ``place``'s worker."""
        dt *= self.jitter.factor(place)
        now = self.engine.now
        return Timeout(self.place(place).worker.reserve(now, dt) - now)

    def open_finish(self, home: int, pragma: Pragma, name: str = "") -> BaseFinish:
        return _IMPLEMENTATIONS[pragma](self, home, name)

    def recv(self, place: int, mailbox: str):
        if self._poison:
            # the item this activity would wait for may only ever come from
            # the dead place
            raise DeadPlaceError(
                min(self._poison), detected_by=f"place {place} recv({mailbox!r})",
                detail="unacknowledged place death poisons blocking receives",
            )
        return self.place(place).mailbox(mailbox).get()

    def is_dead(self, place: int) -> bool:
        """True once fault injection failed ``place`` (always False without)."""
        return self.chaos is not None and self.chaos.is_dead(place)

    def dead_places(self) -> tuple:
        return tuple(sorted(self.chaos.dead_places)) if self.chaos is not None else ()

    def acknowledge_deaths(self) -> None:
        """Lift the poison of every known death: ``recv`` blocks again."""
        self._poison.clear()

    def team(self, places: list):
        """``ctx.team``: the rendezvous :class:`Team` over the hardware
        collectives, or the emulation layer's :class:`MessageTeam`."""
        if len(places) == 1 or not self.collectives_emulated:
            return Team(self, places)
        return MessageTeam(tuple(places), str(next(self._team_ids)))

    def live_activities(self, place: int) -> int:
        """Activities currently hosted at ``place``.

        The serving scheduler polls this to drain stragglers of a failed job
        before handing the job's places to the next tenant."""
        return len(self._procs_at.get(place, ()))

    # -- running a program ------------------------------------------------------------

    def run(
        self,
        main: Callable,
        *args: Any,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> Any:
        """Execute ``main(ctx, *args)`` at place 0 and drain the simulation.

        Returns ``main``'s return value.  The root finish governs ``main`` and
        everything it transitively spawns, exactly as X10 wraps the main
        method.  ``max_events`` is the chaos tests' hang guard: the engine
        raises :class:`~repro.errors.StepLimitError` past that many callbacks.
        """
        root = self.open_finish(0, Pragma.DEFAULT, name="root")
        activity = self.spawn_local(0, main, args, root, name="main")
        self.engine.run(until=until, max_events=max_events)
        if activity.process is None or not activity.process.done.fired:
            if self.is_dead(0):
                raise DeadPlaceError(0, detected_by="run", detail="the root place failed")
            raise ApgasError("main activity did not complete")
        result = activity.process.done.value
        if root.failed is not None:
            # a place death escaped main uncaught and was delivered to the
            # root finish; surface it exactly as X10's main would
            raise root.failed
        return result

    # -- spawning --------------------------------------------------------------------

    def spawn_local(
        self, place: int, fn: Callable, args: tuple, finish: BaseFinish, name: str = ""
    ) -> Activity:
        self.place(place)  # validate
        finish.fork(place, place)
        return self._start_activity(place, fn, args, finish, name)

    def spawn_remote(
        self,
        src: int,
        dst: int,
        fn: Callable,
        args: tuple,
        finish: BaseFinish,
        nbytes: Optional[int] = None,
        name: str = "",
        clock: Optional[dict] = None,
    ) -> None:
        if not 0 <= dst < len(self._places):
            self.place(dst)  # raises the PlaceError
        chaos = self.chaos
        if chaos is not None and chaos.is_dead(dst):
            raise DeadPlaceError(dst, detected_by=f"spawn@{src}", detail="async to a dead place")
        finish.fork(src, dst)
        self._c_remote_spawns.value += 1
        size = nbytes if nbytes is not None else estimate_nbytes(args)
        token = finish.spawn_departed(src, dst) if chaos is not None else None
        # ``clock`` (the race detector's fork snapshot) rides in the message
        # but never in ``size``: detector-on runs keep detector-off traffic.
        self.transport.post_args(
            src, dst, "apgas-spawn", (fn, args, finish, name, token, clock), size
        )

    def _on_spawn(self, dst: int, body) -> None:
        fn, args, finish, name, token, clock = body
        if finish.failed is not None or (token is not None and not finish.spawn_landed(token)):
            # the finish failed, or a place death wrote the spawn off: its
            # fork is already settled
            return
        # The delivery event *is* the asynchrony of ``at (p) async``: the body
        # may run right here rather than through one more zero-delay hop.
        self._start_activity(dst, fn, args, finish, name, inline=True, clock=clock)

    def _start_activity(
        self,
        place: int,
        fn: Callable,
        args: tuple,
        finish: BaseFinish,
        name: str,
        inline: bool = False,
        clock: Optional[dict] = None,
    ) -> Activity:
        """Start ``fn`` at ``place`` under ``finish``.

        ``inline`` callers (message delivery) already sit inside a scheduled
        event, the asynchrony the spawn requires, so the body starts right
        there (:meth:`_run_plain`); synchronous callers (``spawn_local``)
        defer one step or the child would run inside its parent's frame.
        """
        activity = Activity(place, fn, args, finish, name)
        if clock is not None and self.race is not None:
            # a remotely-shipped fork snapshot: install before the body can
            # run (an inline start executes it immediately)
            self.race.adopt(activity, clock)
        self._c_activities.value += 1
        self._places[place].activities_run += 1
        if inline:
            self._run_plain(activity)
            return activity
        activity.process = Process(self.engine, self._drive(activity), name=activity.name)
        self._track_process(place, activity.process)
        return activity

    def _run_plain(self, activity: Activity) -> None:
        """Start an activity inside the landing event that delivered it.

        ``fn`` is called here.  A generator body goes on as a process whose
        first step runs here too; a plain body has already finished, so the
        activity joins at once, with the span and the structured death
        delivery of :meth:`_drive`.
        """
        tracer = self.obs.trace
        if tracer.enabled:
            tracer.span_begin(
                activity.name, "activity", activity.place, self.engine.now,
                id=activity.id, finish=activity.governing_finish.name,
            )
        try:
            result = activity.fn(ActivityContext(self, activity), *activity.args)
        except DeadPlaceError as exc:
            finish = activity.governing_finish
            if finish.failed is None:
                finish._fail(exc)
            result = None
        except BaseException:
            self._join_activity(activity)
            raise
        if type(result) is GeneratorType:
            activity.process = Process(
                self.engine, self._drive(activity, result), name=activity.name, immediate=True
            )
            self._track_process(activity.place, activity.process)
            return
        self._join_activity(activity)

    def _drive(self, activity: Activity, body=None):
        """The process body of an activity: trace span, the body itself,
        structured death delivery, epilogue.  ``body`` is the generator
        :meth:`_run_plain` already obtained from ``fn`` (its span is open);
        otherwise ``fn`` is called here."""
        finish = activity.governing_finish
        if body is None and self.obs.trace.enabled:
            self.obs.trace.span_begin(
                activity.name, "activity", activity.place, self.engine.now,
                id=activity.id, finish=finish.name,
            )
        vanished = False
        try:
            if body is None:
                body = activity.fn(ActivityContext(self, activity), *activity.args)
            if type(body) is GeneratorType:
                body = yield from body
            return body
        except GeneratorExit:
            # the hosting place failed mid-activity: it vanishes without
            # joining — exactly the silence the finish layer must detect
            vanished = True
            raise
        except DeadPlaceError as exc:
            # Structured delivery: a place-death error escaping an
            # activity belongs to the governing finish, not the engine.
            # If the finish already failed (its collective or remote peer
            # died at kill time), the waiters hold the error and this is
            # an absorbed straggler.  Otherwise — e.g. a survivor whose
            # own finish had no stake at the dead place, like a broadcast
            # root whose subtree died — fail the finish now so its
            # waiters re-raise, letting the enclosing scope decide
            # whether the death is fatal.  Either way, fall through to
            # the straggler join below.
            if finish.failed is None:
                finish._fail(exc)
        finally:
            if not vanished:
                self._join_activity(activity)

    def _join_activity(self, activity: Activity) -> None:
        """The activity epilogue: span end, scope check, race join edge,
        finish join."""
        tracer = self.obs.trace
        if tracer.enabled:
            tracer.span_end(
                activity.name, "activity", activity.place, self.engine.now, id=activity.id
            )
        if len(activity.finish_stack) != 1:
            raise ApgasError(
                f"activity {activity.name} terminated inside an open finish scope"
            )
        if self.race is not None:
            self.race.on_join(activity)
        activity.governing_finish.join(activity.place)

    def _track_process(self, place: int, process: Process) -> None:
        """Remember which place hosts the process (chaos only: a place death
        must kill its processes mid-instruction, or the engine would report
        their permanently-blocked effects as a deadlock)."""
        if self.chaos is None:
            return
        procs = self._procs_at.setdefault(place, set())
        procs.add(process)
        process.done.add_callback(lambda _e: procs.discard(process))
        process.bookkeeping_callbacks += 1

    # -- remote evaluation (`at (p) e`) --------------------------------------------------

    def remote_eval(
        self,
        src: int,
        dst: int,
        fn: Callable,
        args: tuple,
        nbytes: Optional[int] = None,
        clock: Optional[object] = None,
    ) -> SimEvent:
        """The activity shifts to ``dst``, evaluates, and the result ships back."""
        if not 0 <= dst < len(self._places):
            self.place(dst)  # raises the PlaceError
        self._c_remote_evals.value += 1
        result_event = SimEvent(name=f"at({dst})")
        chaos = self.chaos
        if chaos is not None and chaos.is_dead(dst):
            result_event.fail(
                DeadPlaceError(dst, detected_by=f"at@{src}", detail="evaluation at a dead place")
            )
            return result_event
        if src == dst:
            # `at (here)` degenerates to a direct call, one step later so the
            # body does not run inside its caller's frame
            self.engine.post(
                0.0, self._evaluate, dst, fn, args, clock, partial(_settle, result_event)
            )
            return result_event
        reply_id = next(_reply_ids)
        self._replies[reply_id] = (result_event, dst)
        size = nbytes if nbytes is not None else estimate_nbytes(args)
        self.transport.post_args(src, dst, "apgas-eval", (fn, args, src, reply_id, clock), size)
        return result_event

    def _on_eval(self, dst: int, body) -> None:
        # the landing event we are inside (it already checked that ``dst``
        # is alive) provides the shift to ``dst``, so evaluate now
        fn, args, reply_to, reply_id, clock = body
        self._evaluate(dst, fn, args, clock, partial(self._send_reply, dst, reply_to, reply_id))

    def _evaluate(self, place: int, fn: Callable, args: tuple, clock, deliver) -> None:
        """Evaluate an ``at`` body at ``place``, then ``deliver(payload,
        is_error)`` its value or the exception it raised.

        Always called from inside a scheduled event.  A plain-function body
        skips the generator/Process machinery entirely; a blocking body is
        driven as a process at ``place`` whose first step runs right here.
        """
        shifted = Activity(place, fn, args, self._ungoverned, name=f"at-eval@{place}")
        if self.race is not None:
            self.race.share(shifted, clock)
        try:
            result = fn(ActivityContext(self, shifted), *args)
        except BaseException as exc:
            deliver(exc, True)
            return
        if type(result) is not GeneratorType:
            deliver(result, False)
            return

        def drive():
            try:
                value = yield from result
            except GeneratorExit:
                # killed place: nothing is delivered; a remote caller learns
                # through _replies
                raise
            except BaseException as exc:
                deliver(exc, True)
                return
            deliver(value, False)

        self._track_process(
            place, Process(self.engine, drive(), name=shifted.name, immediate=True)
        )

    def _send_reply(self, src: int, dst: int, reply_id: int, payload, is_error: bool) -> None:
        self.transport.post_args(
            src, dst, "apgas-reply", (reply_id, payload, is_error), estimate_nbytes(payload)
        )

    def _on_reply(self, dst: int, body) -> None:
        reply_id, payload, is_error = body
        entry = self._replies.pop(reply_id, None)
        if entry is None:
            return  # already failed by a place death; the late reply is moot
        event, _eval_place = entry
        _settle(event, payload, is_error)

    # -- asynchronous bulk copies (Array.asyncCopy) ------------------------------------------

    def async_copy(self, here: int, src, dst, finish, nbytes: Optional[int] = None) -> None:
        """RDMA copy whose termination is tracked by ``finish`` like an async."""
        if self.rdma is None:
            raise ApgasError(
                f"transport {self.transport.name!r} has no RDMA; asyncCopy "
                "falls back to plain messages only on RDMA-capable fabrics"
            )
        if src.place != here:
            raise ApgasError(
                f"asyncCopy must be initiated where the source lives "
                f"(source at {src.place}, initiator at {here})"
            )
        size = nbytes if nbytes is not None else min(src.nbytes, dst.nbytes)
        finish.fork(here, dst.place)
        done = self.rdma.put(src.region, dst.region, size)
        if src.materialized and dst.materialized:
            n = min(len(src.data), len(dst.data))
            data = src.data[:n].copy()

            def land(_event):
                dst.data[:n] = data
                finish.join(dst.place)

            done.add_callback(land)
        else:
            done.add_callback(lambda _event: finish.join(dst.place))

    # -- symmetric tables and remote XOR (the GUPS engine) ---------------------------------

    def congruent(self, place: int, words: int, large_pages: bool = True,
                  materialize: bool = True) -> CongruentArray:
        """``ctx.congruent``: a registered ``uint64`` segment at ``place``.
        One allocator per page size, so members that allocate the same
        sequence get the same address."""
        allocator = self._allocators.get(large_pages)
        if allocator is None:
            allocator = self._allocators[large_pages] = CongruentAllocator(self, large_pages)
        return allocator.alloc(place, (words,), np.uint64, materialize=materialize)

    def gups(self, here: int, key, members, bounds, values, scale: float, finish) -> None:
        """``ctx.gups``: one GUPS batch a destination octant, charged ``scale``
        updates a value against the table of its first owner there.  The
        values are copied now and XORed in at landing, which the hardware
        reports to ``here``: each batch joins ``finish`` there."""
        if self.rdma is None:
            raise KernelError(
                f"remote XOR needs an RDMA-capable transport; {self.transport.name!r} has none"
            )
        ordered, cuts = sort_by_owner(bounds, values)
        counts = np.diff(cuts)
        # ``topology.octant_of`` of every member at once
        octants = np.asarray(members) // self.config.cores_per_octant
        per_octant = np.bincount(octants, weights=counts)
        for octant in np.flatnonzero(per_octant):
            ranks = np.flatnonzero((octants == octant) & (counts > 0))
            target = self._places[members[ranks[0]]].store[key]
            finish.fork(here, here)
            done = self.rdma.gups(here, target.region, int(per_octant[octant] * scale))
            if target.materialized:
                done.add_callback(partial(
                    self._gups_landed, key, [(members[r], bounds[r], ordered[cuts[r]:cuts[r + 1]])
                                             for r in ranks], bounds[-1] - 1))
            done.add_callback(partial(join_when_done, finish, here))

    def _gups_landed(self, key, owners: list, mask: int, _event) -> None:
        for place, lo, part in owners:
            xor_into(self._places[place].store[key].data, lo, mask, part)

    # -- place failure ----------------------------------------------------------------------

    def _on_place_death(self, place: int) -> None:
        """Chaos killed ``place``: its processes stop mid-instruction, the
        finishes it participated in fail (or forgive), remote evaluations
        it was computing and every blocked receive fail with a structured
        :class:`DeadPlaceError`, and ``recv`` is poisoned until the death
        is acknowledged or revived."""
        for process in list(self._procs_at.get(place, ())):
            process.kill()
        self._procs_at.pop(place, None)
        for finish in list(self._finishes.values()):
            finish.notify_place_death(place)
        for reply_id, (event, eval_place) in list(self._replies.items()):
            if eval_place == place and not event.fired:
                del self._replies[reply_id]
                event.fail(DeadPlaceError(
                    place, detected_by=f"at({place})", detail="evaluating place failed"
                ))
        self._poison.add(place)
        # the dead place's getters too: a collective process blocked there
        # outlives its killed member and must end
        for host in self._places:
            for box in list(host.mailboxes.values()):
                box.fail_getters(DeadPlaceError(
                    place, detected_by=f"place {host.id} mailbox {box.name!r}",
                    detail="it died while a receive was blocked",
                ))

    def revive_place(self, place: int) -> None:
        """Elastic recovery: respawn a failed place as a fresh, empty host.

        Models re-launching a process on a spare node under the same place
        id: the old :class:`PlaceRuntime` (activities, mailboxes, in-flight
        work) is gone for good and a blank one takes its slot, then chaos
        revive listeners (Teams, GLB topology, resilient stores) re-register
        the place.  Application state does NOT come back — that is the
        resilient store's job (:mod:`repro.resilient`).
        """
        if self.chaos is None:
            raise ApgasError("revive_place requires fault injection (chaos) enabled")
        if not self.chaos.is_dead(place):
            raise ApgasError(f"cannot revive place {place}: it is not dead")
        self.place(place)  # validate the id
        self._procs_at.pop(place, None)
        self._places[place] = PlaceRuntime(place, workers=self.workers_per_place)
        self._poison.discard(place)
        self.chaos.revive(place)

    # -- finish control traffic -------------------------------------------------------------

    def register_finish(self, finish: BaseFinish) -> None:
        self._finishes[finish.finish_id] = finish

    def _on_finish_ctl(self, dst: int, body) -> None:
        body()

    # -- mailbox items ---------------------------------------------------------------------

    def send_item(
        self, src: int, dst: int, mailbox: str, item: Any, nbytes: Optional[int] = None
    ) -> None:
        if dst == src:
            # a self-send is a local put, as on procs: it lands before the
            # sender's next step (a JOIN right after it cannot overtake it)
            self.place(dst).mailbox(mailbox).put(item)
            return
        size = nbytes if nbytes is not None else estimate_nbytes(item)
        self.transport.post_args(src, dst, "apgas-item", (mailbox, item), size)

    def _on_item(self, dst: int, body) -> None:
        mailbox, item = body
        self.place(dst).mailbox(mailbox).put(item)
