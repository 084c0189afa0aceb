"""Per-process place runtime: the procs side of the ``ctx`` runtime seam.

There is one APGAS surface (:class:`~repro.runtime.activity.ActivityContext`)
and one activity type.  :class:`ProcsRuntime` answers the seam tabled in
:mod:`repro.runtime.activity` for the single place this OS process hosts, as
:class:`~repro.runtime.runtime.ApgasRuntime` does for every simulated place;
an activity starts where its message is delivered and blocks as the same
generator :class:`~repro.sim.process.Process`, scheduled by the wall-clock
:class:`~repro.xrt.procs.loop.PlaceLoop` instead of the virtual-time engine.

What differs under the seam:

* ``charge`` takes no wall time (the real CPU cost *is* the compute): it is a
  cooperative yield point.  ``ctx.sleep`` sleeps real seconds.  ``topology``
  is the simulator's default machine, so a program computes the same charge.
* Remote operations pickle their function (by module reference) and arguments:
  a program is portable exactly when its arguments pickle.  ``ctx.store`` is a
  genuinely private per-process heap.
* A known place death poisons sends and spawns too, not only blocking
  receives; there is no RDMA and no race detector.
* ``ctx.team`` is always the emulation layer's message program
  (:class:`~repro.runtime.team.MessageTeam`): real processes have no
  hardware collectives.
* Finishes are the simulator's ``BaseFinish`` driven by FORK, JOIN and DEAD
  frames (:mod:`~repro.xrt.procs.finishproc`); their counters land in ``obs``.
"""

from __future__ import annotations

import itertools
from functools import partial
from types import GeneratorType
from typing import Any, Callable, Optional

import numpy as np

from repro.errors import ApgasError, DeadPlaceError, PlaceError, ProcsError
from repro.machine.config import MachineConfig
from repro.machine.topology import Topology
from repro.obs import Observability
from repro.runtime.activity import Activity, ActivityContext, _UngovernedFinish
from repro.runtime.congruent import CongruentArray, gups_xor, join_when_done, sort_by_owner
from repro.runtime.finish.pragmas import Pragma
from repro.runtime.place import PlaceRuntime
from repro.runtime.runtime import _settle
from repro.runtime.team import MessageTeam
from repro.sim.events import SimEvent
from repro.sim.process import Process, Timeout
from repro.xrt.procs import wire
from repro.xrt.procs.finishproc import Fid, HomeFinish, resolve_finish
from repro.xrt.procs.loop import PlaceLoop
from repro.xrt.rdma import MemRegion


class ProcsRuntime:
    """The APGAS runtime of one place process."""

    #: no determinacy-race detector over real processes
    race = None
    #: no in-process fault injector: real deaths arrive as DEAD notices
    chaos = None

    def __init__(self, loop: PlaceLoop, place_id: int, n_places: int) -> None:
        #: the clock: a wall-clock loop where the simulator has its engine
        self.engine = loop
        self.place_id = place_id
        self.n_places = n_places
        #: the simulator's default machine: charges here are yields, so the
        #: model only lets one program text compute them
        self.topology = Topology(MachineConfig(), n_places)
        #: the one place this process hosts: ``ctx.store`` (a genuinely
        #: private heap), its mailboxes and its atomic/when monitor
        self._place = PlaceRuntime(place_id)
        #: this process's finish counters (tracing off), summed by the launcher
        self.obs = Observability()
        #: home finishes that may still receive a FORK or JOIN frame
        self.finishes: dict[Fid, HomeFinish] = {}
        self._finish_ids = itertools.count(1)
        #: pragma -> PragmaInstruments, shared by home finishes and proxies
        self.finish_pragmas: dict = {}
        self.activity_ids = itertools.count(1)
        self._team_ids = itertools.count()
        #: ``broadcast.tree_nodes``, registered by the first broadcast tree node
        self.c_tree_nodes = None
        self._ungoverned = _UngovernedFinish(self)
        self._reply_seq = itertools.count()
        #: reply_id -> (event, evaluating place) of the remote evals in flight
        self._replies: dict[int, tuple[SimEvent, int]] = {}
        #: places this process knows to be dead and has neither acknowledged
        #: nor revived; poisons sends/spawns/blocking recvs
        self._dead: set = set()
        #: installed by the launcher at place 0 only: fork a fresh OS process
        #: for a dead place and re-register it with the router
        self.respawn_place: Optional[Callable[[int], None]] = None
        #: installed by the launcher / child bootstrap: ``fn(frame)`` hands a
        #: frame to the transport (direct conn at children, routing at place 0)
        self.send_frame: Callable[[wire.Frame], None] = _unwired
        for kind, handler in (
            (wire.SPAWN, self._on_spawn),
            (wire.FORK, self._on_fork),
            (wire.JOIN, self._on_join),
            (wire.EVAL, self._on_eval),
            (wire.REPLY, self._on_reply),
            (wire.ITEM, self._on_item),
            (wire.DEAD, self._on_dead),
        ):
            loop.register_handler(kind, handler)

    # -- the runtime seam (see repro.runtime.activity) ---------------------------

    def place(self, place_id: int) -> PlaceRuntime:
        if place_id != self.place_id:
            raise PlaceError(f"place {place_id} is not hosted by place {self.place_id}'s process")
        return self._place

    def charge(self, place: int, dt: float) -> Timeout:
        """A cooperative yield point: real CPU time is the real cost here, so
        the modeled charge is not re-applied as wall sleep."""
        return Timeout(0.0)

    def open_finish(self, home: int, pragma: Pragma, name: str = "") -> HomeFinish:
        """A finish homed here (``home`` is ``ctx.here``: this process's place),
        known to the frame handlers until it has been waited on and fired."""
        fin = HomeFinish(self, pragma, name)
        self.finishes[fin.fid] = fin
        return fin

    def _check_place(self, place: int) -> None:
        if not 0 <= place < self.n_places:
            raise PlaceError(f"place {place} outside 0..{self.n_places - 1}")
        if place in self._dead:
            raise DeadPlaceError(
                place, detected_by=f"place {self.place_id}",
                detail="operation targets a dead place",
            )

    # -- spawning ----------------------------------------------------------------

    def spawn_local(self, place: int, fn: Callable, args: tuple, finish, name: str = "") -> Activity:
        finish.fork(place, place)
        activity = Activity(self.place_id, fn, args, finish, name)
        self._place.activities_run += 1
        # a synchronous caller: the body starts one loop step later, not in its frame
        activity.process = Process(self.engine, self._drive(activity), name=activity.name)
        return activity

    def spawn_remote(
        self, src: int, dst: int, fn: Callable, args: tuple, finish,
        nbytes: Optional[int] = None, name: str = "", clock=None,
    ) -> None:
        self._check_place(dst)
        if dst == src:
            self.spawn_local(dst, fn, args, finish, name)
            return
        # fork first (local count at home, FORK notice from elsewhere), then
        # the spawn; the router preserves this order end-to-end
        finish.fork(src, dst)
        self.send_frame(
            (wire.SPAWN, src, dst, (fn, args, finish.fid, finish.pragma_value, finish.home, name))
        )

    def _run(self, activity: Activity, deliver: Optional[Callable] = None) -> None:
        """Start a delivered activity inside its frame's dispatch, as the
        simulator's ``_run_plain`` does: a plain body has joined, or handed
        an ``at`` outcome to ``deliver(value, is_error)``, before this
        returns; a generator body goes on as a process whose first step runs
        here.  What an ``at`` body raises is delivered, not a place crash."""
        try:
            result = activity.fn(ActivityContext(self, activity), *activity.args)
        except Exception as exc:
            if deliver is None:
                raise
            deliver(exc, True)
            return
        if type(result) is GeneratorType:
            Process(self.engine, self._drive(activity, result, deliver), name=activity.name,
                    immediate=True)
        elif deliver is None:
            self._join(activity)
        else:
            deliver(result, False)

    def _drive(self, activity: Activity, body=None, deliver: Optional[Callable] = None):
        """An activity's process; ``fn`` is called here, one loop step after
        :meth:`spawn_local`, unless :meth:`_run` passes the generator."""
        try:
            if body is None:
                body = activity.fn(ActivityContext(self, activity), *activity.args)
            if type(body) is GeneratorType:
                body = yield from body
        except Exception as exc:
            if deliver is None:
                raise
            deliver(exc, True)
            return
        if deliver is None:
            self._join(activity)
        else:
            deliver(body, False)
        return body

    def _join(self, activity: Activity) -> None:
        if len(activity.finish_stack) != 1:
            raise ApgasError(f"activity {activity.name} terminated inside an open finish scope")
        activity.governing_finish.join(activity.place)

    # -- remote evaluation (ctx.at) ----------------------------------------------

    def remote_eval(
        self, src: int, dst: int, fn: Callable, args: tuple,
        nbytes: Optional[int] = None, clock=None,
    ) -> SimEvent:
        self._check_place(dst)
        event = SimEvent(name=f"at({dst}).reply")
        if dst == src:
            # the caller is synchronous code: evaluate one loop step later
            shifted = Activity(src, fn, args, self._ungoverned, name=f"at-eval@{src}")
            self.engine.post(0.0, self._run, shifted, partial(_settle, event))
            return event
        reply_id = next(self._reply_seq)
        self._replies[reply_id] = (event, dst)
        self.send_frame((wire.EVAL, src, dst, (fn, args, reply_id)))
        return event

    def async_copy(self, here: int, src, dst, finish, nbytes: Optional[int] = None) -> None:
        raise ApgasError(
            "transport 'procs' has no RDMA; asyncCopy falls back to plain "
            "messages only on RDMA-capable fabrics"
        )

    # -- symmetric tables and remote XOR ------------------------------------------

    def congruent(self, place: int, words: int, large_pages: bool = True,
                  materialize: bool = True) -> CongruentArray:
        """A private array: nothing to register and no address to model here."""
        config = self.topology.config
        data = np.zeros(words, dtype=np.uint64) if materialize else None
        page = config.large_page_bytes if large_pages else config.small_page_bytes
        return CongruentArray(MemRegion(place, 8 * words, page, data=data), data)

    def gups(self, here: int, key, members, bounds, values, scale: float, finish) -> None:
        """A remote evaluation of :func:`~repro.runtime.congruent.gups_xor` an
        owner, each joining ``finish`` here when its reply lands, as the
        simulator's GUPS engine reports a batch; ``scale`` models nothing here."""
        ordered, cuts = sort_by_owner(bounds, values)
        for rank in np.flatnonzero(np.diff(cuts)):
            part = ordered[cuts[rank]:cuts[rank + 1]]
            finish.fork(here, here)
            done = self.remote_eval(here, members[rank], gups_xor, (key, bounds[rank], bounds[-1] - 1, part))
            done.add_callback(partial(join_when_done, finish, here))

    # -- messaging ----------------------------------------------------------------

    def send_item(
        self, src: int, dst: int, mailbox: str, item: Any, nbytes: Optional[int] = None
    ) -> None:
        self._check_place(dst)
        if dst == src:
            self._place.mailbox(mailbox).put(item)
            return
        self.send_frame((wire.ITEM, src, dst, (mailbox, item)))

    def recv(self, place: int, mailbox: str):
        if self._dead:
            # an unacknowledged death poisons blocking receives: the item this
            # activity is waiting for may only ever come from the dead place
            raise DeadPlaceError(
                min(self._dead), detected_by=f"place {place} recv({mailbox!r})",
                detail="unacknowledged place death poisons blocking receives",
            )
        return self._place.mailbox(mailbox).get()

    # -- frame handlers ------------------------------------------------------------

    def _on_spawn(self, src: int, payload) -> None:
        fn, args, fid, pragma_value, home, name = payload
        self._place.activities_run += 1
        self._run(Activity(self.place_id, fn, args, resolve_finish(self, fid, pragma_value, home), name))

    def _on_fork(self, src: int, payload) -> None:
        fid, _pragma_value, dst = payload
        fin = self.finishes[fid]
        if fin.failed is not None:
            return  # its waiters already hold the DeadPlaceError
        fin.fork(src, dst)
        if dst in self._dead:
            # the notice raced the death: the spawn it covers was (or will be)
            # blackholed, so write it off / fail through the normal contract
            fin.notify_place_death(dst)

    def _on_join(self, src: int, payload) -> None:
        fid, _pragma_value = payload
        self.finishes[fid].join(src)

    def _on_eval(self, src: int, payload) -> None:
        fn, args, reply_id = payload
        shifted = Activity(self.place_id, fn, args, self._ungoverned, name=f"at-eval@{self.place_id}")
        self._run(shifted, partial(self._send_reply, src, reply_id))

    def _send_reply(self, dst: int, reply_id: int, value, is_error: bool) -> None:
        try:
            self.send_frame((wire.REPLY, self.place_id, dst, (reply_id, value, is_error)))
        except Exception:
            # unpicklable result/exception: degrade to a description-only error
            fallback = ProcsError(f"unpicklable remote-eval outcome: {value!r}")
            self.send_frame((wire.REPLY, self.place_id, dst, (reply_id, fallback, True)))

    def _on_reply(self, src: int, payload) -> None:
        reply_id, value, is_error = payload
        _settle(self._replies.pop(reply_id)[0], value, is_error)

    def _on_item(self, src: int, payload) -> None:
        mailbox, item = payload
        self._place.mailbox(mailbox).put(item)

    def _on_dead(self, src: int, payload) -> None:
        place, cause = payload
        self.on_place_dead(place, cause)

    # -- place death ---------------------------------------------------------------

    def on_place_dead(self, place: int, cause: str = "") -> None:
        """Propagate a place death through this process's blocked machinery.

        Called directly by the launcher at place 0 and from the DEAD frame
        handler at children.  FIFO through the router guarantees every frame
        the dead place managed to send arrived before this notice, so the
        write-offs below are exact: finishes forgive (or fail on) precisely
        the activities that can never join, pending remote evals to the dead
        place fail, and every blocked mailbox getter re-raises rather than
        waiting on an item that can no longer arrive.
        """
        if place in self._dead or place == self.place_id:
            return
        self._dead.add(place)
        detail = cause or "death notice from the router"

        for fin in list(self.finishes.values()):
            fin.notify_place_death(place, cause)
        for reply_id, (event, eval_place) in list(self._replies.items()):
            if eval_place == place:
                del self._replies[reply_id]
                event.fail(DeadPlaceError(
                    place, detected_by=f"place {self.place_id} remote eval", detail=detail,
                ))
        for box in list(self._place.mailboxes.values()):
            box.fail_getters(DeadPlaceError(
                place, detected_by=f"place {self.place_id} mailbox {box.name!r}", detail=detail,
            ))

    def is_dead(self, place: int) -> bool:
        """True while this process knows ``place`` dead (unacknowledged)."""
        return place in self._dead

    def dead_places(self) -> tuple:
        """Places this process currently knows to be dead (sorted)."""
        return tuple(sorted(self._dead))

    def team(self, places: list) -> MessageTeam:
        """``ctx.team``: the message program, its run named by this place
        and a counter."""
        return MessageTeam(tuple(places), f"{self.place_id}.{next(self._team_ids)}")

    def acknowledge_deaths(self) -> None:
        """Forget every known death: lift the poison so messaging resumes.

        The invariant: a death is forgotten only after the place was revived.
        A member place may call this when its restore step starts (the
        coordinator spawned that step *after* reviving every place it knew
        dead).  Place 0 never does: :meth:`revive_place` forgets exactly the
        place it revived, so a death landing while a restore wave is in flight
        stays known until the coordinator has respawned it.
        """
        self._dead.clear()

    def revive_place(self, place: int) -> None:
        """Fork a fresh OS process for a dead place, then forget the death."""
        if self.respawn_place is None:
            raise ProcsError(
                "place revival is only available at the control place "
                f"(place 0); place {self.place_id} cannot revive place {place}"
            )
        self.respawn_place(place)
        self._dead.discard(place)


def _unwired(frame) -> None:
    raise ProcsError("runtime not wired to a transport (send_frame unset)")

