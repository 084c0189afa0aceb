"""Activities and the APGAS programming surface (``ctx``).

An activity body is a Python callable ``fn(ctx, *args)``; it may be a plain
function or a generator.  Generators ``yield`` effects — compute charges,
remote evaluations, finish waits — and are resumed when the effect completes.
``ctx`` exposes the APGAS constructs of Section 2 of the paper:

=====================  ==========================================
X10                    here
=====================  ==========================================
``async S``            ``ctx.async_(fn, *args)``
``at(p) async S``      ``ctx.at_async(p, fn, *args)``
``at(p) e``            ``val = yield ctx.at(p, fn, *args)``
``finish S``           ``with ctx.finish(pragma) as f: ...`` then
                       ``yield f.wait()``
``atomic S``           ``ctx.atomic(fn)``
``when(c) S``          ``yield from ctx.when(pred)`` then ``S``
``here``               ``ctx.here``
``Place.places()``     ``ctx.places()``
=====================  ==========================================

This module is the only implementation of that surface.  It drives any runtime
``rt`` that answers the seam below: :class:`~repro.runtime.runtime.ApgasRuntime`
(every place in one process, virtual time) and
:class:`~repro.xrt.procs.runtime.ProcsRuntime` (one OS process per place, wall
time).  The finishes ``open_finish`` hands out answer ``fork(src, dst)``,
``join(place)`` and ``wait()`` and carry ``rt``.

=============================================================  ==============================
the runtime seam                                               serves
=============================================================  ==============================
``engine``                                                     ``ctx.now`` (the clock)
``n_places``                                                   ``ctx.places()``, ``n_places``
``race``                                                       race hooks; ``None`` on procs
``activity_ids``                                               an iterator: ``Activity.id``
``place(p) -> PlaceRuntime``                                   ``store try_recv atomic when``
``charge(place, dt) -> Timeout``                               ``ctx.compute`` (procs: a yield)
``topology``                                                   contention: ``crowd(p)``, ``config``
``open_finish(home, pragma, name)``                            ``with ctx.finish(...)``
``spawn_local(place, fn, args, finish, name) -> Activity``     ``ctx.async_``
``spawn_remote(src, dst, fn, args, finish, nbytes, name)``     ``ctx.at_async``
``remote_eval(src, dst, fn, args, nbytes) -> SimEvent``        ``ctx.at``
``send_item(src, dst, mailbox, item, nbytes)``                 ``ctx.send``
``recv(place, mailbox)``                                       ``ctx.recv``
``async_copy(here, src, dst, finish, nbytes)``                 ``ctx.async_copy`` (RDMA only)
``congruent(place, words, large_pages, materialize)``          ``ctx.congruent``
``gups(here, key, members, bounds, values, scale, finish)``    ``ctx.gups``
``dead_places()``, ``acknowledge_deaths()``                    the ``ctx`` calls of those names
``revive_place(p)``                                            ``ctx.revive(p)``
``is_dead(p)``                                                 ``broadcast_spawn`` re-rooting
``team(places)``                                               ``ctx.team``
=============================================================  ==============================

``spawn_remote`` and ``remote_eval`` also take ``clock=``, the race detector's
vector-clock snapshot.

A place death reads the same on both runtimes.  Every ``recv`` blocked when
it happens raises :class:`~repro.errors.DeadPlaceError` naming the place, and
later ``recv`` calls raise too, until ``acknowledge_deaths`` lifts the poison
or ``revive_place`` forgets that death.  ``dead_places`` names the deaths not
yet revived (on procs, not yet acknowledged either).  ``team`` returns a
:class:`~repro.runtime.team.MessageTeam` wherever collectives are emulated,
so a death mid-collective fails it through those receives.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import ApgasError
from repro.runtime.finish.base import BaseFinish
from repro.runtime.finish.pragmas import Pragma
from repro.sim.events import SimEvent
from repro.sim.process import Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import ApgasRuntime

class Activity:
    """One asynchronous task, governed by a finish, running at a place."""

    __slots__ = ("id", "place", "fn", "args", "governing_finish", "_name", "finish_stack", "process")

    def __init__(self, place: int, fn: Callable, args: tuple, finish: BaseFinish, name: str = ""):
        # ids are per-runtime so two identical runs export identical traces
        self.id = next(finish.rt.activity_ids)
        self.place = place
        self.fn = fn
        self.args = args
        self.governing_finish = finish
        self._name = name
        #: innermost-first stack of finish scopes opened inside this activity
        self.finish_stack: list[BaseFinish] = [finish]
        self.process = None  # set when the activity starts

    @property
    def name(self) -> str:
        """Display name, derived on first use — only error paths, traces, and
        deadlock reports read it, and most activities never hit any of those."""
        n = self._name
        if not n:
            n = self._name = f"{getattr(self.fn, '__name__', 'activity')}@{self.place}"
        return n

    @property
    def current_finish(self) -> BaseFinish:
        return self.finish_stack[-1]


class _UngovernedFinish:
    """Sentinel finish for shifted (`at`) evaluation bodies.

    An ``at`` does not create a new task — the current activity moves — so its
    body has no governing finish of its own.  Spawning an *ungoverned* async
    inside an ``at`` body without opening a finish scope is an error.
    """

    home = -1

    def __init__(self, rt) -> None:
        self.rt = rt

    def fork(self, src: int, dst: int) -> None:
        raise ApgasError(
            "cannot spawn an async inside an `at` body without opening a finish "
            "scope: wrap it in `with ctx.finish(...)`"
        )

    def join(self, place: int) -> None:  # pragma: no cover - defensive
        raise ApgasError("ungoverned finish cannot join")


class FinishScope:
    """``with ctx.finish(...) as f:`` — push/pop a finish scope.

    Exiting the ``with`` block does *not* block (Python context managers
    cannot suspend); termination is awaited explicitly with
    ``yield f.wait()``.
    """

    def __init__(self, ctx: "ActivityContext", pragma: Pragma, name: str) -> None:
        self._ctx = ctx
        self._pragma = pragma
        self._name = name
        self._finish: Optional[BaseFinish] = None

    def __enter__(self) -> BaseFinish:
        ctx = self._ctx
        activity, rt = ctx.activity, ctx.rt
        finish = self._finish = rt.open_finish(activity.place, self._pragma, self._name)
        race = rt.race
        if race is not None:
            race.on_finish_open(finish, activity)
        activity.finish_stack.append(finish)
        return finish

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = self._ctx.activity.finish_stack.pop()
        if popped is not self._finish:
            raise ApgasError("finish scopes closed out of order")


class ActivityContext:
    """The APGAS API handed to every activity body."""

    __slots__ = ("rt", "activity")

    def __init__(self, rt: "ApgasRuntime", activity: Activity) -> None:
        self.rt = rt
        self.activity = activity

    # -- introspection -----------------------------------------------------------

    @property
    def here(self) -> int:
        """The current place (X10's ``here``)."""
        return self.activity.place

    @property
    def now(self) -> float:
        return self.rt.engine.now

    def places(self) -> range:
        """All places of this computation, 0..n-1."""
        return range(self.rt.n_places)

    @property
    def n_places(self) -> int:
        return self.rt.n_places

    @property
    def store(self) -> dict:
        """Place-local named state: a plain dict private to ``here``.

        Portable programs keep per-place partitions and partial results in it
        instead of capturing closures, so the same program text runs whether
        the place is simulated (one shared heap) or a real OS process (a real
        private heap).  Keys are program-chosen strings.

        With race detection on, accesses go through a recording proxy over
        the same dict (:class:`~repro.runtime.racedetect.TrackedStore`).
        """
        store = self.rt.place(self.here).store
        race = self.rt.race
        if race is not None:
            return race.tracked_store(store, self.here, self.activity)
        return store

    # -- compute -------------------------------------------------------------------

    def compute(
        self,
        seconds: Optional[float] = None,
        flops: Optional[float] = None,
        flop_rate: Optional[float] = None,
        mem_bytes: Optional[float] = None,
        mem_bw: Optional[float] = None,
    ) -> Timeout:
        """Charge local computation to this place's worker.

        Duration is ``seconds``, plus ``flops / flop_rate``, plus
        ``mem_bytes / mem_bw`` for memory-bound phases.  The place's OS-jitter
        factor is applied, and the work serializes on the place's single
        worker.  Yield the returned effect.
        """
        dt = seconds or 0.0
        if flops is not None:
            if not flop_rate:
                raise ApgasError("compute(flops=...) requires flop_rate")
            dt += flops / flop_rate
        if mem_bytes is not None:
            if not mem_bw:
                raise ApgasError("compute(mem_bytes=...) requires mem_bw")
            dt += mem_bytes / mem_bw
        if dt < 0:
            raise ApgasError(f"negative compute duration {dt!r}")
        return self.rt.charge(self.here, dt)

    def sleep(self, seconds: float) -> Timeout:
        """Suspend without occupying the worker (pure waiting)."""
        return Timeout(seconds)

    # -- spawning ----------------------------------------------------------------

    def async_(self, fn: Callable, *args: Any, name: str = "") -> Activity:
        """``async S``: spawn a local activity under the current finish."""
        act = self.rt.spawn_local(self.here, fn, args, self.activity.current_finish, name)
        race = self.rt.race
        if race is not None:
            # safe after the fact: local children always defer one engine
            # step, so the child cannot have run before its clock exists
            race.on_fork(self.activity, act)
        return act

    def at_async(
        self, place: int, fn: Callable, *args: Any, nbytes: Optional[int] = None, name: str = ""
    ) -> None:
        """``at(p) async S``: an active message — non-blocking remote spawn."""
        activity = self.activity
        race = self.rt.race
        clock = race.fork_snapshot(activity) if race is not None else None
        self.rt.spawn_remote(
            activity.place, place, fn, args, activity.finish_stack[-1], nbytes, name,
            clock=clock,
        )

    def at(
        self, place: int, fn: Callable, *args: Any, nbytes: Optional[int] = None
    ) -> SimEvent:
        """``at(p) e``: blocking remote evaluation.

        The current activity logically shifts to ``place``, evaluates
        ``fn(ctx, *args)`` there, and resumes here with the value.  Yield the
        returned event to obtain the result.  No finish is involved — the
        activity never terminated, it moved.
        """
        race = self.rt.race
        clock = race.clock_of(self.activity) if race is not None else None
        return self.rt.remote_eval(self.here, place, fn, args, nbytes, clock=clock)

    # -- finish ---------------------------------------------------------------------

    def finish(self, pragma: Pragma = Pragma.DEFAULT, name: str = "") -> FinishScope:
        """Open a finish scope: ``with ctx.finish() as f: ...; yield f.wait()``."""
        return FinishScope(self, pragma, name)

    def async_copy(self, src, dst, nbytes: Optional[int] = None) -> None:
        """``Array.asyncCopy``: an RDMA bulk copy treated exactly as if it
        were an async — its termination is tracked by the enclosing finish,
        making it easy to overlap communication and computation::

            with ctx.finish() as f:
                ctx.async_copy(src_array, dst_array)   # srcArray is local
                ...                                    # compute while sending
            yield f.wait()

        ``src`` and ``dst`` are congruent arrays
        (:class:`~repro.runtime.congruent.CongruentArray`); the transfer never
        occupies either place's worker.
        """
        self.rt.async_copy(self.here, src, dst, self.activity.current_finish, nbytes)

    # -- symmetric tables and remote XOR (paper Section 3.3) ----------------------------

    def congruent(self, key, words: int, large_pages: bool = True, materialize: bool = True):
        """Allocate this member's part of a *symmetric* table, ``words``
        ``uint64`` slots kept as ``ctx.store[key]``: every member allocates
        under the same key, the table's congruent address.  Returns the
        :class:`~repro.runtime.congruent.CongruentArray`.  On the simulator
        it is registered memory on ``large_pages`` or small ones, and
        ``materialize=False`` models it without backing data."""
        table = self.store[key] = self.rt.congruent(self.here, words, large_pages, materialize)
        return table

    def gups(self, key, members, bounds, values, scale: float = 1.0) -> None:
        """The Torrent's remote XOR, fire-and-forget under the current finish:
        every ``uint64`` value of ``values`` is XORed into its slot (its low
        bits) of the symmetric table ``key``, whose slots ``bounds[r]`` up to
        ``bounds[r + 1]`` ``members[r]`` holds.  The simulator charges one
        GUPS batch a destination octant, ``scale`` modelled updates a value;
        procs evaluates the XOR at each owner.  A batch joins the finish
        here once it has landed, as RDMA completion is reported to its
        initiator, so it sends no finish control message."""
        self.rt.gups(self.here, key, members, bounds, values, scale, self.activity.current_finish)

    # -- messaging (library-level protocols such as GLB) -----------------------------

    def send(self, place: int, mailbox: str, item: Any, nbytes: Optional[int] = None) -> None:
        """Deliver ``item`` into ``mailbox`` at ``place`` (one-way message)."""
        self.rt.send_item(self.here, place, mailbox, item, nbytes)

    def recv(self, mailbox: str):
        """Blocking receive from this place's ``mailbox``: yield the effect."""
        return self.rt.recv(self.here, mailbox)

    def try_recv(self, mailbox: str):
        """Non-blocking receive: ``(True, item)`` or ``(False, None)``."""
        return self.rt.place(self.here).mailbox(mailbox).try_get()

    # -- resilience ---------------------------------------------------------------------

    def dead_places(self) -> tuple:
        """Places known (here, now) to be dead and not yet revived, sorted."""
        return self.rt.dead_places()

    def acknowledge_deaths(self) -> None:
        """Forget the known deaths so messaging resumes; who may, and when:
        :meth:`~repro.xrt.procs.runtime.ProcsRuntime.acknowledge_deaths`."""
        self.rt.acknowledge_deaths()

    def revive(self, place: int) -> None:
        """Bring a dead place back as a fresh, empty host under the same id."""
        self.rt.revive_place(place)

    # -- collectives --------------------------------------------------------------------

    def team(self, places):
        """X10's ``Team`` over ``places``, for one program run: create it at
        the root, pass it to the members, and ``yield team.allreduce(ctx, v)``
        there.  It shares no state with other runs, so it also names the run
        (a ``ctx.store`` key).  See :mod:`repro.runtime.team` for its two
        classes; both fold in rank order."""
        return self.rt.team(list(places))

    # -- atomic / when ----------------------------------------------------------------

    def atomic(self, fn: Callable[[], Any]) -> Any:
        """``atomic S``: run ``fn`` in one uninterrupted step.

        With one cooperative worker per place, atomicity holds by
        construction; the monitor is notified so blocked ``when`` conditions
        re-evaluate.
        """
        result = fn()
        self.rt.place(self.here).monitor.notify_all()
        return result

    def when(self, predicate: Callable[[], bool]):
        """``when(c)``: suspend until ``predicate()`` is true.

        Use as ``yield from ctx.when(pred)``.  The predicate is re-evaluated
        after every atomic block executed at this place.
        """
        while not predicate():
            yield self.rt.place(self.here).monitor.wait()
