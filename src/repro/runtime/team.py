"""Teams: X10's ``x10.util.Team`` — collectives over groups of places.

Team operations (Barrier, All-Reduce, Broadcast, All-To-All) map directly to
the hardware implementations on networks that support these multi-way
patterns; otherwise the emulation layer kicks in (paper Section 3.3).
``rt.team(places)`` (and ``ctx.team``) returns one of two classes with the
same calls, whose values fold in rank order (:func:`_reduce_values`), so a
result is bit-identical on every path and backend:

* :class:`Team`, the simulator's hardware path: members rendezvous, the
  result is computed once, and :class:`repro.xrt.collectives.Collectives`
  charges the time;
* :class:`MessageTeam`, the emulation layer on both runtimes: each member
  runs the point-to-point schedule over ``ctx.send`` and ``ctx.recv``.

Every member makes the same sequence of calls, e.g.
``total = yield team.allreduce(ctx, value)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.errors import ApgasError, DeadPlaceError
from repro.sim.events import SimEvent
from repro.sim.process import Process
from repro.xrt import estimate_nbytes
from repro.xrt.collectives import CollectiveOp


class _Slot:
    """One in-progress collective: members rendezvous here."""

    __slots__ = ("op", "values", "arrived", "events", "root")

    def __init__(self, op: CollectiveOp, n: int) -> None:
        self.op = op
        self.values: list[Any] = [None] * n
        self.arrived = 0
        name = f"team.{op.value}"
        self.events: list[SimEvent] = [SimEvent(name=name) for _ in range(n)]
        #: a broadcast's root rank
        self.root: Optional[int] = None


class Team:
    """An ordered group of places executing collectives together."""

    def __init__(self, rt, members: Sequence[int]) -> None:
        if len(set(members)) != len(members):
            raise ApgasError("team members must be distinct places")
        if not members:
            raise ApgasError("team needs at least one member")
        self.rt = rt
        self.members = list(members)
        #: the member count, read by every rendezvous
        self.size = len(self.members)
        self._rank = {p: i for i, p in enumerate(self.members)}
        self._call_index = {p: 0 for p in self.members}
        self._slots: dict[int, _Slot] = {}
        #: op -> its ``team.collectives`` counter, registered on the op's first use
        self._c_collectives: dict = {}
        #: a member died: every current and future collective fails with this
        self._failed: Optional[DeadPlaceError] = None
        if getattr(rt, "chaos", None) is not None:
            rt.chaos.subscribe_death(self._on_place_death)
            rt.chaos.subscribe_revive(self._on_place_revive)

    def rank(self, place: int) -> int:
        try:
            return self._rank[place]
        except KeyError:
            raise ApgasError(f"place {place} is not a member of this team") from None

    # -- the collective operations (each returns an event to yield) -----------------

    def barrier(self, ctx, tag: str = "") -> SimEvent:
        return self._collective(ctx, CollectiveOp.BARRIER, None, nbytes=8)

    def broadcast(
        self, ctx, value: Any = None, root: int = 0, nbytes: Optional[int] = None,
        tag: str = "",
    ) -> SimEvent:
        """Every member receives the root's ``value``.

        ``nbytes`` overrides the modeled payload size.
        """
        return self._collective(
            ctx, CollectiveOp.BROADCAST, value, root=root,
            finalize=lambda slot: [slot.values[slot.root]] * self.size,
            nbytes=nbytes,
        )

    def allreduce(
        self, ctx, value: Any, op: Callable = np.add, nbytes: Optional[int] = None,
        tag: str = "",
    ) -> SimEvent:
        """Every member receives the reduction of all members' values.

        ``nbytes`` overrides the modeled payload size (used when the real
        value is a scaled-down stand-in for a bigger modeled array).  ``tag``
        names the call's mailboxes on a :class:`MessageTeam`; this
        rendezvous matches calls by index (a revive restarts the count) and
        ignores it, on every op.
        """

        def finalize(slot):
            total = _reduce_values(slot.values, op)
            return [total] * self.size

        return self._collective(
            ctx, CollectiveOp.ALLREDUCE, value, finalize=finalize, nbytes=nbytes
        )

    def alltoall(
        self, ctx, values: Sequence, nbytes_per_pair: Optional[int] = None, tag: str = ""
    ) -> SimEvent:
        """Member i's ``values[j]`` is delivered to member j; each member
        receives the list indexed by source rank.

        ``nbytes_per_pair`` overrides the modeled per-destination payload.
        """
        if len(values) != self.size:
            raise ApgasError("alltoall needs exactly one value per member")

        def finalize(slot):
            return [[slot.values[src][dst] for src in range(self.size)] for dst in range(self.size)]

        per_pair = nbytes_per_pair
        if per_pair is None:
            per_pair = max(1, estimate_nbytes(values) // max(1, self.size))
        return self._collective(
            ctx, CollectiveOp.ALLTOALL, list(values), finalize=finalize, nbytes=per_pair
        )

    # -- mechanics --------------------------------------------------------------------

    def _collective(
        self,
        ctx,
        op: CollectiveOp,
        value: Any,
        root: Optional[int] = None,
        finalize: Optional[Callable] = None,
        nbytes: Optional[int] = None,
    ) -> SimEvent:
        here = ctx.here
        try:
            rank = self._rank[here]
        except KeyError:
            rank = self.rank(here)  # raises: not a member
        if self._failed is not None:
            # a member is dead: the rendezvous can never complete
            event = SimEvent(name=f"team.{op.value}")
            event.fail(self._failed)
            return event
        call_index = self._call_index
        index = call_index[here]
        call_index[here] = index + 1

        slot = self._slots.get(index)
        if slot is None:
            slot = self._slots[index] = _Slot(op, self.size)
        if slot.op is not op:
            raise ApgasError(
                f"team collective mismatch at call {index}: {slot.op.value} vs {op.value}"
            )
        if root is not None:
            try:
                slot.root = self._rank[root]
            except KeyError:
                self.rank(root)  # raises: not a member
        slot.values[rank] = value
        slot.arrived += 1
        event = slot.events[rank]

        if slot.arrived == self.size:
            self._complete(index, slot, finalize, nbytes)
        return event

    def _complete(self, index: int, slot: _Slot, finalize, nbytes: Optional[int]) -> None:
        op = slot.op
        counter = self._c_collectives.get(op)
        if counter is None:
            counter = self._c_collectives[op] = self.rt.obs.metrics.counter(
                "team.collectives", op=op.value
            )
        counter.value += 1
        results = finalize(slot) if finalize is not None else [None] * self.size
        size = nbytes
        if size is None:
            size = max(estimate_nbytes(v) for v in slot.values)
        timing = self.rt.collectives.run(
            op,
            self.members,
            nbytes=size,
            root=None if slot.root is None else self.members[slot.root],
        )

        def on_done(event):
            self._slots.pop(index, None)
            try:
                event.value
            except BaseException as exc:  # a member died mid-collective
                for ev in slot.events:
                    if not ev.fired:
                        ev.fail(exc)
                return
            for rank, ev in enumerate(slot.events):
                if not ev.fired:
                    ev.trigger(results[rank])

        timing.add_callback(on_done)

    # -- place failure ----------------------------------------------------------------

    def _on_place_death(self, place: int) -> None:
        """A team member died: fail the survivors' outstanding rendezvous.

        Members already parked in a slot would otherwise wait forever for an
        arrival that can never happen; they are woken with the structured
        error, and later calls fail immediately."""
        if self._failed is not None or place not in self._rank:
            return
        self._failed = DeadPlaceError(
            place, detected_by="team", detail=f"team member {place} failed mid-collective"
        )
        slots, self._slots = self._slots, {}
        for slot in slots.values():
            for event in slot.events:
                if not event.fired:
                    event.fail(self._failed)

    def _on_place_revive(self, place: int) -> None:
        """Elastic recovery re-registered a member: reset the rendezvous.

        Once *every* member is live again the team starts a fresh collective
        generation: call indices return to zero and the failure latch clears,
        so a restored computation epoch replays its collective sequence from
        the top.  While any member is still dead the team stays failed.
        """
        if place not in self._rank:
            return
        if any(self.rt.is_dead(p) for p in self.members):
            return
        self._failed = None
        self._slots.clear()
        self._call_index = {p: 0 for p in self.members}


@dataclass(frozen=True)
class MessageTeam:
    """The emulation layer: a collective is a member program (a
    :class:`~repro.sim.process.Process` to yield) of legs ``ctx.send(place,
    box, (rank, payload), nbytes=<modelled bytes>)`` received by sender
    rank.  A plain-data handle pickled to every member; ``box`` carries
    ``run``, the call's ``tag`` and a per-place sequence number."""

    members: tuple
    run: str

    def __post_init__(self) -> None:
        if not self.members or len(set(self.members)) != len(self.members):
            raise ApgasError("team members must be one or more distinct places")

    @property
    def size(self) -> int:
        return len(self.members)

    def rank(self, place: int) -> int:
        try:
            return self.members.index(place)
        except ValueError:
            raise ApgasError(f"place {place} is not a member of this team") from None

    def barrier(self, ctx, tag: str = "") -> Process:
        """Dissemination: in round ``r`` rank ``i`` signals ``i + 2**r``."""
        return self._start(ctx, CollectiveOp.BARRIER, tag, self._barrier)

    def broadcast(self, ctx, value: Any = None, root: int = 0, nbytes: Optional[int] = None,
                  tag: str = "") -> Process:
        """A binomial tree from ``root``."""
        return self._start(
            ctx, CollectiveOp.BROADCAST, tag, self._broadcast, value, self.rank(root), nbytes
        )

    def allreduce(self, ctx, value: Any, op: Callable = np.add, nbytes: Optional[int] = None,
                  tag: str = "") -> Process:
        """Recursive doubling among the first ``m`` ranks (``m`` the largest
        power of two <= size); rank ``r >= m`` first hands its value to
        ``r - m``, which hands the result back last."""
        return self._start(ctx, CollectiveOp.ALLREDUCE, tag, self._allreduce, value, op, nbytes)

    def alltoall(self, ctx, values: Sequence, nbytes_per_pair: Optional[int] = None,
                 tag: str = "") -> Process:
        """Pairwise exchange: in round ``k`` rank ``i`` sends to ``i + k`` and
        receives from ``i - k``; returns the values indexed by source rank."""
        if len(values) != self.size:
            raise ApgasError("alltoall needs exactly one value per member")
        if nbytes_per_pair is None:
            nbytes_per_pair = max(1, estimate_nbytes(values) // self.size)
        return self._start(ctx, CollectiveOp.ALLTOALL, tag, self._alltoall, values, nbytes_per_pair)

    def _start(self, ctx, op: CollectiveOp, tag: str, program: Callable, *args) -> Process:
        rank = self.rank(ctx.here)
        # runtime state, so the raw place store: no race-detector record
        store = ctx.rt.place(ctx.here).store
        seq = store[("team", self.run, tag)] = store.get(("team", self.run, tag), -1) + 1
        box = f"team{self.run}:{tag}:{seq}"
        return Process(
            ctx.rt.engine, self._drive(ctx, op, rank, box, program(ctx, rank, box, {}, *args)),
            name=f"team.{op.value}",
        )

    def _drive(self, ctx, op: CollectiveOp, rank: int, box: str, program):
        """Rank 0 counts and traces the collective; a member drops its
        mailbox once it has received every leg sent to it."""
        obs, span = ctx.rt.obs, f"coll:{op.value}"
        if rank == 0:
            obs.metrics.counter("team.collectives", op=op.value).inc()
            obs.metrics.counter("collectives.ops", op=op.value, path="emulated").inc()
            if obs.trace.enabled:
                obs.trace.span_begin(span, "collective", ctx.here, ctx.now, id=box,
                                     op=op.value, members=self.size, path="emulated")
        result = yield from program
        ctx.rt.place(ctx.here).mailboxes.pop(box, None)
        if rank == 0 and obs.trace.enabled:
            obs.trace.span_end(span, "collective", ctx.here, ctx.now, id=box)
        return result

    def _barrier(self, ctx, rank: int, box: str, pending: dict):
        n, stride = self.size, 1
        while stride < n:
            ctx.send(self.members[(rank + stride) % n], box, (rank, None), nbytes=8)
            yield from _recv(ctx, box, pending, (rank - stride) % n)
            stride <<= 1

    def _broadcast(self, ctx, rank: int, box: str, pending: dict, value, root: int, nbytes):
        n = self.size
        rel, stride = (rank - root) % n, 1
        if rel:  # the parent is ``rel`` with its highest bit cleared
            stride = 1 << (rel.bit_length() - 1)
            value = yield from _recv(ctx, box, pending, (rel - stride + root) % n)
            stride <<= 1
        size = estimate_nbytes(value) if nbytes is None else nbytes
        while rel + stride < n:
            ctx.send(self.members[(rel + stride + root) % n], box, (rank, value), nbytes=size)
            stride <<= 1
        return value

    def _allreduce(self, ctx, rank: int, box: str, pending: dict, value, op, nbytes):
        n, members = self.size, self.members
        m = 1 << (n.bit_length() - 1)
        size = estimate_nbytes(value) if nbytes is None else nbytes
        values = {rank: value}
        if rank >= m:
            ctx.send(members[rank - m], box, (rank, values), nbytes=size)
            return (yield from _recv(ctx, box, pending, rank - m))
        if rank + m < n:
            values.update((yield from _recv(ctx, box, pending, rank + m)))
        stride = 1
        while stride < m:
            # a copy: the simulator delivers by reference
            ctx.send(members[rank ^ stride], box, (rank, dict(values)), nbytes=size)
            values.update((yield from _recv(ctx, box, pending, rank ^ stride)))
            stride <<= 1
        total = _reduce_values([values[r] for r in range(n)], op)
        if rank + m < n:
            ctx.send(members[rank + m], box, (rank, total), nbytes=size)
        return total

    def _alltoall(self, ctx, rank: int, box: str, pending: dict, values, per_pair: int):
        n = self.size
        received = [None] * n
        received[rank] = values[rank]
        for k in range(1, n):
            ctx.send(self.members[(rank + k) % n], box, (rank, values[(rank + k) % n]),
                     nbytes=per_pair)
            received[(rank - k) % n] = yield from _recv(ctx, box, pending, (rank - k) % n)
        return received


def _recv(ctx, box: str, pending: dict, rank: int):
    """The payload ``rank`` sent to ``box``; legs from other ranks that land
    first wait in ``pending``."""
    while rank not in pending:
        sender, payload = yield ctx.recv(box)
        pending[sender] = payload
    return pending.pop(rank)


def _reduce_values(values: list, op: Callable):
    """Elementwise reduction preserving the first value's type.

    The values fold left in rank order: the one floating-point combination
    order of every ``ctx.team`` reduction, on either runtime."""
    total = values[0]
    if isinstance(total, np.ndarray):
        total = total.copy()
    for v in values[1:]:
        total = op(total, v)
    return total
