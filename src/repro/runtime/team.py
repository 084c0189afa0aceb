"""Teams: X10's ``x10.util.Team`` — collectives over groups of places.

Team operations offer capabilities similar to HPC collectives — Barrier,
All-Reduce, Broadcast, All-To-All, etc.  On networks supporting these
multi-way patterns in hardware (including simple calculations on the data),
the team operations map directly to the hardware implementations; otherwise
the emulation layer kicks in (paper Section 3.3).

Usage — every member activity makes the same sequence of calls::

    team = Team(rt, members=list(range(n)))

    def member_body(ctx):
        total = yield team.allreduce(ctx, local_value)
        yield team.barrier(ctx)

Data flow (the numpy reduction) is computed exactly; time flows through
:class:`repro.xrt.collectives.Collectives`.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.errors import ApgasError, DeadPlaceError
from repro.sim.events import SimEvent
from repro.xrt import estimate_nbytes
from repro.xrt.collectives import CollectiveOp


class _Slot:
    """One in-progress collective: members rendezvous here."""

    __slots__ = ("op", "values", "arrived", "events", "meta")

    def __init__(self, op: CollectiveOp, n: int) -> None:
        self.op = op
        self.values: list[Any] = [None] * n
        self.arrived = 0
        name = f"team.{op.value}"
        self.events: list[SimEvent] = [SimEvent(name=name) for _ in range(n)]
        self.meta: dict = {}


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

    def barrier(self, ctx) -> SimEvent:
        return self._collective(ctx, CollectiveOp.BARRIER, None, nbytes=8)

    def broadcast(
        self, ctx, value: Any = None, root: int = 0, nbytes: Optional[int] = None
    ) -> SimEvent:
        """Every member receives the root's ``value``.

        ``nbytes`` overrides the modeled payload size.
        """
        return self._collective(
            ctx, CollectiveOp.BROADCAST, value, root=root, finalize=self._broadcast_values,
            nbytes=nbytes,
        )

    def _broadcast_values(self, slot: _Slot) -> list:
        return [slot.values[self._root_rank(slot)]] * self.size

    def allreduce(
        self, ctx, value: Any, op: Callable = np.add, nbytes: Optional[int] = None,
        tag: str = "",
    ) -> SimEvent:
        """Every member receives the reduction of all members' values.

        ``nbytes`` overrides the modeled payload size (used when the real
        value is a scaled-down stand-in for a bigger modeled array).  ``tag``
        names the call's messages where ``ctx.team`` is a message tree; this
        rendezvous matches calls by index (a revive restarts the count) and
        ignores it.
        """

        def finalize(slot):
            total = _reduce_values(slot.values, op)
            return [total] * self.size

        return self._collective(
            ctx, CollectiveOp.ALLREDUCE, value, finalize=finalize, nbytes=nbytes
        )

    def alltoall(self, ctx, values: Sequence, nbytes_per_pair: Optional[int] = None) -> SimEvent:
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

    def _root_rank(self, slot: _Slot) -> int:
        return slot.meta.get("root_rank", 0)

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
                slot.meta["root_rank"] = self._rank[root]
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
            root=self.members[self._root_rank(slot)] if "root_rank" in slot.meta else None,
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
