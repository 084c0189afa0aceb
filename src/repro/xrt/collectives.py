"""Collective timing on the hardware path.

Some networks support multi-way communication patterns in hardware, including
simple calculations on the data; when the runtime is configured for these
systems the team operations map directly to the hardware implementations,
offering performance that cannot be matched by point-to-point messages
(paper Section 3.3).  This module charges that path the analytic Torrent
collective model.  Where the emulation layer kicks in instead, the team is a
point-to-point message program (:class:`repro.runtime.team.MessageTeam`)
whose cost emerges from the network model.
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence

from repro.errors import TransportError
from repro.machine import bandwidth
from repro.sim.events import SimEvent
from repro.xrt.transport import Transport


class CollectiveOp(enum.Enum):
    BARRIER = "barrier"
    BROADCAST = "broadcast"
    ALLREDUCE = "allreduce"
    ALLTOALL = "alltoall"


class Collectives:
    """Runs a hardware collective among ``members`` and fires an event at
    completion.

    This engine models *time only*; the data flow (actual numpy reductions)
    is handled by :class:`repro.runtime.team.Team` on top.
    """

    def __init__(self, transport: Transport) -> None:
        self.transport = transport
        #: op -> its ``collectives.ops`` counter, registered on first use
        self._c_ops: dict = {}
        self._tracer = transport.obs.trace
        self._seq = 0

    def run(
        self,
        op: CollectiveOp,
        members: Sequence[int],
        nbytes: float = 8,
        root: Optional[int] = None,
    ) -> SimEvent:
        if not members:
            raise TransportError("collective needs at least one member")
        if root is not None and root not in members:
            raise TransportError(f"root {root} is not a member of the collective")
        counter = self._c_ops.get(op)
        if counter is None:
            counter = self._c_ops[op] = self.transport.obs.metrics.counter(
                "collectives.ops", op=op.value, path="hw"
            )
        counter.value += 1
        cfg = self.transport.config
        n = len(members)
        if op is CollectiveOp.BARRIER:
            t = bandwidth.barrier_time(cfg, n)
        elif op is CollectiveOp.BROADCAST:
            t = bandwidth.broadcast_time(cfg, n, nbytes)
        elif op is CollectiveOp.ALLREDUCE:
            t = bandwidth.allreduce_time(cfg, n, nbytes)
        else:  # ALLTOALL: nbytes is per member pair
            t = bandwidth.alltoall_time(cfg, n, nbytes)
        done = SimEvent(name=f"hw-{op.value}")
        self.transport.engine.schedule(t, lambda: done.trigger())
        tracer = self._tracer
        if tracer.enabled:
            self._seq += 1
            seq = self._seq
            engine = self.transport.engine
            span = f"coll:{op.value}"
            tracer.span_begin(
                span, "collective", members[0], engine.now, id=seq,
                op=op.value, members=n, nbytes=nbytes, path="hw",
            )
            done.add_callback(
                lambda _e: tracer.span_end(span, "collective", members[0], engine.now, id=seq)
            )
        return done
