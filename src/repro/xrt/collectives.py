"""Collective timing: hardware-accelerated path vs point-to-point emulation.

Some networks support multi-way communication patterns in hardware, including
simple calculations on the data; when the runtime is configured for these
systems the team operations map directly to the hardware implementations,
offering performance that cannot be matched by point-to-point messages.  When
unavailable, the emulation layer kicks in (paper Section 3.3).

The hardware path charges the analytic Torrent collective model; the emulated
path actually executes the classical point-to-point algorithms (dissemination
barrier, binomial broadcast, recursive-doubling allreduce, pairwise-exchange
alltoall) as simulated transfers, so its cost — and its collapse at scale —
emerges from the network model.
"""

from __future__ import annotations

import enum
import math
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
    """Runs a collective among ``members`` and fires an event at completion.

    This engine models *time only*; the data flow (actual numpy reductions)
    is handled by :class:`repro.runtime.team.Team` on top.
    """

    def __init__(self, transport: Transport, emulated: Optional[bool] = None) -> None:
        self.transport = transport
        self.emulated = (not transport.supports_hw_collectives) if emulated is None else emulated
        #: number of collectives executed, by op (for tests/diagnostics)
        self.ops_run: dict[CollectiveOp, int] = {op: 0 for op in CollectiveOp}
        #: (op, path) -> its ``collectives.ops`` counter, registered on first use
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
        self.ops_run[op] += 1
        path = "hw" if (len(members) == 1 or not self.emulated) else "emulated"
        counter = self._c_ops.get((op, path))
        if counter is None:
            counter = self._c_ops[op, path] = self.transport.obs.metrics.counter(
                "collectives.ops", op=op.value, path=path
            )
        counter.value += 1
        if path == "hw":
            done = self._hw(op, members, nbytes)
        else:
            done = self._emulated(
                op, list(members), nbytes, root if root is not None else members[0]
            )
        tracer = self._tracer
        if tracer.enabled:
            self._seq += 1
            seq = self._seq
            engine = self.transport.engine
            span = f"coll:{op.value}"
            tracer.span_begin(
                span, "collective", members[0], engine.now, id=seq,
                op=op.value, members=len(members), nbytes=nbytes, path=path,
            )
            done.add_callback(
                lambda _e: tracer.span_end(span, "collective", members[0], engine.now, id=seq)
            )
        return done

    # -- hardware path ----------------------------------------------------------

    def _hw(self, op: CollectiveOp, members: Sequence[int], nbytes: float) -> SimEvent:
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
        return done

    # -- emulated path -----------------------------------------------------------

    def _emulated(self, op: CollectiveOp, members: list[int], nbytes: float, root: int) -> SimEvent:
        rounds = self._rounds(op, members, nbytes, members.index(root))
        done = SimEvent(name=f"em-{op.value}")

        def run_round(index: int) -> None:
            if done.fired:
                return  # a member death already failed the collective
            if index == len(rounds):
                done.trigger()
                return
            transfers = rounds[index]
            if not transfers:
                run_round(index + 1)
                return
            remaining = [len(transfers)]

            def on_delivered(event):
                try:
                    event.value
                except BaseException as exc:
                    # a member died: the collective cannot complete; fail every
                    # waiter with the structured error instead of hanging
                    if not done.fired:
                        done.fail(exc)
                    return
                remaining[0] -= 1
                if remaining[0] == 0 and not done.fired:
                    run_round(index + 1)

            for src, dst, size in transfers:
                self.transport.reliable_transfer(src, dst, size).add_callback(on_delivered)

        run_round(0)
        return done

    def _rounds(self, op, members, nbytes, root_rank):
        n = len(members)
        log_n = max(1, math.ceil(math.log2(n)))
        rel = lambda rank: members[(rank + root_rank) % n]  # noqa: E731

        if op is CollectiveOp.BARRIER:
            # dissemination barrier: log n rounds, everyone sends one token
            return [
                [(members[i], members[(i + (1 << r)) % n], 8) for i in range(n)]
                for r in range(log_n)
            ]
        if op is CollectiveOp.BROADCAST:
            # binomial tree from the root
            rounds = []
            for r in range(log_n):
                stride = 1 << r
                rounds.append(
                    [(rel(i), rel(i + stride), nbytes) for i in range(stride) if i + stride < n]
                )
            return rounds
        if op is CollectiveOp.ALLREDUCE:
            # recursive doubling: log n rounds, everyone exchanges full payload
            rounds = []
            for r in range(log_n):
                stride = 1 << r
                pairs = []
                for i in range(n):
                    j = i ^ stride
                    if j < n:
                        pairs.append((members[i], members[j], nbytes))
                rounds.append(pairs)
            return rounds
        # ALLTOALL: pairwise exchange, n-1 rounds
        return [
            [(members[i], members[(i + k) % n], nbytes) for i in range(n)]
            for k in range(1, n)
        ]
