"""Tests for hardware vs emulated collectives: ``Collectives`` times the
hardware path, ``rt.team`` chooses between it and the message program."""

import functools

import numpy as np
import pytest

from repro.errors import TransportError
from repro.machine import MachineConfig, Topology
from repro.runtime import ApgasRuntime, PlaceGroup, Team, broadcast_spawn
from repro.runtime.team import MessageTeam, _reduce_values
from repro.sim import Engine
from repro.xrt import CollectiveOp, Collectives, PamiTransport, SocketsTransport


def make(places=16, cls=PamiTransport):
    eng = Engine()
    cfg = MachineConfig.small()
    tr = cls(eng, cfg, Topology(cfg, places=places))
    return eng, Collectives(tr)


def _call(team, op, ctx, nbytes):
    if op is CollectiveOp.BARRIER:
        return team.barrier(ctx)
    if op is CollectiveOp.BROADCAST:
        return team.broadcast(ctx, ctx.here, root=team.members[0], nbytes=nbytes)
    if op is CollectiveOp.ALLREDUCE:
        return team.allreduce(ctx, ctx.here, nbytes=nbytes)
    return team.alltoall(ctx, [ctx.here] * team.size, nbytes_per_pair=nbytes)


def _member(ctx, team, op, nbytes, spans):
    start = ctx.now
    yield _call(team, op, ctx, nbytes)
    spans.append((start, ctx.now))


def run_team(op, emulated, places=16, nbytes=8, members=None):
    """One ``op`` on ``rt.team(members)``; returns the runtime and the
    collective's makespan (first member in to last member out)."""
    rt = ApgasRuntime(places=places, config=MachineConfig.small(), collectives_emulated=emulated)
    members = list(range(places)) if members is None else members
    team = rt.team(members)
    spans = []

    def main(ctx):
        body = functools.partial(_member, team=team, op=op, nbytes=nbytes, spans=spans)
        yield from broadcast_spawn(ctx, PlaceGroup(members), body)

    rt.run(main)
    assert len(spans) == len(members)
    return rt, max(end for _, end in spans) - min(start for start, _ in spans)


def run_op(op, emulated, places=16, nbytes=8, members=None):
    return run_team(op, emulated, places, nbytes, members)[1]


def legs(rt):
    """Mailbox items sent: the message program's legs (nothing else here sends one)."""
    return rt.obs.metrics.value("xrt.messages", handler="apgas-item")


@pytest.mark.parametrize("op", list(CollectiveOp))
def test_all_ops_complete_on_both_paths(op):
    assert run_op(op, emulated=False) > 0
    assert run_op(op, emulated=True) > 0


def test_pami_defaults_to_hardware_path():
    rt = ApgasRuntime(places=4, transport_cls=PamiTransport)
    assert type(rt.team([0, 1, 2, 3])) is Team


def test_sockets_defaults_to_emulation():
    rt = ApgasRuntime(places=4, transport_cls=SocketsTransport)
    team = rt.team([0, 1, 2, 3])
    assert type(team) is MessageTeam and team.members == (0, 1, 2, 3)


def test_hw_barrier_faster_than_emulated():
    hw = run_op(CollectiveOp.BARRIER, emulated=False)
    em = run_op(CollectiveOp.BARRIER, emulated=True)
    assert hw < em


def test_hw_alltoall_beats_emulated_pairwise():
    hw = run_op(CollectiveOp.ALLTOALL, emulated=False, nbytes=1 << 16)
    em = run_op(CollectiveOp.ALLTOALL, emulated=True, nbytes=1 << 16)
    assert hw < em


def test_emulated_message_count_barrier():
    rt, _ = run_team(CollectiveOp.BARRIER, emulated=True)
    # dissemination barrier: n * ceil(log2 n) messages
    assert legs(rt) == 16 * 4


def test_emulated_broadcast_message_count():
    rt, _ = run_team(CollectiveOp.BROADCAST, emulated=True, nbytes=64)
    # binomial tree delivers to n-1 members, one message each
    assert legs(rt) == 15


def test_emulated_alltoall_message_count():
    rt, _ = run_team(CollectiveOp.ALLTOALL, emulated=True, places=8, nbytes=64)
    assert legs(rt) == 8 * 7


def test_single_member_is_trivial():
    rt, t = run_team(CollectiveOp.ALLREDUCE, emulated=True, places=4, members=[3])
    assert type(rt.team([3])) is Team  # one member: no messages to emulate
    assert t < 1e-5


def test_empty_members_rejected():
    _, coll = make()
    with pytest.raises(TransportError):
        coll.run(CollectiveOp.BARRIER, [])


def test_root_must_be_member():
    _, coll = make()
    with pytest.raises(TransportError, match="not a member"):
        coll.run(CollectiveOp.BROADCAST, [0, 1, 2], root=7)


def test_non_power_of_two_members():
    for op in (CollectiveOp.BARRIER, CollectiveOp.ALLREDUCE, CollectiveOp.BROADCAST):
        assert run_op(op, emulated=True, members=list(range(13))) > 0


def test_broadcast_scales_logarithmically_hw():
    def hw_time(places):
        eng, coll = make(places=places)
        ev = coll.run(CollectiveOp.BROADCAST, list(range(places)), 8)
        eng.run()
        assert ev.fired
        return eng.now

    assert hw_time(64) < 4 * hw_time(8)


def test_ops_run_counter():
    # the ``collectives.ops`` counter, by op and path, counts the ops run
    eng, coll = make()
    coll.run(CollectiveOp.BARRIER, [0, 1])
    coll.run(CollectiveOp.BARRIER, [0, 1])
    coll.run(CollectiveOp.ALLREDUCE, [0, 1])
    eng.run()
    metrics = coll.transport.obs.metrics
    assert metrics.value("collectives.ops", op="barrier", path="hw") == 2
    assert metrics.value("collectives.ops", op="allreduce", path="hw") == 1


# -- the message program's allreduce on teams of any size ----------------------------


def _contribute(ctx, team, out):
    rank = team.rank(ctx.here)
    out[rank] = yield team.allreduce(ctx, np.array([1e16, 1.0, -1e16][rank % 3] * (rank + 1)))


@pytest.mark.parametrize("n", [3, 5, 6, 7, 12])
def test_emulated_allreduce_folds_every_member_on_any_team_size(n):
    """Every member gets the rank-order fold of all n values, in
    2(n - m) + m log2(m) legs (m the largest power of two <= n): the folding
    schedule.  Recursive doubling over pairs ``i ^ stride < n`` alone leaves
    members unheard (rank 1 of 3 never hears from rank 2) and sends 40 legs
    at n = 12, where this sends 32."""
    rt = ApgasRuntime(places=n, collectives_emulated=True)
    members = list(range(n))[::-1]  # rank order differs from place order
    team = rt.team(members)
    out = {}

    def main(ctx):
        body = functools.partial(_contribute, team=team, out=out)
        yield from broadcast_spawn(ctx, PlaceGroup(members), body)

    rt.run(main)
    values = [np.array([1e16, 1.0, -1e16][rank % 3] * (rank + 1)) for rank in range(n)]
    want = _reduce_values(values, np.add)
    assert sorted(out) == list(range(n))
    for got in out.values():
        assert got.tobytes() == want.tobytes()
    m = 1 << (n.bit_length() - 1)
    assert legs(rt) == 2 * (n - m) + m * (m.bit_length() - 1)
    assert rt.obs.metrics.value("collectives.ops", op="allreduce", path="emulated") == 1
