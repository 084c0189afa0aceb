"""Tests for hardware vs emulated collectives."""

import pytest

from repro.errors import TransportError
from repro.machine import MachineConfig, Topology
from repro.sim import Engine
from repro.xrt import CollectiveOp, Collectives, PamiTransport, SocketsTransport


def make(emulated=None, places=16, cls=PamiTransport):
    eng = Engine()
    cfg = MachineConfig.small()
    tr = cls(eng, cfg, Topology(cfg, places=places))
    return eng, Collectives(tr, emulated=emulated)


def run_op(op, emulated, places=16, nbytes=8, members=None):
    eng, coll = make(emulated=emulated, places=places)
    ev = coll.run(op, members if members is not None else list(range(places)), nbytes)
    eng.run()
    assert ev.fired
    return eng.now


@pytest.mark.parametrize("op", list(CollectiveOp))
def test_all_ops_complete_on_both_paths(op):
    assert run_op(op, emulated=False) > 0
    assert run_op(op, emulated=True) > 0


def test_pami_defaults_to_hardware_path():
    _, coll = make(cls=PamiTransport)
    assert coll.emulated is False


def test_sockets_defaults_to_emulation():
    _, coll = make(cls=SocketsTransport)
    assert coll.emulated is True


def test_hw_barrier_faster_than_emulated():
    hw = run_op(CollectiveOp.BARRIER, emulated=False)
    em = run_op(CollectiveOp.BARRIER, emulated=True)
    assert hw < em


def test_hw_alltoall_beats_emulated_pairwise():
    hw = run_op(CollectiveOp.ALLTOALL, emulated=False, nbytes=1 << 16)
    em = run_op(CollectiveOp.ALLTOALL, emulated=True, nbytes=1 << 16)
    assert hw < em


def test_emulated_message_count_barrier():
    eng, coll = make(emulated=True)
    members = list(range(16))
    coll.run(CollectiveOp.BARRIER, members)
    eng.run()
    # dissemination barrier: n * ceil(log2 n) messages
    assert coll.transport.obs.metrics.total("net.messages") == 16 * 4


def test_emulated_broadcast_message_count():
    eng, coll = make(emulated=True)
    coll.run(CollectiveOp.BROADCAST, list(range(16)), nbytes=64)
    eng.run()
    # binomial tree delivers to n-1 members, one message each
    assert coll.transport.obs.metrics.total("net.messages") == 15


def test_emulated_alltoall_message_count():
    eng, coll = make(emulated=True)
    coll.run(CollectiveOp.ALLTOALL, list(range(8)), nbytes=64)
    eng.run()
    assert coll.transport.obs.metrics.total("net.messages") == 8 * 7


def test_single_member_is_trivial():
    t = run_op(CollectiveOp.ALLREDUCE, emulated=True, members=[3])
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
    t_small = run_op(CollectiveOp.BROADCAST, emulated=False, places=8, members=list(range(8)))
    t_large = run_op(CollectiveOp.BROADCAST, emulated=False, places=64, members=list(range(64)))
    assert t_large < 4 * t_small


def test_ops_run_counter():
    eng, coll = make()
    coll.run(CollectiveOp.BARRIER, [0, 1])
    coll.run(CollectiveOp.BARRIER, [0, 1])
    coll.run(CollectiveOp.ALLREDUCE, [0, 1])
    eng.run()
    assert coll.ops_run[CollectiveOp.BARRIER] == 2
    assert coll.ops_run[CollectiveOp.ALLREDUCE] == 1
