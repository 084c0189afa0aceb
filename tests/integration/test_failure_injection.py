"""Failure injection: protocol bugs and lost messages must fail loudly.

The simulator's deadlock detector is the safety net for every distributed
protocol in the package: if a termination report, spawn, or collective
rendezvous goes missing, the run must abort with a diagnosis — never hang or
silently return.
"""

import pytest

from repro.errors import DeadlockError
from repro.machine import MachineConfig
from repro.machine.network import Network
from repro.runtime import ApgasRuntime, Team
from repro.sim.events import SimEvent


def _drop_nth_transfer(n):
    """Patched Network entry points that swallow the nth transfer entirely.

    Both entry points are covered: the event-returning :meth:`transfer`
    (RDMA, GUPS) and :meth:`transfer_call`, the one active-message path,
    share one counter, so "the nth message" means the nth logical send
    regardless of route.
    """
    from repro.machine.network import TransferKind

    original = Network.transfer
    original_call = Network.transfer_call
    state = {"count": 0}

    def patched(net, src, dst, nbytes, kind=TransferKind.MSG, tlb_factor=1.0):
        state["count"] += 1
        if state["count"] == n:
            return SimEvent(name="dropped")  # never fires: the message is lost
        return original(net, src, dst, nbytes, kind, tlb_factor)

    def patched_call(net, src, dst, nbytes, fn, a, b):
        state["count"] += 1
        if state["count"] == n:
            return  # never scheduled: the message is lost
        original_call(net, src, dst, nbytes, fn, a, b)

    patches = (patched, patched_call)
    originals = (original, original_call)
    return patches, originals


def run_with_drop(n, program_places=8):
    rt = ApgasRuntime(places=program_places, config=MachineConfig.small())

    def noop(ctx):
        yield ctx.compute(seconds=1e-6)

    def main(ctx):
        with ctx.finish() as f:
            for p in ctx.places():
                if p != ctx.here:
                    ctx.at_async(p, noop)
        yield f.wait()

    patches, originals = _drop_nth_transfer(n)
    Network.transfer, Network.transfer_call = patches
    try:
        rt.run(main)
    finally:
        Network.transfer, Network.transfer_call = originals


def test_lost_spawn_message_detected_as_deadlock():
    with pytest.raises(DeadlockError, match="blocked"):
        run_with_drop(1)  # the first spawn never arrives


def test_lost_termination_report_detected_as_deadlock():
    with pytest.raises(DeadlockError):
        run_with_drop(10)  # a later message (a finish report) vanishes


def test_healthy_run_passes_same_harness():
    run_with_drop(10**9)  # nothing is actually dropped


def test_team_member_never_arrives_is_diagnosed():
    rt = ApgasRuntime(places=4, config=MachineConfig.small())
    team = Team(rt, [0, 1, 2])  # member 2 will never call the collective

    def main(ctx):
        with ctx.finish() as f:
            ctx.at_async(0, member)
            ctx.at_async(1, member)
        yield f.wait()

    def member(ctx):
        yield team.barrier(ctx)

    with pytest.raises(DeadlockError):
        rt.run(main)


def test_deadlock_error_names_stuck_processes():
    rt = ApgasRuntime(places=2, config=MachineConfig.small())

    def main(ctx):
        yield ctx.recv("never-filled-mailbox")

    with pytest.raises(DeadlockError) as exc_info:
        rt.run(main)
    assert "main" in str(exc_info.value)


def test_crash_in_remote_activity_aborts_run_with_original_error():
    rt = ApgasRuntime(places=8, config=MachineConfig.small())

    def main(ctx):
        with ctx.finish() as f:
            ctx.at_async(5, exploder)
        yield f.wait()

    def exploder(ctx):
        yield ctx.compute(seconds=1e-6)
        raise RuntimeError("injected kernel bug at place 5")

    with pytest.raises(RuntimeError, match="injected kernel bug"):
        rt.run(main)
