"""The resilient transport: acks, retries, idempotent delivery, fail-fast.

These tests drive real programs through the runtime so the full path is
exercised: active message -> per-message record -> chaos-afflicted legs ->
the record's delivered flag -> application handler.
"""

import pytest

from repro.errors import DeadPlaceError
from repro.harness.runner import simulate
from repro.machine.config import MachineConfig
from repro.runtime.finish.pragmas import Pragma

from tests.chaos.conftest import counter_total, make_chaos_runtime, run_fanout


def test_chaos_runtime_uses_resilient_transport():
    rt = make_chaos_runtime(8, chaos="seed=0")
    assert rt.transport.reliable
    assert rt.chaos is not None


def test_plain_runtime_has_no_reliability_layer():
    rt = make_chaos_runtime(8, chaos=None)
    assert not rt.transport.reliable
    assert rt.chaos is None


def test_drops_are_retried_until_delivered():
    rt = make_chaos_runtime(16, chaos="seed=7,drop=0.3,rto=1e-4")
    arrivals = run_fanout(rt, repeats=4)
    # every activity landed exactly once despite the lossy fabric
    assert arrivals == {p: 4 for p in range(1, 16)}
    assert counter_total(rt, "chaos.drops") > 0, "the seed must actually drop messages"
    assert counter_total(rt, "transport.retry.count") > 0
    assert counter_total(rt, "transport.retry.exhausted") == 0


def test_duplicates_are_suppressed_exactly_once():
    rt = make_chaos_runtime(16, chaos="seed=11,dup=0.5")
    arrivals = run_fanout(rt, repeats=4)
    assert arrivals == {p: 4 for p in range(1, 16)}
    assert counter_total(rt, "chaos.duplicates") > 0
    assert counter_total(rt, "transport.dup_suppressed") > 0


def test_acks_retire_the_retry_timers():
    rt = make_chaos_runtime(8, chaos="seed=0")
    run_fanout(rt)
    delivered = counter_total(rt, "transport.delivered")
    assert delivered > 0
    assert counter_total(rt, "transport.acks") == delivered
    # fault-free: no retries were ever needed
    assert counter_total(rt, "transport.retry.count") == 0


def test_send_to_dead_place_fails_fast():
    rt = make_chaos_runtime(8, chaos="seed=0,kill=5@0")

    def worker(ctx):
        yield ctx.compute(seconds=1e-6)

    def main(ctx):
        yield ctx.sleep(1e-4)  # let the scheduled kill land first
        with pytest.raises(DeadPlaceError):
            with ctx.finish(Pragma.FINISH_ASYNC):
                ctx.at_async(5, worker)

    rt.run(main)
    assert rt.chaos.is_dead(5)


def test_transfer_event_fails_when_destination_dies_midflight():
    """A sender waiting on a peer that dies mid-flight is woken with a
    structured error at the death, never left hanging.

    The kill at 5 us lands before the 4 KiB item does (about 10 us), so the
    data leg is swallowed at the dead place, and the first retransmit timer
    (rto = 100 us) gives the message up instead of retrying it."""
    rt = make_chaos_runtime(8, chaos="seed=0,drop=0,rto=1e-4,kill=6@5e-6")
    outcome = {}

    def main(ctx):
        ctx.send(6, "request", bytes(4096))
        try:
            yield ctx.recv("reply")
            outcome["result"] = "delivered"
        except DeadPlaceError as exc:
            outcome["result"] = (exc.place, rt.engine.now)

    rt.run(main)
    assert outcome["result"] == (6, 5e-6)
    assert counter_total(rt, "transport.delivered") == 0
    assert counter_total(rt, "transport.retry.count") == 0


def test_messages_sent_counts_logical_sends_not_retransmissions():
    rt = make_chaos_runtime(16, chaos="seed=7,drop=0.3,dup=0.2,rto=1e-4")
    run_fanout(rt, repeats=2)
    logical = counter_total(rt, "xrt.messages")
    # the wire saw strictly more traffic than the logical sends (retries,
    # duplicates, and acks are counted only at the network layer)
    wire = counter_total(rt, "net.messages")
    assert wire > logical


@pytest.mark.xfail(strict=True, raises=DeadPlaceError, reason=(
    "the retransmit timer runs rto from send time, not from the leg's reserved "
    "landing time, so a panel whose path is busier than rto is retried before "
    "it can land, each retry reserves the link again, and retry exhaustion "
    "declares a live place dead"
))
def test_fault_free_resilient_hpl_verifies_like_the_plain_run():
    config = MachineConfig.small()
    assert simulate("hpl", 16, config=config).verified
    # no fault is injected, yet place 12 is declared dead
    assert simulate("hpl", 16, config=config, chaos="seed=0").verified
