"""Lazy-deletion compaction: heap size stays bounded under retry churn.

The resilient transport arms a retransmit timer per send and cancels it on
the ack — under chaos that is millions of arm-then-cancel pairs.  With pure
lazy deletion the heap would grow monotonically with cancelled corpses; the
engine therefore rebuilds once cancelled entries exceed half the queue (past
a small floor).  Lazy deletion marks the slot's kind column and reclaims the
slot on compaction or surfacing; these tests pin the observable policy
(trigger point, floor, residual bound).
"""

from repro.sim import Engine


def _noop():
    pass


def test_compaction_triggers_past_half_cancelled():
    eng = Engine()
    floor = Engine.COMPACT_MIN_CANCELLED
    handles = [eng.schedule(1.0, _noop) for _ in range(1000)]
    live = [eng.schedule(2.0, _noop) for _ in range(10)]
    assert eng.compactions == 0
    for h in handles:
        h.cancel()
    # repeated rebuilds as the cancelled fraction crosses 1/2 again and again;
    # at most a floor's worth of corpses can be left when the dust settles
    assert eng.compactions >= 2
    assert eng.pending_events() <= len(live) + floor


def test_no_compaction_below_floor():
    """A handful of cancels must not pay a rebuild: floor guards small queues."""
    eng = Engine()
    handles = [eng.schedule(1.0, _noop) for _ in range(Engine.COMPACT_MIN_CANCELLED)]
    for h in handles:
        h.cancel()
    assert eng.compactions == 0


def test_heap_bounded_under_retry_churn():
    """The chaos-retry shape: arm a batch, ack (cancel) most, repeat.

    100k timers pass through with ~100 ever live; the queue must stay near
    one wave's size (corpses reclaimed between waves), nowhere near the
    100k peak pure lazy deletion would reach.
    """
    eng = Engine()
    peak = 0
    for _wave in range(100):
        batch = [eng.schedule(1.0 + _wave, _noop) for _ in range(1000)]
        for h in batch[:999]:  # acked before their timer fires
            h.cancel()
        peak = max(peak, eng.pending_events())
    assert peak < 2_000, f"queue peaked at {peak} entries for a ~100-timer live set"
    assert eng.compactions > 0
    eng.run()  # the survivors still fire and drain cleanly
    assert eng.pending_events() == 0


def test_cancelled_entries_in_ready_queue_are_reclaimed():
    """Zero-delay (ready-queue) entries are compacted too, not just the heap."""
    eng = Engine()
    handles = [eng.call_soon(_noop) for _ in range(200)]
    for h in handles:
        h.cancel()
    assert eng.compactions >= 1
    assert eng.pending_events() <= Engine.COMPACT_MIN_CANCELLED
    eng.run()  # the pop path reclaims whatever the floor left behind
    assert eng.pending_events() == 0
    assert eng.events_executed == 0


def test_compaction_during_run_preserves_order():
    """Cancelling from inside a callback (the ack path) keeps the log in order."""
    eng = Engine()
    log = []
    victims = [eng.schedule(5.0, _noop) for _ in range(200)]

    def acker():
        for h in victims:
            h.cancel()

    eng.schedule(1e-6, acker)
    for i in range(50):
        eng.schedule(1e-3 * (i + 1), lambda i=i: log.append(i))
    eng.run()
    assert log == list(range(50))
    assert eng.compactions >= 1
