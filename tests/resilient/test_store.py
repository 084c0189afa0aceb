"""ResilientStore: replica placement, quorum reads, write dedupe, and
behaviour when replica hosts die."""

import pytest

from repro.errors import ResilientError
from repro.resilient import ResilientStore

from tests.chaos.conftest import STEP_CAP, make_chaos_runtime


def drive(rt, body):
    """Run ``body(ctx, store)`` as the main activity with a fresh store."""
    store = ResilientStore(rt)
    out = {}

    def main(ctx):
        out["result"] = yield from body(ctx, store)

    rt.run(main, max_events=STEP_CAP)
    return store, out["result"]


def test_replicas_are_ring_successors():
    rt = make_chaos_runtime(8, chaos="seed=0")
    store = ResilientStore(rt)
    assert store.replicas_of(0) == [1, 2]
    assert store.replicas_of(6) == [7, 0]
    assert store.replicas_of(7) == [0, 1]


def test_replica_count_capped_by_runtime_size():
    rt = make_chaos_runtime(2, chaos="seed=0")
    store = ResilientStore(rt, replicas=2)
    assert store.k == 1
    with pytest.raises(ResilientError):
        ResilientStore(rt, replicas=0)


def test_put_get_round_trip():
    rt = make_chaos_runtime(8, chaos="seed=0")

    def body(ctx, store):
        durable = yield from store.put(ctx, "x", {"v": 1}, 0, nbytes=128)
        assert durable
        version, value = yield from store.get(ctx, "x")
        return version, value

    _store, (version, value) = drive(rt, body)
    assert version == 0 and value == {"v": 1}


def test_get_returns_a_copy_not_the_replica_object():
    rt = make_chaos_runtime(8, chaos="seed=0")

    def body(ctx, store):
        payload = {"inner": [1, 2]}
        yield from store.put(ctx, "x", payload, 0, nbytes=64)
        payload["inner"].append(3)  # post-put mutation must not leak in
        _v, value = yield from store.get(ctx, "x")
        value["inner"].append(99)  # nor must reader mutation corrupt it
        _v, again = yield from store.get(ctx, "x")
        return value, again

    _store, (value, again) = drive(rt, body)
    assert value["inner"] == [1, 2, 99]
    assert again["inner"] == [1, 2]


def test_newest_version_wins():
    rt = make_chaos_runtime(8, chaos="seed=0")

    def body(ctx, store):
        for version in range(3):
            yield from store.put(ctx, "x", f"v{version}", version, nbytes=32)
        return (yield from store.get(ctx, "x"))

    _store, newest = drive(rt, body)
    assert newest == (2, "v2")


def test_duplicate_writes_are_idempotent():
    rt = make_chaos_runtime(8, chaos="seed=0")

    def body(ctx, store):
        yield from store.put(ctx, "x", "a", 0, nbytes=32)
        yield from store.put(ctx, "x", "a", 0, nbytes=32)  # retry replay
        return (yield from store.get(ctx, "x"))

    _store, result = drive(rt, body)
    assert result == (0, "a")
    assert rt.obs.metrics.snapshot().total("resilient.store_dup_writes") == 2


def test_missing_key_is_a_miss_not_an_error():
    rt = make_chaos_runtime(8, chaos="seed=0")

    def body(ctx, store):
        return (yield from store.get(ctx, "never-written"))

    _store, result = drive(rt, body)
    assert result == (-1, None)


def test_one_dead_replica_degrades_but_survives():
    # place 1 (first successor of 0) dies before the run starts writing
    rt = make_chaos_runtime(8, chaos="seed=0,kill=1@1e-5")

    def body(ctx, store):
        yield ctx.sleep(1e-4)  # let the kill land
        durable = yield from store.put(ctx, "x", "v", 0, nbytes=32)
        value = yield from store.get(ctx, "x")
        return durable, value

    _store, (durable, value) = drive(rt, body)
    assert durable and value == (0, "v")
    snap = rt.obs.metrics.snapshot()
    assert snap.total("resilient.degraded_writes") == 1
    assert snap.total("resilient.degraded_reads") == 1


def test_all_replicas_dead_is_data_loss():
    rt = make_chaos_runtime(4, chaos="seed=0,kill=1@1e-5+2@1e-5")
    failures = []

    def body(ctx, store):
        yield from store.put(ctx, "x", "v", 0, nbytes=32)
        yield ctx.sleep(1e-4)  # both replicas of place 0 die
        try:
            yield from store.get(ctx, "x")
        except ResilientError:
            failures.append(True)

    drive(rt, body)
    assert failures == [True]


def test_replica_tables_die_with_their_place():
    rt = make_chaos_runtime(8, chaos="seed=0,kill=1@1e-3")

    def body(ctx, store):
        yield from store.put(ctx, "x", "v", 0, nbytes=32)
        yield ctx.sleep(2e-3)  # place 1's copy is gone with it
        return (yield from store.get(ctx, "x"))

    store, result = drive(rt, body)
    assert result == (0, "v")  # place 2 still serves it
    assert store._tables[1] == {}
