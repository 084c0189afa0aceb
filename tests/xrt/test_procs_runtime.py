"""In-process tests of the procs backend's building blocks.

Everything here runs inside the test process (the one multi-place component
exercised is ``places=1``, where the launcher forks nothing), so these tests
run in the tier-1 gate and give the loop / finish / runtime code coverage
that forked children cannot report.
"""

from __future__ import annotations

import functools

import pytest

from repro.errors import (
    DeadPlaceError,
    FinishError,
    PlaceError,
    PragmaError,
    ProcsError,
    ProcsTimeoutError,
)
from repro.runtime.activity import Activity, ActivityContext
from repro.runtime.finish.pragmas import Pragma
from repro.sim import Engine
from repro.xrt.backend import BackendRun, Clock, WallClock, ctl_by_pragma, get_backend
from repro.xrt.procs import run_procs_program
from repro.xrt.procs.finishproc import HomeFinish, ProxyFinish, resolve_finish
from repro.xrt.procs.loop import PlaceLoop
from repro.xrt.procs.runtime import ProcsRuntime

# -- the wall clock ----------------------------------------------------------------


def test_wall_clock_starts_near_zero_and_advances():
    clock = WallClock()
    first = clock.now
    assert 0.0 <= first < 1.0
    assert clock.now >= first


# -- the Clock seam -----------------------------------------------------------------


@pytest.mark.parametrize("clock_cls", [Engine, PlaceLoop])
def test_clock_surface_is_exactly_three_scheduling_calls(clock_cls):
    clock = clock_cls()
    assert isinstance(clock, Clock)
    surface = {
        name
        for name in dir(clock)
        if not name.startswith("_") and name.startswith(("schedule", "call_soon", "post"))
    }
    assert surface == {"schedule", "call_soon", "post"}


# -- PlaceLoop scheduling ----------------------------------------------------------


def _drain(loop):
    """Run the loop until something calls stop()."""
    loop.run()


def test_loop_call_soon_runs_in_order():
    loop = PlaceLoop()
    seen = []
    loop.post(0.0, lambda: seen.append(1))
    loop.post(0.0, seen.append, 2)
    loop.post(0.0, loop.stop)
    _drain(loop)
    assert seen == [1, 2]


def test_loop_timers_fire_in_due_order():
    loop = PlaceLoop()
    seen = []
    loop.post(0.02, seen.append, "later")
    loop.post(0.005, lambda: (seen.append("sooner"), loop.post(0.03, loop.stop)))
    _drain(loop)
    assert seen == ["sooner", "later"]


def test_loop_timer_cancellation():
    loop = PlaceLoop()
    seen = []
    handle = loop.schedule(0.005, lambda: seen.append("cancelled"))
    loop.schedule(0.01, lambda: seen.append("kept"))
    loop.schedule(0.03, loop.stop)
    handle.cancel()
    _drain(loop)
    assert seen == ["kept"]


def test_loop_call_soon_cancellation():
    loop = PlaceLoop()
    seen = []
    handle = loop.call_soon(lambda: seen.append("cancelled"))
    handle.cancel()
    loop.post(0.0, loop.stop)
    _drain(loop)
    assert seen == []


def test_loop_nonpositive_delay_runs_immediately():
    loop = PlaceLoop()
    seen = []
    loop.post(0.0, lambda: seen.append("zero"))
    loop.post(-1.0, lambda: seen.append("negative"))
    loop.post(0.0, loop.stop)
    _drain(loop)
    assert seen == ["zero", "negative"]


def test_loop_deadline_raises_procs_timeout():
    loop = PlaceLoop(deadline=0.05)
    with pytest.raises(ProcsTimeoutError):
        loop.run()  # nothing to do: idles straight into the deadline


def test_loop_dispatch_without_handler_is_an_error():
    loop = PlaceLoop()
    with pytest.raises(RuntimeError, match="no handler"):
        loop.dispatch(("mystery", 1, 0, None))


def test_loop_blocked_registry():
    loop = PlaceLoop()
    loop._note_blocked("p1")
    loop._note_blocked("p1")
    loop._note_unblocked("p1")
    loop._note_unblocked("never-blocked")  # discard, not remove
    assert not loop._blocked


# -- finish protocol state machines ------------------------------------------------


def _runtime(place_id: int = 0, n_places: int = 4) -> ProcsRuntime:
    return ProcsRuntime(PlaceLoop(), place_id=place_id, n_places=n_places)


def test_home_finish_counts_and_quiesces():
    prt = _runtime()
    fin = prt.open_finish(0, Pragma.FINISH_SPMD)
    for dst in range(4):
        fin.fork(0, dst)
    assert fin.pending == fin.total_forks == 4
    assert fin._live_at == {0: 1, 1: 1, 2: 1, 3: 1}
    fin.join(0)  # home-local join: free
    for src in (1, 2, 3):
        prt._on_join(src, (fin.fid, "finish_spmd"))  # a JOIN frame from src
    assert fin.pending == 0
    assert fin.remote_joins == 3
    assert fin._live_at == {}
    assert fin.wait().fired


def test_home_finish_registers_pragma_at_zero():
    prt = _runtime()
    HomeFinish(prt, Pragma.FINISH_DENSE)
    assert ctl_by_pragma(prt.obs.metrics) == {"finish_dense": 0}


def test_home_finish_empty_wait_fires_immediately():
    fin = HomeFinish(_runtime(), Pragma.DEFAULT)
    assert fin.wait().fired


def test_finish_async_rejects_second_fork():
    fin = HomeFinish(_runtime(), Pragma.FINISH_ASYNC)
    fin.fork(0, 2)
    with pytest.raises(PragmaError, match="single activity"):
        fin.fork(0, 3)


def test_finish_here_requires_return_home():
    fin = HomeFinish(_runtime(), Pragma.FINISH_HERE)
    fin.fork(0, 2)
    with pytest.raises(PragmaError, match="return"):
        fin.fork(2, 3)  # second leg must come home to place 0
    fin.fork(2, 0)
    with pytest.raises(PragmaError, match="round trip"):
        fin.fork(0, 1)


def test_finish_local_rejects_remote_spawn():
    fin = HomeFinish(_runtime(), Pragma.FINISH_LOCAL)
    fin.fork(0, 0)
    with pytest.raises(PragmaError, match="remote"):
        fin.fork(0, 1)


@pytest.mark.parametrize(
    "pragma, forks, rejection",
    [
        (Pragma.FINISH_ASYNC, [(0, 2), (0, 3)], "single activity"),
        (Pragma.FINISH_ASYNC, [(0, 2), (2, 2)], "single activity"),
        (Pragma.FINISH_HERE, [(0, 2), (2, 0), (0, 1)], "round trip"),
        (Pragma.FINISH_HERE, [(0, 2), (2, 3)], "return to the home place 0, not 3"),
        (Pragma.FINISH_LOCAL, [(0, 0), (0, 1)], "remote activity"),
        (Pragma.FINISH_ASYNC, [(0, 2)], None),
        (Pragma.FINISH_HERE, [(0, 2), (2, 0)], None),
        (Pragma.FINISH_LOCAL, [(0, 0), (0, 0)], None),
    ],
    ids=["async-second", "async-second-from-remote", "here-third", "here-not-home",
         "local-remote", "async-legal", "here-legal", "local-legal"],
)
def test_fork_rulebook_is_one_for_sim_procs_and_replay(pragma, forks, rejection):
    """The simulator's finish, the procs home finish and the analyzer's replay
    enforce the same FORK_RULES entry: same verdict, same text after the
    finish-name prefix, on the same fork of the sequence.  On procs a leg
    whose source is not home arrives as a FORK notice, so it goes through
    the frame handler."""
    from repro.analyze.agreement import replay
    from repro.runtime import ApgasRuntime
    from repro.runtime.finish import make_finish

    def drive(fork):
        for n, (src, dst) in enumerate(forks):
            try:
                fork(src, dst)
            except PragmaError as exc:
                return n, str(exc).split(": ", 1)[1]
        return None

    prt = _runtime()
    fin = prt.open_finish(0, pragma)

    def procs_fork(src, dst):
        if src == fin.home:
            fin.fork(src, dst)
        else:
            prt._on_fork(src, (fin.fid, pragma.value, dst))

    sim = drive(make_finish(ApgasRuntime(places=4), 0, pragma).fork)
    procs = drive(procs_fork)
    replayed = replay(pragma, 0, forks)
    assert sim == procs
    if rejection is None:
        assert sim is None and replayed is None
    else:
        assert sim[0] == len(forks) - 1 and rejection in sim[1]
        assert replayed.split(": ", 1)[1] == sim[1]


def test_more_joins_than_forks_is_a_protocol_error():
    fin = HomeFinish(_runtime(), Pragma.DEFAULT)
    fin.fork(0, 0)
    fin.join(0)
    with pytest.raises(FinishError, match="join without a matching fork"):
        fin.join(0)


def test_proxy_finish_sends_fork_then_counted_join():
    prt = _runtime(place_id=2)
    sent = []
    prt.send_frame = sent.append
    proxy = ProxyFinish(prt, fid=(0, 5), pragma_value="finish_dense", home=0)
    proxy.fork(2, 3)
    proxy.join(2)
    kinds = [frame[0] for frame in sent]
    assert kinds == ["fork", "join"]
    assert all(frame[1] == 2 and frame[2] == 0 for frame in sent)
    # the FORK notice names the spawn destination so home can attribute the
    # pending count to the place the activity actually runs at
    assert sent[0][3] == ((0, 5), "finish_dense", 3)
    # only the JOIN is a counted control message
    assert ctl_by_pragma(prt.obs.metrics) == {"finish_dense": 1}


def test_proxy_finish_cannot_be_waited_on():
    proxy = ProxyFinish(_runtime(place_id=1), fid=(0, 0), pragma_value="default", home=0)
    with pytest.raises(PragmaError, match="home place"):
        proxy.wait()


def test_resolve_finish_home_vs_proxy():
    prt = _runtime(place_id=0)
    fin = prt.open_finish(0, Pragma.DEFAULT)
    assert resolve_finish(prt, fin.fid, "default", home=0) is fin

    remote = _runtime(place_id=3)
    proxy = resolve_finish(remote, fin.fid, "default", home=0)
    assert isinstance(proxy, ProxyFinish)


def _dense_waves(ctx, waves, sizes):
    for _ in range(waves):
        with ctx.finish(Pragma.FINISH_DENSE) as f:
            for place in ctx.places():
                ctx.at_async(place, _leaf)
        yield f.wait()
        sizes.append(len(ctx.rt.finishes))


def test_waited_finishes_are_forgotten():
    """A home finish leaves the frame handlers' table once it has been waited
    on and fired: 1,000 waves keep the table at the root alone."""
    from repro.xrt.procs import wire

    loop = PlaceLoop(deadline=30.0)
    prt = ProcsRuntime(loop, place_id=0, n_places=4)

    def remote_places_join(frame):
        kind, _src, dst, payload = frame
        if kind == wire.SPAWN:
            loop.post(0.0, loop.dispatch, (wire.JOIN, dst, 0, (payload[2], payload[3])))

    prt.send_frame = remote_places_join
    sizes = []
    root = prt.open_finish(0, Pragma.DEFAULT, name="root")
    prt.spawn_local(0, _dense_waves, (1000, sizes), root, name="main")
    root.wait().add_callback(lambda _event: loop.stop())
    loop.run()
    assert len(sizes) == 1000 and set(sizes) == {1}
    assert prt.finishes == {}
    assert ctl_by_pragma(prt.obs.metrics) == {"default": 0, "finish_dense": 0}


def test_finish_ids_never_collide():
    prt = _runtime()
    fids = {prt.open_finish(0, Pragma.DEFAULT).fid for _ in range(10)}
    assert len(fids) == 10


# -- place-death semantics (the sim finish contract, over frames) ------------------


def test_strict_finish_fails_with_dead_place_error_naming_the_place():
    fin = HomeFinish(_runtime(), Pragma.FINISH_SPMD)
    fin.fork(0, 2)
    fin.fork(0, 3)
    fin.notify_place_death(2)
    with pytest.raises(DeadPlaceError, match="place 2 is dead") as err:
        fin.wait().value
    assert err.value.place == 2


def test_tolerant_finish_writes_off_exactly_the_dead_places_share():
    prt = _runtime()
    fin = prt.open_finish(0, Pragma.FINISH_DENSE)
    fin.tolerate_death = True
    for dst in (1, 2, 2, 3):
        fin.fork(0, dst)
    fin.notify_place_death(2)  # both of place 2's activities written off
    assert fin.pending == 2
    assert prt.obs.metrics.total("finish.deaths_tolerated") == 1
    prt._on_join(1, (fin.fid, "finish_dense"))
    prt._on_join(3, (fin.fid, "finish_dense"))  # survivors still join normally
    assert fin.wait().fired
    assert fin.wait().value is None  # fired cleanly, not failed


def test_frames_after_a_strict_failure_are_absorbed():
    """A strict-failed finish stays in the table: a survivor's JOIN and a
    FORK notice still in flight find it, and neither raises."""
    prt = _runtime()
    fin = prt.open_finish(0, Pragma.FINISH_SPMD)
    fin.fork(0, 2)
    fin.fork(0, 3)
    prt.on_place_dead(2, "test kill")
    waited = fin.wait()
    prt._on_fork(3, (fin.fid, "finish_spmd", 1))
    prt._on_join(3, (fin.fid, "finish_spmd"))
    assert prt.finishes == {fin.fid: fin}
    with pytest.raises(DeadPlaceError, match="lost; test kill"):
        waited.value


def test_death_of_place_with_no_pending_work_is_a_noop():
    fin = HomeFinish(_runtime(), Pragma.DEFAULT)
    fin.fork(0, 1)
    fin.notify_place_death(3)  # nothing outstanding there
    assert fin.pending == 1
    fin.join(1)
    assert fin.wait().fired


def test_on_place_dead_poisons_sends_and_clears_on_acknowledge():
    prt = _runtime()
    prt.send_frame = lambda frame: None
    prt.on_place_dead(2, "test kill")
    with pytest.raises(DeadPlaceError):
        prt.send_item(0, 2, "box", "item")
    with pytest.raises(DeadPlaceError):
        prt.spawn_remote(0, 2, _single_place_eval, (1,), HomeFinish(prt, Pragma.DEFAULT))
    prt.acknowledge_deaths()
    prt.send_item(0, 2, "box", "item")  # poison lifted


def test_on_place_dead_fails_pending_remote_evals_to_the_dead_place():
    prt = _runtime()
    prt.send_frame = lambda frame: None
    event = prt.remote_eval(0, 2, _single_place_eval, (1,))
    bystander = prt.remote_eval(0, 3, _single_place_eval, (1,))
    prt.on_place_dead(2, "test kill")
    with pytest.raises(DeadPlaceError):
        event.value
    assert not bystander.fired  # evals to live places are untouched


def test_on_place_dead_fails_blocked_mailbox_getters_but_keeps_items():
    prt = _runtime()
    box = prt.place(0).mailbox("data")
    box.put("queued-before-death")
    getter = prt.recv(0, "waiting")
    prt.on_place_dead(1, "test kill")
    with pytest.raises(DeadPlaceError):
        getter.event.value
    # queued items survive: only *blocked* getters can deadlock on a death
    ok, item = box.try_get()
    assert ok and item == "queued-before-death"


def test_on_place_dead_is_idempotent_and_ignores_self():
    prt = _runtime(place_id=2)
    prt.on_place_dead(2, "self")  # a process never outlives its own death
    assert prt.dead_places() == ()
    prt.on_place_dead(1, "first")
    prt.on_place_dead(1, "again")
    assert prt.dead_places() == (1,)


def test_raced_fork_notice_for_a_dead_place_is_written_off():
    # a FORK notice can arrive *after* the death notice (different senders);
    # the runtime must count it and immediately write it off, not leak it
    prt = _runtime()
    prt.send_frame = lambda frame: None
    fin = prt.open_finish(0, Pragma.FINISH_DENSE)
    fin.tolerate_death = True
    prt.on_place_dead(3, "test kill")
    prt._on_fork(1, (fin.fid, "finish_dense", 3))
    assert fin.pending == 0
    assert prt.obs.metrics.total("finish.deaths_tolerated") == 1


def test_heal_revives_a_death_that_lands_mid_restore_wave():
    """Regression for the ``kill=1@0.0`` hang (deterministic, no processes).

    Place 1 dies after the restore wave spawned at it and before place 0's
    own restore member has run.  The tolerant wave finish writes the lost
    activity off, so only the death set still says place 1 needs reviving:
    the place-0 member must not acknowledge it away, or ``_heal`` returns with
    place 1 dead and un-respawned and the next epoch's SPAWN is blackholed.
    """
    from repro.kernels.portable.resilient import _heal
    from repro.xrt.procs import wire

    loop = PlaceLoop(deadline=10.0)
    prt = ProcsRuntime(loop, place_id=0, n_places=4)
    respawned = []
    prt.respawn_place = respawned.append

    def live_members_join(frame):
        kind, _src, dst, payload = frame
        if kind != wire.SPAWN or (dst == 1 and not respawned):
            return  # place 1 is being killed: its SPAWN goes nowhere
        fid, pragma_value = payload[2], payload[3]
        loop.post(0.0, loop.dispatch, (wire.JOIN, dst, 0, (fid, pragma_value)))
        if dst == 3 and not respawned:
            # the wave's last spawn is out, place 0's member has not stepped
            prt.on_place_dead(1, "test kill")

    prt.send_frame = live_members_join
    healed_with = []

    def main(ctx):
        stats = {"revivals": 0}
        yield from _heal(ctx, lambda ctx, epoch, blob: None, -1, {}, stats, 8)
        healed_with.append((list(respawned), ctx.dead_places(), stats["revivals"]))

    root = prt.open_finish(0, Pragma.DEFAULT, name="root")
    prt.spawn_local(0, main, (), root, name="main")
    root.wait().add_callback(lambda _event: loop.stop())
    loop.run()
    assert healed_with == [([1], (), 1)]


def test_context_revive_requires_the_control_place():
    prt = _runtime(place_id=1)
    ctx = _context_of(prt)
    with pytest.raises(ProcsError, match="control place"):
        ctx.revive(2)


def test_context_dead_places_probe_and_recv_poison():
    prt = _runtime()
    ctx = _context_of(prt)
    assert ctx.dead_places() == ()
    prt.on_place_dead(3, "test kill")
    assert ctx.dead_places() == (3,)
    with pytest.raises(DeadPlaceError, match="poisons blocking receives"):
        ctx.recv("box")
    ctx.acknowledge_deaths()
    assert ctx.dead_places() == ()


def _death_is_named_then_revive_clears_it(ctx, place):
    assert ctx.dead_places() == (place,)
    ctx.revive(place)
    assert ctx.dead_places() == ()


def test_dead_places_and_revive_on_the_procs_runtime():
    prt = _runtime()
    respawned = []
    prt.respawn_place = respawned.append
    prt.on_place_dead(2, "test kill")
    _death_is_named_then_revive_clears_it(_context_of(prt), 2)
    assert respawned == [2]


def test_dead_places_and_revive_on_the_simulator():
    from repro.runtime import ApgasRuntime

    def main(ctx):
        assert ctx.dead_places() == ()
        yield ctx.sleep(2e-3)
        _death_is_named_then_revive_clears_it(ctx, 2)
        ctx.acknowledge_deaths()  # nothing to lift on the simulator; must exist
        return "checked"

    assert ApgasRuntime(places=3, chaos="seed=0,kill=2@1e-3").run(main) == "checked"


def _context_of(prt: ProcsRuntime) -> ActivityContext:
    fin = HomeFinish(prt, Pragma.DEFAULT)
    return ActivityContext(prt, Activity(prt.place_id, _single_place_eval, (), fin))


# -- runtime wiring ----------------------------------------------------------------


def test_unwired_runtime_refuses_to_send():
    prt = _runtime()
    with pytest.raises(ProcsError, match="not wired"):
        prt.send_item(0, 1, "box", "item")


def test_send_item_checks_place_bounds():
    prt = _runtime(n_places=2)
    with pytest.raises(PlaceError):
        prt.send_item(0, 5, "box", "item")


def test_local_send_item_skips_the_wire():
    prt = _runtime()  # send_frame still unwired: a local put must not need it
    prt.send_item(0, 0, "box", "payload")
    ok, item = prt.place(0).mailbox("box").try_get()
    assert ok and item == "payload"


def test_get_backend_unknown_name():
    with pytest.raises(ValueError, match="unknown backend"):
        get_backend("mpi")


def test_one_record_per_portable_run():
    """Both backends hand back a ``BackendRun``; what a backend does not
    measure stays at the field's empty default."""
    sim = get_backend("sim").run("stream", 2)
    assert isinstance(sim, BackendRun) and sim.backend == "sim"
    assert sim.sim_time > 0
    assert sim.metrics.total("finish.ctl_messages") == sum(sim.ctl_by_pragma.values())
    assert (sim.messages_routed, sim.bytes_routed, sim.revivals) == (0, 0, 0)
    assert (sim.frames_dropped, sim.deaths_tolerated, sim.chaos) == (0, 0, None)
    assert sim.per_place == {} and sim.deaths == []
    assert not hasattr(sim, "extra")

    procs = get_backend("procs").run("stream", 1)
    assert isinstance(procs, BackendRun) and procs.backend == "procs"
    assert procs.sim_time is None and procs.metrics is None
    assert procs.checksum and set(procs.per_place) == {0}


def test_procs_backend_returns_the_launchers_own_record(monkeypatch):
    import repro.xrt.procs as procs_pkg

    made = []

    def spy(*args, **kwargs):
        made.append(run_procs_program(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(procs_pkg, "run_procs_program", spy)
    run = get_backend("procs", deadline=30.0).run("stream", 1)
    assert run is made[0]


def test_run_procs_rejects_zero_places():
    with pytest.raises(PlaceError):
        run_procs_program("stream", places=0)


# -- a full single-place run (launcher + loop + runtime, no children) --------------


def _single_place_main(ctx):
    """Exercises nested finish, local spawn, mailboxes, sleep, and at()."""
    with ctx.finish(Pragma.FINISH_LOCAL) as f:
        ctx.async_(_single_place_child, 21)
    yield f.wait()
    yield ctx.sleep(0.001)
    doubled = yield ctx.at(0, _single_place_eval, 5)
    ok, stored = ctx.try_recv("answers")
    assert ok
    return {"checksum": "local", "stored": stored, "doubled": doubled,
            "now": ctx.now, "places": list(ctx.places())}


def _single_place_child(ctx, value):
    yield ctx.compute(seconds=1.0)  # cooperative yield; charges no wall time
    ctx.send(0, "answers", value * 2)


def _single_place_eval(ctx, x):
    return x * 2


def test_single_place_run_completes_in_process():
    report = run_procs_program(_single_place_main, places=1, deadline=10.0)
    assert report.places == 1
    assert report.result["stored"] == 42
    assert report.result["doubled"] == 10
    assert report.result["places"] == [0]
    assert report.messages_routed == 0  # no children, nothing on a wire
    # root DEFAULT finish and the nested LOCAL finish both registered, free
    assert report.ctl_by_pragma == {"default": 0, "finish_local": 0}
    assert report.per_place[0]["ctl_by_pragma"] == report.ctl_by_pragma


def test_single_place_kernel_by_name():
    report = run_procs_program(
        "stream", places=1, params={"n_per_place": 256, "iterations": 2}, deadline=10.0
    )
    assert report.kernel == "stream"
    assert report.result["n_total"] == 256
    assert report.result["checksum"]


# -- one ctx, two runtimes: the differential table ---------------------------------
#
# Each row is a tiny ``at`` body and what the caller of ``ctx.at`` must see on
# *both* runtimes.  The places=1 rows fork nothing and run here, in tier-1;
# tests/xrt/test_conformance.py runs the same table over 2 real processes.


def _leaf(ctx):
    return None


def _ungoverned_async(ctx):
    ctx.async_(_leaf)  # no finish open inside an `at` body


def _compute_without_flop_rate(ctx):
    yield ctx.compute(flops=1e6)


def _negative_compute(ctx):
    yield ctx.compute(seconds=-1.0)


def _what_async_returns(ctx):
    with ctx.finish() as f:
        spawned = ctx.async_(_leaf)
    yield f.wait()
    return type(spawned).__name__


def _async_copy(ctx):
    with ctx.finish() as f:
        ctx.async_copy(None, None)
    yield f.wait()


def _raise_plain(ctx):
    raise ValueError("boom")


def _raise_generator(ctx):
    yield ctx.sleep(0.0)
    raise ValueError("boom")


def _mail_myself(ctx, value):
    ctx.send(ctx.here, "diff:box", value)


def _governed_async_and_messages(ctx):
    with ctx.finish(Pragma.FINISH_LOCAL) as f:
        ctx.async_(_mail_myself, 8)
    yield f.wait()
    return (yield ctx.recv("diff:box"))


def _log(ctx, name):
    ctx.store.setdefault("diff:log", []).append(name)


def _log_short(ctx, home):
    yield ctx.at(home, _log, "short")


def _log_long(ctx):
    yield ctx.sleep(0.05)
    _log(ctx, "long")


def _wait_covers_a_late_async(ctx):
    """``short`` (remote when there is a second place) has joined, and the
    scope is momentarily quiescent, before ``long`` is forked; the wait must
    still cover ``long``."""
    with ctx.finish() as f:
        ctx.at_async((ctx.here + 1) % ctx.n_places, _log_short, ctx.here)
        yield ctx.sleep(0.01)
        ctx.async_(_log_long)
    yield f.wait()
    return ctx.store.pop("diff:log", [])


CTX_ROWS = [
    ("ungoverned-async-in-at", _ungoverned_async, {"raised": "ApgasError"}),
    ("compute-without-flop-rate", _compute_without_flop_rate, {"raised": "ApgasError"}),
    ("negative-compute", _negative_compute, {"raised": "ApgasError"}),
    ("async-returns-an-activity", _what_async_returns, {"returned": "Activity"}),
    ("async-copy-without-rdma", _async_copy, {"raised": "ApgasError"}),
    ("at-body-raises-plain", _raise_plain, {"raised": "ValueError"}),
    ("at-body-raises-generator", _raise_generator, {"raised": "ValueError"}),
    ("governed-async-send-recv", _governed_async_and_messages, {"returned": 8}),
    ("wait-covers-a-late-async", _wait_covers_a_late_async, {"returned": ["short", "long"]}),
]


def _probe_main(ctx, body, target):
    """What the caller of ``ctx.at(target, body)`` sees, as plain data."""
    try:
        value = yield ctx.at(target, body)
    except Exception as exc:  # noqa: BLE001 - the outcome under comparison
        return {"raised": type(exc).__name__}
    return {"returned": value}


def ctx_outcomes(body, places: int, target: int) -> tuple:
    """``(simulator outcome, procs outcome)`` of one table row.

    The simulator side runs over the sockets transport: like real processes
    it has no RDMA, so ``async_copy`` must be refused the same way.
    """
    from repro.runtime import ApgasRuntime
    from repro.xrt import SocketsTransport

    main = functools.partial(_probe_main, body=body, target=target)
    sim = ApgasRuntime(places=places, transport_cls=SocketsTransport).run(main)
    procs = run_procs_program(main, places=places, deadline=20.0).result
    return sim, procs


@pytest.mark.parametrize("body,expected", [row[1:] for row in CTX_ROWS],
                         ids=[row[0] for row in CTX_ROWS])
def test_ctx_means_the_same_on_both_runtimes_single_place(body, expected):
    sim, procs = ctx_outcomes(body, places=1, target=0)  # every `at` is at(here)
    assert sim == procs == expected


def _leaves_a_finish_open(ctx):
    ctx.finish().__enter__()
    yield ctx.sleep(0.0)


def test_activity_ending_inside_an_open_finish_scope_is_refused_on_both():
    from repro.errors import ApgasError
    from repro.runtime import ApgasRuntime

    with pytest.raises(ApgasError, match="inside an open finish scope"):
        ApgasRuntime(places=1).run(_leaves_a_finish_open)
    with pytest.raises(ApgasError, match="inside an open finish scope"):
        run_procs_program(_leaves_a_finish_open, places=1, deadline=10.0)
