"""Tests for the specialized finish implementations (paper Section 3.1)."""

import gc
import weakref

import pytest

from repro.errors import FinishError, PragmaError
from repro.runtime import Pragma

from tests.runtime.conftest import make_runtime


def noop(ctx):
    yield ctx.compute(seconds=1e-6)


def spawn_everywhere(rt, pragma, nested=False):
    """One remote activity per place under a finish with the given pragma."""

    def main(ctx):
        with ctx.finish(pragma) as f:
            for p in ctx.places():
                if p != ctx.here:
                    ctx.at_async(p, nested_noop if nested else noop)
        yield f.wait()
        return f

    return rt.run(main)


def nested_noop(ctx):
    with ctx.finish(Pragma.FINISH_LOCAL) as f:
        ctx.async_(noop)
    yield f.wait()


# -- correctness of every protocol -------------------------------------------------


@pytest.mark.parametrize(
    "pragma",
    [Pragma.DEFAULT, Pragma.FINISH_SPMD, Pragma.FINISH_DENSE],
)
def test_protocols_detect_quiescence(pragma):
    rt = make_runtime()
    fin = spawn_everywhere(rt, pragma)
    assert fin.quiescent
    assert fin.pending == 0


@pytest.mark.parametrize(
    "pragma", [Pragma.DEFAULT, Pragma.FINISH_SPMD, Pragma.FINISH_DENSE]
)
def test_protocols_with_nested_finishes(pragma):
    rt = make_runtime()
    fin = spawn_everywhere(rt, pragma, nested=True)
    assert fin.quiescent


def test_finish_async_single_remote_activity():
    rt = make_runtime()

    def main(ctx):
        with ctx.finish(Pragma.FINISH_ASYNC) as f:
            ctx.at_async(7, noop)
        yield f.wait()
        return f

    fin = rt.run(main)
    assert fin.quiescent
    assert fin.ctl_messages == 1  # exactly one termination message


def test_finish_async_rejects_second_activity():
    rt = make_runtime()

    def main(ctx):
        with ctx.finish(Pragma.FINISH_ASYNC) as f:
            ctx.at_async(1, noop)
            ctx.at_async(2, noop)
        yield f.wait()

    with pytest.raises(PragmaError, match="single activity"):
        rt.run(main)


def test_finish_here_round_trip():
    rt = make_runtime()
    log = []

    def main(ctx):
        home = ctx.here
        with ctx.finish(Pragma.FINISH_HERE) as f:
            ctx.at_async(9, go, home)
        yield f.wait()
        log.append("done")
        return f

    def go(ctx, home):
        log.append(f"out@{ctx.here}")
        ctx.at_async(home, back)
        yield ctx.compute(seconds=1e-6)

    def back(ctx):
        log.append(f"back@{ctx.here}")
        yield ctx.compute(seconds=1e-6)

    fin = rt.run(main)
    assert log == ["out@9", "back@0", "done"]
    assert fin.ctl_messages == 1  # only the outbound leg reports


def test_finish_here_rejects_wrong_return_place():
    rt = make_runtime()

    def main(ctx):
        with ctx.finish(Pragma.FINISH_HERE) as f:
            ctx.at_async(9, wrong_return)
        yield f.wait()

    def wrong_return(ctx):
        ctx.at_async(5, noop)  # second leg must return home (place 0)
        yield ctx.compute(seconds=1e-6)

    with pytest.raises(PragmaError, match="return to the home"):
        rt.run(main)


def test_finish_local_no_messages():
    rt = make_runtime()

    def main(ctx):
        with ctx.finish(Pragma.FINISH_LOCAL) as f:
            for _ in range(10):
                ctx.async_(noop)
        yield f.wait()
        return f

    fin = rt.run(main)
    assert fin.quiescent
    assert fin.ctl_messages == 0


def test_finish_local_rejects_remote_spawn():
    rt = make_runtime()

    def main(ctx):
        with ctx.finish(Pragma.FINISH_LOCAL) as f:
            ctx.at_async(3, noop)
        yield f.wait()

    with pytest.raises(PragmaError, match="remote activity"):
        rt.run(main)


# -- cost structure: the reason the specializations exist ---------------------------


def test_spmd_messages_are_count_only():
    rt_default = make_runtime()
    fin_default = spawn_everywhere(rt_default, Pragma.DEFAULT)
    rt_spmd = make_runtime()
    fin_spmd = spawn_everywhere(rt_spmd, Pragma.FINISH_SPMD)
    # same number of reports (one per remote place), but SPMD's are smaller
    assert fin_spmd.ctl_messages == fin_default.ctl_messages
    assert fin_spmd.ctl_bytes < fin_default.ctl_bytes


def test_default_finish_home_space_grows_quadratically_for_dense_pattern():
    """The default implementation uses O(n^2) space at the home place."""

    def run_dense(places):
        rt = make_runtime(places=places)

        def main(ctx):
            with ctx.finish() as f:
                for p in ctx.places():
                    ctx.at_async(p, fanout)
            yield f.wait()
            return f

        def fanout(ctx):
            # every place spawns to every place: dense communication graph
            for q in ctx.places():
                if q != ctx.here:
                    ctx.at_async(q, noop)
            yield ctx.compute(seconds=1e-6)

        return rt.run(main)

    small = run_dense(4)
    large = run_dense(16)
    # 4x the places -> ~16x the home matrix
    assert large.home_space_bytes > 10 * small.home_space_bytes


def test_dense_routes_through_masters():
    """FINISH_DENSE control traffic reaches home mostly via shared memory and
    per-octant aggregates, unloading the home octant's NIC."""
    rt_default = make_runtime(places=64)
    spawn_everywhere(rt_default, Pragma.DEFAULT)
    home_ejections_default = rt_default.network.ejection(0).reservations

    rt_dense = make_runtime(places=64)
    spawn_everywhere(rt_dense, Pragma.FINISH_DENSE)
    home_ejections_dense = rt_dense.network.ejection(0).reservations

    assert home_ejections_dense <= home_ejections_default / 2


def test_dense_coalescing_reduces_network_messages():
    rt = make_runtime(places=64)
    fin = spawn_everywhere(rt, Pragma.FINISH_DENSE)
    # 63 joins reported, but each non-home hop is either shm (free NIC-wise)
    # or an aggregated per-octant message
    network_msgs = rt.obs.metrics.by_label("net.link_messages", "link")
    non_shm = sum(v for link, v in network_msgs.items() if link != "shm")
    assert fin.quiescent
    # without coalescing each of the 60 off-octant joins would cross the
    # network individually (plus 60 spawn messages); coalescing caps the
    # finish-control share at ~one message per octant per flush window
    # (joins straggle over ~2 windows here, so <= 2 aggregates per octant)
    assert non_shm <= 60 + 2 * 15


def test_join_without_fork_rejected():
    rt = make_runtime()
    from repro.runtime.finish import make_finish

    fin = make_finish(rt, 0, Pragma.DEFAULT)
    with pytest.raises(FinishError, match="join without"):
        fin.join(0)


def test_wait_before_any_fork_completes_immediately():
    rt = make_runtime()

    def main(ctx):
        with ctx.finish() as f:
            pass  # nothing spawned
        yield f.wait()
        return "ok"

    assert rt.run(main) == "ok"


def test_quiescence_requires_report_delivery_time():
    """A finish is not quiescent the instant the last task ends — the
    termination message must physically reach home."""
    rt = make_runtime()

    def main(ctx):
        start = ctx.now
        with ctx.finish(Pragma.FINISH_ASYNC) as f:
            ctx.at_async(8, instant)
        yield f.wait()
        return ctx.now - start

    def instant(ctx):
        return None  # terminates immediately on arrival

    elapsed = rt.run(main)
    # at least two software latencies: spawn out + report back
    assert elapsed >= 2 * rt.config.software_latency


# -- a finished finish is garbage, unless a place death could still need it --------


def test_finish_is_collectable_after_a_fault_free_run():
    """Only ``_on_place_death`` reads the runtime's finish table, and it is
    subscribed only under chaos: a fault-free run must not keep its finishes."""
    rt = make_runtime()
    ref = weakref.ref(spawn_everywhere(rt, Pragma.FINISH_SPMD))
    gc.collect()
    assert ref() is None
    assert not rt._finishes


def test_finish_stays_listed_for_place_death_under_chaos():
    rt = make_runtime(chaos="seed=0")
    ref = weakref.ref(spawn_everywhere(rt, Pragma.FINISH_SPMD))
    gc.collect()
    assert ref() is not None
    assert ref() in rt._finishes.values()
