"""Step-count complexity regressions: engine events per finish/broadcast idiom,
and interpreter calls per invocation of the shared numeric cores, per finish
open, per chaos leg, per FINISH_ASYNC put and per frame a procs place serves;
and, at the end, the traced memory peaks of HPL's residual check and run, of
the portable RandomAccess and of Stream and FFT's host check at scale.

``Engine.events_executed`` counts every callback the loop dispatched, so it
is a wall-clock-free complexity measure: if a refactor adds a per-message
hop, an extra trampoline bounce per activity, or turns the broadcast tree
quadratic, these budgets trip even though all behavioral tests still pass.
Budgets carry ~30% headroom over the measured counts at the time of writing
(noted inline) — tighten them when the constants drop, raise them only with
a reason in the diff.
"""

import sys
import tracemalloc

import pytest

import repro.kernels.hpl.hpl as hpl_driver
import repro.kernels.randomaccess.ra as ra_kernel
import repro.kernels.stream.stream as stream_kernel
from repro.chaos import ChaosInjector
from repro.harness.runner import make_runtime, simulate
from repro.kernels.bc import rmat_graph, single_source_dependencies
from repro.kernels.hpl.lu import blocked_lu_inplace, reconstruction_residual
from repro.kernels.portable import KERNELS
from repro.kernels.randomaccess.hpcc_rng import stream_slice, stream_slice_fast
from repro.kernels.smithwaterman.sw import random_sequence, sw_score, sw_score_reference
from repro.kernels.uts import UtsBag, UtsParams
from repro.machine.config import MachineConfig
from repro.machine.network import TransferKind
from repro.runtime import Pragma
from repro.runtime.broadcast import PlaceGroup, broadcast_spawn
from repro.sim.rng import RngStream
from repro.xrt.backend import get_backend
from repro.xrt.procs import wire
from repro.xrt.procs.loop import PlaceLoop
from repro.xrt.procs.runtime import ProcsRuntime

from tests.chaos.fate_oracle import fate_reference
from tests.kernels.brandes_oracle import single_source_dependencies_per_vertex
from tests.kernels.host_math_oracle import fft_report_out_of_place, stream_body_round_by_round
from tests.kernels.hpl_residual_oracle import reconstruction_residual_full
from tests.kernels.ra_partition_oracle import ra_body_pairs
from tests.kernels.uts_oracle import process_oracle


def _leaf(ctx):
    pass


def _events_for_pragma(pragma, places=64):
    """One idiomatic workload per pragma (each has different legality rules)."""
    rt = make_runtime(places, MachineConfig.small())

    if pragma in (Pragma.DEFAULT, Pragma.FINISH_SPMD, Pragma.FINISH_DENSE):
        # one remote activity at every other place
        def main(ctx):
            with ctx.finish(pragma, name="budget") as f:
                for p in ctx.places():
                    if p != ctx.here:
                        ctx.at_async(p, _leaf)
            yield f.wait()

    elif pragma is Pragma.FINISH_ASYNC:
        # the "put" idiom: a single remote activity
        def main(ctx):
            with ctx.finish(pragma, name="budget") as f:
                ctx.at_async(5, _leaf)
            yield f.wait()

    elif pragma is Pragma.FINISH_HERE:
        # the "get" idiom: out and back
        def _bounce(ctx2):
            ctx2.at_async(0, _leaf)

        def main(ctx):
            with ctx.finish(pragma, name="budget") as f:
                ctx.at_async(5, _bounce)
            yield f.wait()

    elif pragma is Pragma.FINISH_LOCAL:
        # local-only activities: no control messages at all
        def main(ctx):
            with ctx.finish(pragma, name="budget") as f:
                for _ in range(places - 1):
                    ctx.at_async(ctx.here, _leaf)
            yield f.wait()

    else:  # pragma: no cover - new pragmas must get a budget here
        raise AssertionError(f"no budget workload for {pragma}")

    rt.run(main)
    return rt.engine.events_executed


# measured values when the budgets were set: DEFAULT 190, FINISH_ASYNC 4,
# FINISH_HERE 6, FINISH_LOCAL 127, FINISH_SPMD 190, FINISH_DENSE 220
_BUDGETS = {
    Pragma.DEFAULT: 250,
    Pragma.FINISH_ASYNC: 8,
    Pragma.FINISH_HERE: 10,
    Pragma.FINISH_LOCAL: 170,
    Pragma.FINISH_SPMD: 250,
    Pragma.FINISH_DENSE: 290,
}


@pytest.mark.parametrize("pragma", list(Pragma), ids=lambda p: p.name)
def test_finish_pragma_event_budget(pragma):
    events = _events_for_pragma(pragma)
    assert events <= _BUDGETS[pragma], (
        f"{pragma.name}: {events} engine events exceed the budget "
        f"{_BUDGETS[pragma]} — a per-activity or per-message hop was added"
    )


def test_specialized_pragmas_are_not_slower_than_default():
    """The whole point of the specializations: never more events than DEFAULT."""
    default = _events_for_pragma(Pragma.DEFAULT)
    for pragma in (Pragma.FINISH_SPMD, Pragma.FINISH_DENSE):
        assert _events_for_pragma(pragma) <= default + 64


@pytest.mark.parametrize("places", [8, 64, 256])
def test_broadcast_event_budget_is_linear(places):
    """Binomial-tree broadcast: O(places) events total, ~3/place measured."""
    rt = make_runtime(places)

    def main(ctx):
        yield from broadcast_spawn(ctx, PlaceGroup.world(ctx.rt), _leaf)

    rt.run(main)
    events = rt.engine.events_executed
    assert events <= 4 * places, (
        f"broadcast@{places}: {events} events — more than 4/place means the "
        f"spawning tree or its termination detection went superlinear"
    )


# -- numeric cores: interpreter calls per invocation ------------------------------------
#
# The cores the two kernel sets share are whole-array code: a call costs a
# fixed number of NumPy calls per BFS level, per row of the short sequence or
# per stream step, never one per vertex, per cell or per lane.  ``sys.setprofile``
# counts every Python and C function call made under the core at a fixed
# input, which no clock can blur; a Python loop over elements multiplies it.


def _calls_under(fn, *args):
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profiler)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def _sw_case():
    return sw_score, (random_sequence(0, "short", 64), random_sequence(0, "long", 448))


def _brandes_case():
    return single_source_dependencies, (rmat_graph(scale=8, seed=0), 0)


def _stream_case():
    return stream_slice_fast, (0, 4096)


def _drain_uts(process):
    """One depth-7 tree (12,937 nodes, 3,170 of them hashed) in chunks of 64."""
    bag = UtsBag.root(UtsParams(b0=4.0, depth=7, seed=19))
    while not bag.is_empty():
        process(bag, 64)


def _uts_case():
    _drain_uts(UtsBag.process)  # the threshold table is built once per q
    return _drain_uts, (UtsBag.process,)


# measured when the budgets were set (NumPy 2.4): sw_score 98 (4,094 for the
# anti-diagonal sweep it replaced), one Brandes source 160 (1,738 per-vertex),
# stream_slice_fast 193, three per step of 64 lanes (6,470 with one scalar
# jump per lane), the UTS drain 5,872: one ``bisect_right`` per hashed node,
# three calls per sibling interval, two per chunk, and not one NumPy dispatch
# (15,386 through the array forms, ~11 dispatches per interval; 14,709 for the
# ``process`` of PR 23).  This core is scalar, so its floor is a C call per
# node and the array form is 2.0x the budget, not the 4x of the whole-array
# cores; a call per node or a dispatch per interval added back overruns it.
_CORE_BUDGETS = {
    "sw_score_64x448": (_sw_case, 130),
    "brandes_source_scale8": (_brandes_case, 210),
    "stream_slice_fast_4096": (_stream_case, 250),
    "uts_process": (_uts_case, 7_600),
}


@pytest.mark.parametrize("core", list(_CORE_BUDGETS))
def test_numeric_core_call_budget(core):
    case, budget = _CORE_BUDGETS[core]
    fn, args = case()
    calls = _calls_under(fn, *args)
    assert calls <= budget, (
        f"{core}: {calls} interpreter calls exceed the budget {budget} — "
        f"a per-element or per-vertex Python loop is back in the core"
    )


def test_call_budgets_would_catch_the_loops_they_replaced():
    """The meter is only a guard if the slow oracles trip it."""
    _, (graph, source) = _brandes_case()
    per_vertex = _calls_under(single_source_dependencies_per_vertex, graph, source)
    assert per_vertex > 4 * _CORE_BUDGETS["brandes_source_scale8"][1]
    assert _calls_under(stream_slice, 0, 4096) > 4 * _CORE_BUDGETS["stream_slice_fast_4096"][1]
    _, sequences = _sw_case()
    assert _calls_under(sw_score_reference, *sequences) > 4 * _CORE_BUDGETS["sw_score_64x448"][1]
    assert _calls_under(_drain_uts, process_oracle) > 1.8 * _CORE_BUDGETS["uts_process"][1]


# -- opening a finish: held instruments, not registry lookups -------------------
#
# Everything a finish needs from its pragma (string, fork rule, counters) is
# resolved once per runtime; a warm open is the id, one table lookup and one
# counter increment.  Measured 10 calls when the budget was set; three
# ``metrics.counter`` lookups per open made it 43.
_OPEN_FINISH_BUDGET = 13


def test_open_finish_call_budget():
    rt = make_runtime(64)
    rt.open_finish(3, Pragma.FINISH_ASYNC)  # the pragma's first open registers
    calls = _calls_under(rt.open_finish, 3, Pragma.FINISH_ASYNC)
    assert calls <= _OPEN_FINISH_BUDGET, (
        f"open_finish: {calls} interpreter calls exceed the budget "
        f"{_OPEN_FINISH_BUDGET} — a registry lookup or enum read is back on the open path"
    )


# -- one chaos leg: C draws and set tests, not wrapper and method calls ----------
#
# A fate test is one bound ``Generator.random()`` draw and a dead-endpoint test
# is a set membership, so a leg costs its path reservation and its posts.  The
# spec takes every fate branch but the drop, the most a delivered leg can
# cost.  Measured 30 calls for one ``chaos_leg`` plus one ``send`` when the
# budget was set; 77 with the ``RngStream.uniform`` wrapper per test, an
# ``is_dead`` call per endpoint and a ``check`` per send.
_CHAOS_LEG_SPEC = "seed=3,dup=1.0,delay=1.0:2e-5,reorder=1.0:5e-5"
_CHAOS_LEG_BUDGET = 39


def _chaos_leg_and_send():
    rt = make_runtime(8, MachineConfig.small(), chaos=_CHAOS_LEG_SPEC)
    network, reliability = rt.transport.network, rt.transport._reliability
    network.chaos_leg(1, 6, 16, TransferKind.MSG, 1.0, 1)  # fills the path table

    def one():
        network.chaos_leg(1, 6, 16, TransferKind.MSG, 1.0, 2)
        reliability.send(2, 5, 16, _leaf, None)

    return one


def test_chaos_leg_call_budget():
    calls = _calls_under(_chaos_leg_and_send())
    assert calls <= _CHAOS_LEG_BUDGET, (
        f"chaos leg + send: {calls} interpreter calls exceed the budget "
        f"{_CHAOS_LEG_BUDGET} — a wrapped draw, a liveness call or a validation "
        f"call is back on the chaos delivery path"
    )


def test_chaos_leg_budget_would_catch_the_wrapped_draws(monkeypatch):
    """Only the fate body swapped back to scalar ``uniform()`` draws trips it."""
    monkeypatch.setattr(ChaosInjector, "fate", fate_reference)
    assert _calls_under(_chaos_leg_and_send()) > _CHAOS_LEG_BUDGET


# -- one put: a FINISH_ASYNC scope around one remote async ------------------------
#
# HPL's row swap.  A warm put is the open, ``at_async``, ``wait``, the landing,
# the plain body, its join, the one control message and the wake; every check
# on that path tests something the caller has not already tested.  Averaged
# over ``_PUTS`` puts in one ``rt.run`` (the difference from a run making
# one): measured 71 calls per put when the budget was set, 100 with a
# ``place()`` and an ``is_dead()`` call per spawn, ``inspect.isgenerator`` per
# body, a ``quiescent`` property per test, ``Enum.__hash__`` per pragma table
# lookup and a registry dict operation pair per process step.
_PUT_BUDGET = 90
_PUTS = 50


def _puts(ctx, n):
    for _ in range(n):
        with ctx.finish(Pragma.FINISH_ASYNC) as f:
            ctx.at_async(5, _leaf)
        yield f.wait()


def _run_calls(n):
    rt = make_runtime(64, MachineConfig.small())
    return _calls_under(rt.run, _puts, n)


def test_finish_async_put_call_budget():
    per_put = (_run_calls(1 + _PUTS) - _run_calls(1)) / _PUTS
    assert per_put <= _PUT_BUDGET, (
        f"FINISH_ASYNC put: {per_put:.1f} interpreter calls exceed the budget "
        f"{_PUT_BUDGET} — a call that checks nothing new is back on the put path"
    )


# -- one served frame on the procs backend: a start inside the dispatch ---------
#
# A place process serving ``ctx.at`` and ``ctx.at_async`` frames: an EVAL of a
# plain body ends in its REPLY and a SPAWN of ``_leaf`` under a proxy finish
# in its JOIN.  The count covers dispatch, the body, the epilogue and the
# frame it sends, averaged over ``_SERVED`` frames of each kind (the
# difference from a run serving one of each).  Measured 15.5 calls per served
# frame when the budget was set; 44.0 when every delivered body was a
# ``Process`` with a ``SimEvent``, a zero ``Timeout`` turn and its loop ticks.
_SERVED_FRAME_BUDGET = 20
_SERVED = 50


def _double(ctx, x):
    return 2 * x


def _served_calls(n):
    loop = PlaceLoop()
    prt = ProcsRuntime(loop, place_id=1, n_places=3)
    sent = []

    def send_frame(frame):
        sent.append(frame)
        if len(sent) == 2 * n:
            loop.stop()

    prt.send_frame = send_frame
    frames = [(wire.EVAL, 0, 1, (_double, (i,), i)) for i in range(n)]
    frames += [(wire.SPAWN, 2, 1, (_leaf, (), (0, 7), "default", 0, "")) for _ in range(n)]

    def serve():
        for frame in frames:
            loop.dispatch(frame)
        loop.run()

    calls = _calls_under(serve)
    assert [frame[0] for frame in sent] == [wire.REPLY] * n + [wire.JOIN] * n
    return calls


def test_procs_served_frame_call_budget():
    per_frame = (_served_calls(1 + _SERVED) - _served_calls(1)) / (2 * _SERVED)
    assert per_frame <= _SERVED_FRAME_BUDGET, (
        f"procs served frame: {per_frame:.1f} interpreter calls exceed the budget "
        f"{_SERVED_FRAME_BUDGET} — a delivered body is deferred through the loop again"
    )


# -- HPL at its working set: traced peaks, not whole-matrix temporaries ---------
#
# ``tracemalloc`` sees every NumPy buffer.  Measured when the budgets were set
# (NumPy 2.4, N=640, a 3.1 MiB matrix): the residual check 1.52 MiB, two
# ``N x 128`` strips and two tiles (15.6 MiB for the whole-matrix check it
# replaced); ``simulate("hpl", 16, N=640)`` 7.87 MiB, the factored matrix,
# its redraw for the check and the check's strips (22.0 MiB while the driver
# held a copy of the matrix for the whole run and checked it whole, 9.40 MiB
# with the copy held and the blockwise check).  The run's budget has less
# headroom than the rest so that a copy held through the run overruns it.
_MIB = 1 << 20
_RESIDUAL_PEAK_BUDGET = 2 * _MIB
_HPL_RUN_PEAK_BUDGET = 9 * _MIB


def _traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _factored_benchmark_matrix():
    A0 = RngStream(0, "hpl/matrix").uniform(-0.5, 0.5, size=(640, 640))
    LU = A0.copy()
    return A0, LU, blocked_lu_inplace(LU, 16)


def _hpl_run_peak():
    simulate("hpl", 16, N=32)  # imports and first-use caches are not the run's
    return _traced_peak(simulate, "hpl", 16, N=640)


def test_hpl_residual_memory_budget():
    peak = _traced_peak(reconstruction_residual, *_factored_benchmark_matrix())
    assert peak <= _RESIDUAL_PEAK_BUDGET, (
        f"HPL residual at N=640: traced peak {peak / _MIB:.2f} MiB exceeds the budget "
        f"{_RESIDUAL_PEAK_BUDGET / _MIB:.0f} MiB — a whole-matrix temporary is back in the check"
    )


def test_hpl_run_memory_budget():
    peak = _hpl_run_peak()
    assert peak <= _HPL_RUN_PEAK_BUDGET, (
        f"simulate(hpl, 16, N=640): traced peak {peak / _MIB:.2f} MiB exceeds the budget "
        f"{_HPL_RUN_PEAK_BUDGET / _MIB:.0f} MiB — a second matrix is held through the run"
    )


def test_memory_budgets_would_catch_the_check_they_replaced(monkeypatch):
    """The meter is only a guard if the whole-matrix oracle trips it."""
    case = _factored_benchmark_matrix()
    assert _traced_peak(reconstruction_residual_full, *case) > 4 * _RESIDUAL_PEAK_BUDGET
    monkeypatch.setattr(hpl_driver, "reconstruction_residual", reconstruction_residual_full)
    assert _hpl_run_peak() > 2 * _HPL_RUN_PEAK_BUDGET


# -- RandomAccess at the HPCC wire format: one 8-byte value per update -----------
#
# RandomAccess at 2 places, ``log2_table=20`` and 2^18 updates a place, on the
# simulator (both members in this process): the two 4 MiB tables, the first
# member's values in flight to their owners, and the second member's stream,
# its sort order and sorted copy, 16.3 MiB when the budget was set (16.1 MiB
# since the remote XOR replaced the alltoall).  Pairs of ``(int64 index,
# uint64 value)`` and the owner temporaries beside them peak at 22.3 MiB.
_RA_PEAK_BUDGET = 18 * _MIB


def _ra_run_peak():
    sim = get_backend("sim")
    sim.run("randomaccess", 2)  # imports and first-use caches are not the run's
    return _traced_peak(sim.run, "randomaccess", 2, log2_table=20, updates_per_place=1 << 18)


def test_randomaccess_memory_budget():
    peak = _ra_run_peak()
    assert peak <= _RA_PEAK_BUDGET, (
        f"portable randomaccess at 2 places, 2^20 slots: traced peak {peak / _MIB:.2f} MiB "
        f"exceeds the budget {_RA_PEAK_BUDGET / _MIB:.0f} MiB — an update is more than its value again"
    )


def test_randomaccess_budget_would_catch_the_pairs_it_replaced(monkeypatch):
    monkeypatch.setattr(ra_kernel, "ra_body", ra_body_pairs)
    assert _ra_run_peak() > _RA_PEAK_BUDGET


# -- Stream and the FFT check at their working sets --------------------------------
#
# ``simulate("stream", 64)``: 64 members, each three 512 KiB arrays.  A member
# runs its rounds and its check on the host in the step it starts and frees its
# arrays before its first charge: 2.4 MiB when the budget was set, 96.9 MiB
# while every member held its arrays through its four charges.
# ``simulate("fft", 96)``, a 768 x 768 transform: the gathered spectrum, one
# complex buffer for the check's input, reference and difference, and two real
# arrays, 27.7 MiB; 36.1 MiB with an out-of-place reference, difference and
# tolerance bound.
_STREAM_PEAK_BUDGET = 6 * _MIB
_FFT_PEAK_BUDGET = 31 * _MIB


def _simulate_peak(kernel, places):
    simulate(kernel, 4)  # imports and first-use caches are not the run's
    return _traced_peak(simulate, kernel, places)


def test_stream_memory_budget():
    peak = _simulate_peak("stream", 64)
    assert peak <= _STREAM_PEAK_BUDGET, (
        f"simulate(stream, 64): traced peak {peak / _MIB:.2f} MiB exceeds the budget "
        f"{_STREAM_PEAK_BUDGET / _MIB:.0f} MiB — members hold their arrays through their charges again"
    )


def test_stream_budget_would_catch_the_body_it_replaced(monkeypatch):
    monkeypatch.setattr(stream_kernel, "stream_body", stream_body_round_by_round)
    assert _simulate_peak("stream", 64) > 4 * _STREAM_PEAK_BUDGET


def test_fft_memory_budget():
    peak = _simulate_peak("fft", 96)
    assert peak <= _FFT_PEAK_BUDGET, (
        f"simulate(fft, 96): traced peak {peak / _MIB:.2f} MiB exceeds the budget "
        f"{_FFT_PEAK_BUDGET / _MIB:.0f} MiB — the host check holds a second full-size buffer again"
    )


def test_fft_budget_would_catch_the_check_it_replaced(monkeypatch):
    monkeypatch.setitem(KERNELS, "fft", KERNELS["fft"]._replace(report=fft_report_out_of_place))
    assert _simulate_peak("fft", 96) > _FFT_PEAK_BUDGET
