"""Differential conformance: sim vs procs, all eight kernels (satellite 1).

Each test runs the same portable program on the discrete-event simulator and
on real OS processes and asserts bit-identical results, equal checksums, and
equal per-pragma finish control-message counts (see
:mod:`repro.xrt.conformance` for exactly what is and is not compared).

These fork real place processes, so they carry the ``procs`` marker and run
in the procs step of the ``tests`` CI job rather than the tier-1 gate
(``pytest -m procs tests/xrt`` runs them locally).
"""

from __future__ import annotations

import pytest

from repro.errors import KernelError, PragmaError
from repro.kernels.portable import PORTABLE_KERNELS
from repro.runtime.finish.pragmas import Pragma
from repro.xrt.conformance import assert_conformant, run_conformance
from tests.xrt.test_procs_runtime import CTX_ROWS, ctx_outcomes

pytestmark = pytest.mark.procs

PLACES = 4
DEADLINE = 90.0

#: per-kernel parameter overrides to keep the multi-process runs snappy;
#: unlisted kernels run the registry defaults
_SMALL = {
    "uts": {"depth": 6},
}


#: per-row overrides: randomaccess at 3 places on a 256-slot table, whose
#: member bounds 85 and 170 are slots the owner rule ``index*P//size`` once
#: sent to the member below (an IndexError there, on both backends); fft at 5
#: places on a 4 x 4 transform, where member 0 holds no rows of the spectrum
_AT = {
    ("randomaccess", 3): {"log2_table": 8},
    ("fft", 5): {"n1": 4, "n2": 4, "seed": 1},
}


#: every kernel at PLACES; uts at 2: with two places each steals only from
#: the other, the shape that once livelocked over the last piece; kmeans, bc,
#: smithwaterman and stream at 3: an uneven spawning tree and an uneven
#: broadcast tree; fft and randomaccess at 3: an uneven split of the rows or
#: of the table; fft at 5 with an empty row block; hpl at 3 (a 1x3 grid:
#: every row swap is local) and at 6 (a 2x3 grid: P != Q)
_ROWS = [(kernel, PLACES) for kernel in PORTABLE_KERNELS] + [
    ("uts", 2), ("kmeans", 3), ("bc", 3), ("smithwaterman", 3), ("stream", 3), ("fft", 3),
    ("fft", 5), ("randomaccess", 3), ("hpl", 3), ("hpl", 6),
]


@pytest.mark.parametrize("kernel,places", _ROWS, ids=[f"{k}@{p}" for k, p in _ROWS])
def test_kernel_conformant_sim_vs_procs(kernel, places):
    params = _AT.get((kernel, places), _SMALL.get(kernel, {}))
    report = assert_conformant(kernel, places, deadline=DEADLINE, **params)
    sim, procs = report.runs
    assert sim.backend == "sim" and procs.backend == "procs"
    assert sim.checksum  # a kernel without a checksum would vacuously pass
    # the procs run really crossed process boundaries
    assert procs.messages_routed > 0


def test_ctx_team_ops_are_bit_identical_on_both_runtimes():
    """All four ops on a 3-member sub-team of 4 places, broadcast from rank 2:
    the simulator's hardware path, its message program and procs' message
    program return the same values, bit for bit (the allreduce values fold
    differently in any other order)."""
    from repro.runtime import ApgasRuntime
    from repro.xrt.procs import run_procs_program
    from tests.runtime.test_team import TEAM_OPS_EXPECTED, team_ops_main

    hw = ApgasRuntime(places=PLACES).run(team_ops_main)
    emulated = ApgasRuntime(places=PLACES, collectives_emulated=True).run(team_ops_main)
    procs = run_procs_program(team_ops_main, places=PLACES, deadline=DEADLINE)
    assert hw == emulated == procs.result == TEAM_OPS_EXPECTED


def test_conformance_covers_every_finish_pragma():
    """Across the suite, every finish protocol must see real traffic on both
    backends — smithwaterman alone exercises LOCAL, ASYNC, and HERE."""
    report = assert_conformant("smithwaterman", PLACES, deadline=DEADLINE)
    ctl = report.runs[0].ctl_by_pragma
    assert ctl["finish_local"] == 0  # never remote, never a message
    assert ctl["finish_async"] == 1  # one remote activity, one join
    assert ctl["finish_here"] == 1  # remote leg joins; home leg is free
    assert ctl["finish_spmd"] == PLACES - 1


def test_conformance_detects_divergence():
    """The differ itself must not be vacuous: different params must FAIL."""
    report = run_conformance("stream", PLACES, backends=("sim",), alpha=3.0)
    other = run_conformance("stream", PLACES, backends=("sim",), alpha=2.5)
    report.runs.append(other.runs[0])
    from repro.xrt.conformance import ConformanceReport, deep_equal

    diffs = deep_equal(report.runs[0].result, report.runs[1].result)
    assert diffs  # the two triads genuinely differ...
    rebuilt = ConformanceReport("stream", PLACES, report.runs, diffs)
    assert not rebuilt.conformant
    assert "FAIL" in rebuilt.render()


def test_uts_totals_invariant_under_real_stealing():
    """Node totals are checked against the sequential tree count, so the
    procs run agreeing means stealing over real sockets lost nothing."""
    from repro.kernels.uts import sequential_count
    from repro.kernels.uts.tree import UtsParams

    report = assert_conformant("uts", PLACES, deadline=DEADLINE, depth=6)
    expected = sequential_count(UtsParams(depth=6, b0=4.0, seed=19))
    for run in report.runs:
        assert run.result["nodes"] == expected


def test_uts_at_two_places_terminates_every_time():
    """Ten in a row: the livelock hit about half of all runs, so ten clean
    ones at a 5 s deadline are not luck."""
    from repro.kernels.uts import sequential_count
    from repro.kernels.uts.tree import UtsParams
    from repro.xrt.procs import run_procs_program

    expected = sequential_count(UtsParams(depth=7, b0=4.0, seed=19))
    for _ in range(10):
        run = run_procs_program("uts", 2, params={"depth": 7}, deadline=5)
        assert run.result["nodes"] == expected


# -- one ctx, two runtimes: the table of tests/xrt/test_procs_runtime.py -----------


def _second_async(ctx):
    ctx.async_(_second_async_leaf)


def _second_async_leaf(ctx):
    return None


@pytest.mark.parametrize("n,nb", [(50, 16), (64, 0), (0, 8), (-64, 8), (64, -8)])
def test_bad_hpl_sizes_fail_before_any_place_is_forked(n, nb, monkeypatch):
    """Bad sizes once ran to a wrong answer that both backends agreed on (or
    crashed inside every place); now the program build refuses them."""
    from repro.xrt.procs import launcher, run_procs_program

    def no_fork(*args, **kwargs):
        raise AssertionError("a place process was forked")

    monkeypatch.setattr(launcher.multiprocessing, "get_context", no_fork)
    with pytest.raises(KernelError, match="positive size that is a multiple of a positive block"):
        run_procs_program("hpl", 2, params={"n": n, "nb": nb}, deadline=DEADLINE)


@pytest.mark.parametrize("n1,n2", [(0, 16), (16, -16)])
def test_bad_fft_sizes_fail_before_any_place_is_forked(n1, n2, monkeypatch):
    from repro.xrt.procs import launcher, run_procs_program

    def no_fork(*args, **kwargs):
        raise AssertionError("a place process was forked")

    monkeypatch.setattr(launcher.multiprocessing, "get_context", no_fork)
    with pytest.raises(KernelError, match="FFT dimensions must be positive"):
        run_procs_program("fft", 2, params={"n1": n1, "n2": n2}, deadline=DEADLINE)


@pytest.mark.parametrize("params", [{"log2_table": -1}, {"updates_per_place": -5}])
def test_bad_randomaccess_sizes_fail_before_any_place_is_forked(params, monkeypatch):
    """``log2_table=-1`` once raised ``negative shift count`` inside a place,
    and ``updates_per_place=-5`` ran to a checksum."""
    from repro.xrt.procs import launcher, run_procs_program

    def no_fork(*args, **kwargs):
        raise AssertionError("a place process was forked")

    monkeypatch.setattr(launcher.multiprocessing, "get_context", no_fork)
    with pytest.raises(KernelError, match="RandomAccess needs 0 <= log2_table <= 64"):
        run_procs_program("randomaccess", 2, params=params, deadline=DEADLINE)


def test_randomaccess_routes_one_word_per_update():
    """At 2 places every update bound for the other member crosses place 0's
    sockets once, as its 8-byte value: about half of each member's stream,
    so ``bytes_routed`` stays under 8 bytes per update a place plus the
    frames' envelopes (an index beside each value doubled it)."""
    from repro.xrt.procs import run_procs_program

    updates = 1 << 16
    run = run_procs_program(
        "randomaccess", 2, params={"log2_table": 16, "updates_per_place": updates},
        deadline=DEADLINE,
    )
    assert run.bytes_routed < 8 * updates + (16 << 10)


def _finish_async_violated_from_place_1(ctx):
    with ctx.finish(Pragma.FINISH_ASYNC) as f:
        ctx.at_async(1, _second_async)
    yield f.wait()
    return {}


def test_remote_fork_rule_violation_raises_the_simulators_error():
    """A second activity under FINISH_ASYNC, spawned at place 1, reaches the
    home finish as a FORK notice; it is refused with the simulator's text."""
    from repro.runtime import ApgasRuntime
    from repro.xrt.procs import run_procs_program

    with pytest.raises(PragmaError) as sim:
        ApgasRuntime(places=2).run(_finish_async_violated_from_place_1)
    with pytest.raises(PragmaError) as procs:
        run_procs_program(_finish_async_violated_from_place_1, places=2, deadline=20.0)
    assert "governs a single activity" in str(sim.value)
    assert str(procs.value) == str(sim.value)


@pytest.mark.parametrize("where", ["remote", "here"])
@pytest.mark.parametrize("body,expected", [row[1:] for row in CTX_ROWS],
                         ids=[row[0] for row in CTX_ROWS])
def test_ctx_means_the_same_on_both_runtimes_two_places(body, expected, where):
    """The caller of ``ctx.at`` sees the same value or the same exception on
    the simulator and over two real processes — and no place crashes."""
    sim, procs = ctx_outcomes(body, places=2, target=1 if where == "remote" else 0)
    assert sim == procs == expected
