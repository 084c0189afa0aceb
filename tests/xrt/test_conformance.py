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

from repro.errors import PragmaError
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


#: every kernel at PLACES, and uts at 2: with two places each steals only
#: from the other, the shape that once livelocked over the last piece
_ROWS = [(kernel, PLACES) for kernel in PORTABLE_KERNELS] + [("uts", 2)]


@pytest.mark.parametrize("kernel,places", _ROWS, ids=[f"{k}@{p}" for k, p in _ROWS])
def test_kernel_conformant_sim_vs_procs(kernel, places):
    report = assert_conformant(
        kernel, places, deadline=DEADLINE, **_SMALL.get(kernel, {})
    )
    sim, procs = report.runs
    assert sim.backend == "sim" and procs.backend == "procs"
    assert sim.checksum  # a kernel without a checksum would vacuously pass
    # the procs run really crossed process boundaries
    assert procs.messages_routed > 0


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
    report = run_conformance("stream", PLACES, backends=("sim",), seed=11)
    other = run_conformance("stream", PLACES, backends=("sim",), seed=12)
    report.runs.append(other.runs[0])
    from repro.xrt.conformance import ConformanceReport, deep_equal

    diffs = deep_equal(report.runs[0].result, report.runs[1].result)
    assert diffs  # the two seeds genuinely differ...
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
