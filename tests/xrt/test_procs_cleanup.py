"""Timeout and cleanup hardening for the procs backend (satellite 4).

A crashed child place must fail the root finish promptly with the child's
traceback; a hung child must trip the launcher's wall-clock deadline; and in
every case all place processes must be reaped — no orphans survive, which we
verify against the live process table.

These fork real place processes (``procs`` marker; run by the procs step of
the ``tests`` CI job, or locally with ``pytest -m procs tests/xrt``).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.errors import ProcsError, ProcsTimeoutError
from repro.xrt.procs import run_procs_program

pytestmark = pytest.mark.procs


def _live_children() -> list:
    """PIDs of this process's live children, from the process table."""
    me = str(os.getpid())
    pids = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().split()
        except OSError:
            continue  # raced with exit
        # stat fields: pid (comm) state ppid ...; a zombie is reaped-pending,
        # which join() resolves, so only count genuinely running children
        if fields[3] == me and fields[2] != "Z":
            pids.append(int(pid))
    return pids


def _assert_no_orphans(before: list) -> None:
    # the reaper joins children before run_procs_program returns, but give
    # the kernel a beat to clear the table on loaded machines
    for _ in range(50):
        leaked = [p for p in _live_children() if p not in before]
        if not leaked:
            return
        time.sleep(0.1)
    raise AssertionError(f"orphan place processes left behind: {leaked}")


# -- programs under test (module-level: children resolve them by reference) --------


def _boom(ctx):
    yield ctx.compute()
    raise ValueError(f"kaboom at place {ctx.here}")


def crash_main(ctx):
    with ctx.finish() as f:
        ctx.at_async(1, _boom)
    yield f.wait()
    return {}


def _hang(ctx):
    yield ctx.recv("a-mailbox-nobody-writes")


def hang_main(ctx):
    with ctx.finish() as f:
        ctx.at_async(1, _hang)
    yield f.wait()
    return {}


def _fine(ctx):
    yield ctx.compute()
    ctx.send(0, "ok", ctx.here)


def healthy_main(ctx):
    with ctx.finish() as f:
        for place in range(1, ctx.n_places):
            ctx.at_async(place, _fine)
    yield f.wait()
    seen = set()
    for _ in range(ctx.n_places - 1):
        seen.add((yield ctx.recv("ok")))
    return {"checksum": "ok", "seen": sorted(seen)}


# -- the tests ---------------------------------------------------------------------


def test_crashed_child_fails_the_run_with_its_traceback():
    before = _live_children()
    t0 = time.monotonic()
    with pytest.raises(ProcsError, match="kaboom at place 1") as excinfo:
        run_procs_program(crash_main, places=3, deadline=30.0)
    elapsed = time.monotonic() - t0
    # the crash propagates via a CRASH frame, not via the deadline
    assert elapsed < 10.0, f"crash took {elapsed:.1f}s to surface"
    assert "ValueError" in str(excinfo.value)  # the child's real traceback
    _assert_no_orphans(before)


def test_hung_child_trips_the_deadline():
    before = _live_children()
    deadline = 3.0
    t0 = time.monotonic()
    with pytest.raises(ProcsTimeoutError):
        run_procs_program(hang_main, places=3, deadline=deadline)
    elapsed = time.monotonic() - t0
    assert deadline <= elapsed < deadline + 5.0, f"deadline fired at {elapsed:.1f}s"
    _assert_no_orphans(before)


def test_healthy_run_reaps_everything_too():
    before = _live_children()
    report = run_procs_program(healthy_main, places=4, deadline=30.0)
    assert report.result["seen"] == [1, 2, 3]
    _assert_no_orphans(before)


def test_back_to_back_runs_do_not_accumulate_processes():
    before = _live_children()
    for _ in range(3):
        run_procs_program(healthy_main, places=3, deadline=30.0)
    _assert_no_orphans(before)
