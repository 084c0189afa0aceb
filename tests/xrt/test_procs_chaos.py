"""Wall-clock fault tolerance for the procs backend: real kills, real recovery.

The acceptance gate of the resilient procs backend (DESIGN.md §14): a chaos
spec SIGKILLs a place's *actual OS process* mid-run, the launcher's failure
detector notices (EOF or missed heartbeats), and

* **strict** runs fail fast with a structured error naming the dead place —
  never by riding out the deadline;
* **resilient** runs respawn a fresh process and recover through epoch
  checkpoint/restore to the *bit-identical* fault-free checksum.

Also here: the heartbeat detector's false-positive regression (slow but
alive is not dead), hung-but-connected detection (alive but silent *is*
dead), and the no-orphans sweep against the live process table.

These fork and kill real processes (``procs`` marker; run by the kill-matrix
step of the ``tests`` CI job, or locally with ``pytest -m procs tests/xrt``).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.errors import ChaosError, DeadPlaceError, ProcsError
from repro.xrt.conformance import run_recovery_conformance
from repro.xrt.procs import run_procs_program

pytestmark = pytest.mark.procs

PLACES = 4
DEADLINE = 60.0

#: the kill matrix: (kernel, params, chaos spec).  Kill times are tuned to
#: land mid-run on these small problem sizes — kmeans/stream epochs take
#: single-digit milliseconds, UTS a few tens — so each entry has been
#: verified to actually produce a death (the conformance differ *fails* a
#: run whose kill never landed, keeping this matrix honest).
KILL_MATRIX = [
    ("kmeans", {}, "seed=1,kill=2@0.002"),
    ("kmeans", {}, "seed=2,kill=3@0.005"),
    ("stream", {}, "seed=1,kill=2@0.002"),
    ("stream", {}, "seed=3,kill=1@0.004"),
    ("uts", {"depth": 7}, "seed=1,kill=2@0.01"),
    ("uts", {"depth": 7}, "seed=4,kill=3@0.015"),
    # a kill racing the very first restore wave: the death can land after the
    # wave's spawns, when only place 0's death set still says "revive me"
    ("kmeans", {}, "seed=5,kill=1@0.0"),
]


# -- process-table hygiene (shared with test_procs_cleanup) ------------------------


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
        if fields[3] == me and fields[2] != "Z":
            pids.append(int(pid))
    return pids


def _assert_no_orphans(before: list) -> None:
    for _ in range(50):
        leaked = [p for p in _live_children() if p not in before]
        if not leaked:
            return
        time.sleep(0.1)
    raise AssertionError(f"orphan place processes left behind: {leaked}")


# -- recovery: killed run == fault-free run ----------------------------------------


@pytest.mark.parametrize(
    "kernel,params,chaos", KILL_MATRIX, ids=[f"{k}-{c}" for k, _, c in KILL_MATRIX]
)
def test_killed_run_recovers_to_fault_free_checksum(kernel, params, chaos):
    before = _live_children()
    report = run_recovery_conformance(
        kernel, PLACES, chaos=chaos, deadline=DEADLINE, **params
    )
    assert report.conformant, report.render()
    recovered = report.runs[1]
    # the recovery machinery really ran: a death was detected, a fresh OS
    # process was forked for the dead place, and the run still finished
    assert recovered.deaths, "conformant but no death recorded?"
    assert recovered.revivals >= 1
    assert recovered.frames_dropped >= 0  # counted, never silent
    assert recovered.result["_resilient"]["revivals"] >= 1
    _assert_no_orphans(before)


def test_recovery_report_names_the_killed_place_and_signal():
    report = run_recovery_conformance(
        "kmeans", PLACES, chaos="seed=1,kill=2@0.002", deadline=DEADLINE
    )
    assert report.conformant, report.render()
    deaths = report.runs[1].deaths
    assert any(d["place"] == 2 for d in deaths)
    assert any("SIGKILL" in d["cause"] for d in deaths)


# -- strict mode: structured failure, never a deadline hang ------------------------


#: the strict rows.  Plain ``stream`` has often joined by 2 ms (its mid-run row
#: raised in only 15 and 17 of 24 runs), and a wall-clock time cannot name a protocol
#: state; ``kill=p@0.0`` can: the launcher queues the kill before ``main``'s
#: first step, so the place is dead before any spawn to it can join.
STRICT_MATRIX = [
    ("kmeans", {}, "seed=1,kill=2@0.002"),
    ("kmeans", {}, "seed=2,kill=3@0.005"),
    ("stream", {}, "seed=1,kill=2@0.0"),
]


@pytest.mark.parametrize("kernel,params,chaos", STRICT_MATRIX,
                         ids=[f"{k}-{c}" for k, _, c in STRICT_MATRIX])
def test_strict_kill_fails_fast_naming_the_dead_place(kernel, params, chaos):
    """Without ``--resilient`` the same kill must surface as a structured
    DeadPlaceError/ProcsError naming place ``p`` — well before the deadline."""
    before = _live_children()
    killed = int(chaos.split("kill=")[1].split("@")[0])
    t0 = time.monotonic()
    with pytest.raises((DeadPlaceError, ProcsError)) as excinfo:
        run_procs_program(kernel, PLACES, params=params, deadline=DEADLINE,
                          chaos=chaos)
    elapsed = time.monotonic() - t0
    assert elapsed < DEADLINE / 2, f"death took {elapsed:.1f}s to surface"
    assert f"place {killed}" in str(excinfo.value)
    _assert_no_orphans(before)


# -- heartbeat detector: no false positives, real positives ------------------------


def _grind(ctx, duration):
    """Busy for ``duration`` wall seconds, but *cooperatively*: every slice
    yields back to the place's socket loop, which answers PINGs."""
    t0 = time.monotonic()
    while time.monotonic() - t0 < duration:
        yield ctx.compute(seconds=0.0)
    ctx.send(0, "ground", ctx.here)


def slow_but_alive_main(ctx):
    with ctx.finish() as f:
        for place in range(1, ctx.n_places):
            ctx.at_async(place, _grind, 1.5)
    yield f.wait()
    seen = []
    for _ in range(ctx.n_places - 1):
        seen.append((yield ctx.recv("ground")))
    return {"checksum": "alive", "seen": sorted(seen)}


def test_slow_but_alive_place_is_not_declared_dead():
    """The false-positive regression: places grinding for many multiples of
    the heartbeat timeout keep answering PINGs from their socket loop, so
    the detector must not kill them."""
    report = run_procs_program(
        slow_but_alive_main, places=3, deadline=30.0,
        resilient=True,  # arms the failure detector; callable main rides as-is
        heartbeat_interval=0.05, heartbeat_timeout=0.4,
    )
    assert report.deaths == []
    assert report.revivals == 0
    assert report.result["seen"] == [1, 2]


def _seize(ctx):
    """Block the whole child process — no yields, so the socket loop starves
    and PINGs go unanswered: connected, but hung."""
    time.sleep(30.0)
    yield ctx.compute()  # pragma: no cover - killed long before this


def hung_place_main(ctx):
    with ctx.finish() as f:
        ctx.at_async(2, _seize)
    yield f.wait()
    return {}


def test_hung_but_connected_place_is_detected_and_killed():
    before = _live_children()
    t0 = time.monotonic()
    with pytest.raises(DeadPlaceError, match="place 2") as excinfo:
        run_procs_program(
            hung_place_main, places=3, deadline=25.0,
            chaos="kill=1@60",  # never fires; arms the detector strictly
            heartbeat_interval=0.1, heartbeat_timeout=0.8,
        )
    elapsed = time.monotonic() - t0
    # detected by heartbeat timeout, not by the sleep ending or the deadline
    assert elapsed < 10.0, f"hung place took {elapsed:.1f}s to detect"
    assert "no heartbeat" in str(excinfo.value)
    _assert_no_orphans(before)  # the hung process was killed, not leaked


# -- spec-time validation (satellite: shared with serve) ---------------------------


def test_chaos_kill_of_place_zero_is_rejected_before_forking():
    before = _live_children()
    with pytest.raises(ChaosError, match="place 0"):
        run_procs_program("kmeans", PLACES, chaos="kill=0@0.1")
    assert _live_children() == before  # refused at spec time: nothing forked


def test_chaos_transport_faults_are_rejected_on_procs():
    with pytest.raises(ChaosError, match="procs"):
        run_procs_program("kmeans", PLACES, chaos="drop=0.5,kill=2@0.1")


# -- the CLI acceptance path -------------------------------------------------------


def _run_cli(*argv):
    import io

    from repro.cli import main

    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_cli_chaos_resilient_run_completes_and_reports_recovery():
    code, text = _run_cli(
        "run", "kmeans", "--places", "4", "--backend", "procs",
        "--chaos", "seed=1,kill=2@0.002", "--resilient",
    )
    assert code == 0
    assert "chaos         : seed=1,kill=2@0.002" in text
    assert "deaths        : 2@" in text  # the kill landed, attributed to place 2
    assert "respawns" in text


def test_cli_chaos_without_resilient_fails_structured_and_fast():
    t0 = time.monotonic()
    code, text = _run_cli(
        "run", "kmeans", "--places", "4", "--backend", "procs",
        "--chaos", "seed=1,kill=2@0.002",
    )
    elapsed = time.monotonic() - t0
    assert code == 1
    assert "failed" in text and "place 2" in text
    assert elapsed < 30.0, f"strict failure took {elapsed:.1f}s (deadline hang?)"
