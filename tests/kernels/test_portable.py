"""The portable kernel programs, validated against reference implementations.

These run on the simulator backend only (one process, tier-1), checking that
the backend-blind rewrites of :mod:`repro.kernels.portable` compute the same
answers as the sequential reference cores — so the differential conformance
suite (sim vs procs) chases a *correct* target, not merely a consistent one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import KernelError
from repro.kernels.portable import PORTABLE_KERNELS, build_program
from repro.kernels.portable.resilient import build_resilient_program
from repro.xrt.backend import get_backend

PLACES = 4


def _run(kernel: str, places: int = PLACES, **params):
    return get_backend("sim").run(kernel, places, **params)


# -- registry ----------------------------------------------------------------------


def test_registry_covers_all_eight_kernels():
    assert PORTABLE_KERNELS == sorted(
        ["stream", "randomaccess", "fft", "hpl", "uts", "kmeans", "smithwaterman", "bc"]
    )


def test_build_program_rejects_unknown_kernel_and_params():
    with pytest.raises(KernelError, match="choose from"):
        build_program("linpack", 4)
    with pytest.raises(KernelError, match="unknown parameter"):
        build_program("stream", 4, warp_factor=9)


def test_build_resilient_program_rejects_unknown_params():
    with pytest.raises(KernelError, match=r"unknown parameter\(s\) \['warp_factor'\]"):
        build_resilient_program("kmeans", 4, warp_factor=9)


@pytest.mark.parametrize("kernel", PORTABLE_KERNELS)
def test_every_program_runs_and_reports_a_checksum(kernel):
    run = _run(kernel, **({"depth": 5} if kernel == "uts" else {}))
    assert run.backend == "sim"
    assert run.checksum
    # every program opens the root finish plus at least one SPMD/DENSE finish
    assert sum(run.ctl_by_pragma.values()) > 0


# -- per-kernel reference checks ---------------------------------------------------


def test_uts_count_matches_sequential_reference():
    from repro.kernels.uts import sequential_count
    from repro.kernels.uts.tree import UtsParams

    run = _run("uts", depth=6)
    expected = sequential_count(UtsParams(depth=6, b0=4.0, seed=19))
    assert run.result["nodes"] == expected
    assert sum(run.result["_per_place"].values()) == expected


def test_uts_count_invariant_across_place_counts():
    totals = {p: _run("uts", places=p, depth=5).result["nodes"] for p in (1, 3, 4)}
    assert len(set(totals.values())) == 1


class _ScriptedCtx:
    """The slice of ``ctx`` that ``uts_loop`` uses, with a scripted control
    box: each inner list is what one control drain finds."""

    def __init__(self, here: int, n_places: int, drains: list) -> None:
        self.here, self.n_places = here, n_places
        self._drains = [list(d) for d in drains]
        self.sent: list = []

    def try_recv(self, mailbox: str):
        if self._drains and self._drains[0]:
            return True, self._drains[0].pop(0)
        return False, None

    def send(self, dst: int, mailbox: str, item) -> None:
        self.sent.append((dst, item))

    def compute(self, seconds: float):
        self._drains.pop(0)  # the loop yielded: the next drain is a new one
        return None

    sleep = compute


def test_uts_victim_never_hands_over_its_last_piece():
    """The 2-place livelock: a place that has just merged its only loot and
    finds a steal waiting in the same drain used to give the piece straight
    back, so two idle places traded the last intervals forever."""
    from repro.kernels.portable.uts_program import uts_loop
    from repro.kernels.uts.tree import UtsBag, UtsParams

    p = {"b0": 4.0, "depth": 3, "seed": 19, "rng_mode": "splitmix"}
    params = UtsParams(**p)
    state, depth, lo, _hi = UtsBag.root(params).intervals[0]
    singleton = [(state, depth, lo, lo + 1)]
    expected = 0
    reference = UtsBag(params, intervals=list(singleton))
    while not reference.is_empty():
        expected += reference.process(512)

    ctx = _ScriptedCtx(here=1, n_places=2, drains=[
        [("loot", list(singleton), 0), ("steal", 0)],
        [("stop",)],
    ])
    loop = uts_loop(ctx, p)
    with pytest.raises(StopIteration) as done:
        while True:
            next(loop)
    assert ctx.sent == [(0, ("empty",))]
    assert done.value.value == expected >= 1


def test_uts_loot_frame_is_plain_ints_on_the_wire():
    """What a steal reply costs on a real socket: ``("loot", intervals,
    bootstrap)`` with SplitMix states as Python ints pickles to 20.4 bytes an
    interval (30.2 when each state was an ``np.uint64`` scalar)."""
    from repro.kernels.uts import SplitMixRng
    from repro.kernels.uts.tree import UtsBag, UtsParams
    from repro.xrt.procs import wire
    from repro.xrt.serialization import FrameDecoder, encode_frame_parts

    params = UtsParams(b0=4.0, depth=9, seed=19)
    rng = SplitMixRng()
    siblings = rng.children(rng.root_state(params.seed), 0, 64, params.q)
    victim = UtsBag(params, [(st, 1, 0, 4 + i) for i, (st, _) in enumerate(siblings)])
    loot = victim.split()
    assert len(loot.intervals) == 64
    frame = (wire.ITEM, 1, 0, ("uts:ctl", ("loot", loot.intervals, loot._bootstrap)))
    data = b"".join(encode_frame_parts(frame))
    assert FrameDecoder().feed(data) == [frame]
    assert b"numpy" not in data
    assert all(type(v) is int for interval in loot.intervals for v in interval)
    assert len(data) < 24 * 64


def test_kmeans_matches_sequential_reference():
    from repro.kernels.kmeans.kmeans import (
        generate_points,
        initial_centroids,
        kmeans_reference,
    )

    run = _run("kmeans")
    p = {"n_per_place": 256, "dim": 4, "k": 8, "iterations": 5, "seed": 3}
    points = np.vstack(
        [generate_points(p["seed"], place, p["n_per_place"], p["dim"]) for place in range(PLACES)]
    )
    expected = kmeans_reference(points, initial_centroids(p["seed"], p["k"], p["dim"]), p["iterations"])
    np.testing.assert_allclose(run.result["centroids"], expected, rtol=1e-10, atol=1e-12)


def test_smithwaterman_matches_full_sequence_reference():
    from repro.kernels.smithwaterman.sw import random_sequence, sw_score_reference

    run = _run("smithwaterman")
    long_seq = random_sequence(13, "long", 512)
    short = random_sequence(13, "short", 32)
    assert run.result["score"] == sw_score_reference(short, long_seq)
    assert run.result["probe_returned"] is True


def test_smithwaterman_program_and_driver_agree():
    """One program: the program at its defaults and ``simulate`` at matching
    real sizes score the same sequences the same way."""
    from repro.harness.runner import simulate
    from repro.runtime import ApgasRuntime

    main = build_program("smithwaterman", PLACES, target_len=4 * 96, query_len=24, seed=5)
    portable = ApgasRuntime(places=PLACES).run(main)
    driver = simulate(
        "smithwaterman", PLACES, short_len=24, long_per_place=96, iterations=1,
        seed=5, actual_short=24, actual_long=96,
    )
    assert driver.verified
    assert portable["score"] == driver.extra["best_score"] > 0


def test_smithwaterman_score_invariant_across_place_counts():
    scores = {p: _run("smithwaterman", places=p).result["score"] for p in (2, 4)}
    assert len(set(scores.values())) == 1


def test_fft_matches_numpy_spectrum():
    from repro.kernels.fft import fft_input

    run = _run("fft")
    x = fft_input(5, 16, 16).reshape(-1)
    np.testing.assert_allclose(run.result["spectrum"], np.fft.fft(x), rtol=1e-9, atol=1e-9)


def test_fft_program_and_driver_agree():
    """One program: the program at its defaults and ``simulate`` transform the
    same input to the same spectrum bits, at an uneven row split too."""
    from repro.harness.runner import simulate

    for places in (PLACES, 3):
        run = _run("fft", places, n1=16, n2=32, seed=8)
        driver = simulate("fft", places, n1=16, n2=32, seed=8, modeled_elements_per_place=None)
        assert driver.verified
        assert run.checksum == driver.extra["checksum"]


@pytest.mark.parametrize("n1,n2", [(0, 16), (16, 0), (-16, 16)])
def test_fft_program_rejects_bad_sizes(n1, n2):
    from repro.harness.runner import simulate

    with pytest.raises(KernelError, match="FFT dimensions must be positive"):
        _run("fft", 2, n1=n1, n2=n2)
    with pytest.raises(KernelError, match="FFT dimensions must be positive"):
        simulate("fft", 2, n1=n1, n2=n2)


def test_hpl_reconstruction_residual_is_tiny():
    run = _run("hpl")
    assert run.result["n"] == 64
    assert run.result["residual"] < 1e-10


@pytest.mark.parametrize("n,nb", [(50, 16), (64, 0), (0, 8), (-64, 8), (64, -8)])
def test_hpl_program_rejects_bad_sizes(n, nb):
    with pytest.raises(KernelError, match="positive size that is a multiple of a positive block"):
        _run("hpl", 2, n=n, nb=nb)


def test_bc_matches_full_source_brandes():
    from repro.kernels.bc.brandes import brandes_betweenness
    from repro.kernels.bc.rmat import rmat_graph

    run = _run("bc")
    graph = rmat_graph(7, edge_factor=8, seed=2)
    expected = brandes_betweenness(graph, sources=range(graph.n)) / 2.0
    np.testing.assert_allclose(run.result["centrality"], expected, rtol=1e-10, atol=1e-12)


def _ra_replay_checksum(places: int, log2_table: int, updates: int) -> str:
    """The whole update stream XORed into one table by ``bitwise_xor.at``,
    digested member by member over the table bounds ``size*q//places``."""
    import hashlib

    from repro.harness.results import checksum_bytes
    from repro.kernels.randomaccess.hpcc_rng import stream_slice_fast

    size = 1 << log2_table
    table = np.arange(size, dtype=np.uint64)
    values = stream_slice_fast(0, updates * places)
    np.bitwise_xor.at(table, (values & np.uint64(size - 1)).astype(np.int64), values)
    bounds = [size * q // places for q in range(places + 1)]
    return checksum_bytes(
        *(hashlib.sha256(table[bounds[q] : bounds[q + 1]]).digest() for q in range(places))
    )


def test_randomaccess_matches_direct_xor_replay():
    """At every place count, tables smaller than the place count included
    (log2_table=2): a slot on a member's lower bound ``size*q//P`` once went
    to the member below and raised IndexError there."""
    for places in (1, 2, 3, 5, 6, 7):
        for log2_table in (2, 12):
            run = _run("randomaccess", places, log2_table=log2_table, updates_per_place=512)
            assert run.checksum == _ra_replay_checksum(places, log2_table, 512), (places, log2_table)


def test_randomaccess_charges_the_gups_engine_per_update():
    """On the simulator every update, a member's own too, is one 16-byte
    update (index and operand) of the GUPS engine, in one batch a destination
    octant: at 2 and 4 places, one octant, one batch a member.  The wire
    carries only the 8-byte value (procs: ``test_randomaccess_routes_one_word_per_update``)."""
    from repro.runtime import ApgasRuntime

    for places in (2, 4):
        rt = ApgasRuntime(places=places)
        rt.run(build_program("randomaccess", places, updates_per_place=4096))
        metrics = rt.obs.metrics.snapshot()
        assert metrics.get("net.messages", kind="gups") == places
        assert metrics.get("net.bytes", kind="gups") == 16 * 4096 * places


@pytest.mark.parametrize("params", [{"log2_table": -1}, {"log2_table": 65}, {"updates_per_place": -5}])
def test_randomaccess_program_rejects_bad_sizes(params):
    with pytest.raises(KernelError, match="RandomAccess needs 0 <= log2_table <= 64"):
        _run("randomaccess", 2, **params)


def test_stream_is_deterministic_for_a_fixed_seed():
    a, b = _run("stream"), _run("stream")
    assert a.checksum == b.checksum


def test_stream_program_and_driver_agree():
    """One program: the program at its defaults and ``simulate`` at matching
    real sizes leave the same arrays at every member."""
    from repro.harness.runner import simulate

    for places in (PLACES, 3):
        run = _run("stream", places, n_per_place=1000, iterations=3, alpha=2.5)
        driver = simulate("stream", places, elements_per_place=1000, iterations=3, alpha=2.5)
        assert driver.verified and run.result["verified"]
        assert run.checksum == driver.extra["checksum"]


# -- finish-pragma accounting on the simulator -------------------------------------


def test_spmd_programs_count_one_join_per_remote_place():
    run = _run("stream")
    assert run.ctl_by_pragma["finish_spmd"] == PLACES - 1
    assert run.ctl_by_pragma["default"] == 0  # the root finish is home-only


def test_smithwaterman_exercises_every_pragma():
    ctl = _run("smithwaterman").ctl_by_pragma
    assert set(ctl) == {"default", "finish_spmd", "finish_local", "finish_async", "finish_here"}
    assert ctl["finish_local"] == 0
    assert ctl["finish_async"] == 1
    assert ctl["finish_here"] == 1
