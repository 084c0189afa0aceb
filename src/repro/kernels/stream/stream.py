"""EP Stream Triad: ``a = b + alpha * c`` (paper Section 5.1).

A straightforward SPMD code: the main activity launches an activity at every
place using a PlaceGroup broadcast; these allocate and initialize the local
arrays, perform the computation, and verify the results.  Backing storage uses
huge pages (congruent allocator) for efficient TLB usage.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import KernelError
from repro.harness.results import KernelResult, checksum_bytes
from repro.machine.memory import stream_bw_per_place
from repro.resilient import run_resilient_epochs
from repro.runtime import CongruentAllocator, PlaceGroup, broadcast_spawn
from repro.runtime.runtime import ApgasRuntime

#: triad traffic per element: read b, read c, write a
BYTES_PER_ELEMENT = 24


def triad(a: np.ndarray, b: np.ndarray, c: np.ndarray, alpha: float) -> None:
    """The triad itself, in place: ``a[:] = b + alpha * c``."""
    np.multiply(c, alpha, out=a)
    np.add(a, b, out=a)


def build_stream(
    rt: ApgasRuntime,
    elements_per_place: int,
    iterations: int = 10,
    alpha: float = 3.0,
    actual_elements: Optional[int] = None,
    verify: bool = True,
    resilient: bool = False,
    group: Optional[PlaceGroup] = None,
):
    """Build the Stream program over ``group`` (default: the whole machine).

    Returns ``(main, finalize)``: ``main`` is an embeddable activity body
    (the serving layer spawns many of these inside one engine drain) and
    ``finalize()`` computes the :class:`KernelResult` once it has run.
    Arrays are initialized by group *rank*, so the result depends only on
    the parameters and the group width — not on which places ran it.

    ``elements_per_place`` sizes the *modeled* arrays (time charges);
    ``actual_elements`` (default: capped at 65,536) sizes the real arrays the
    kernel actually computes on and verifies — so at-scale runs do not
    allocate terabytes.

    With ``resilient`` each triad round is a checkpoint epoch.  The arrays
    are recomputable from their init formulas and the triad is idempotent,
    so recovery re-*initializes* a revived place's partition instead of
    restoring bytes: an epoch's blob is only its number.
    """
    if elements_per_place < 1 or iterations < 1:
        raise KernelError("need at least one element and one iteration")
    pg = PlaceGroup.world(rt) if group is None else group
    places = list(pg)
    n_places = len(places)
    rank_of = {p: i for i, p in enumerate(places)}
    if resilient and places != list(range(rt.n_places)):
        raise KernelError("resilient stream requires the whole-machine place group")
    real_n = min(elements_per_place, 65_536) if actual_elements is None else actual_elements
    cfg = rt.config
    alloc = CongruentAllocator(rt, large_pages=True)
    failures: list[int] = []
    arrays: dict[int, tuple] = {}

    def init_partition(place):
        bw = stream_bw_per_place(cfg, rt.topology.crowd(place))
        # allocate and initialize the local arrays (huge pages)
        a = alloc.alloc(place, shape=(real_n,))
        b = alloc.alloc(place, shape=(real_n,))
        c = alloc.alloc(place, shape=(real_n,))
        b.data[:] = 1.0 + rank_of[place]
        c.data[:] = 2.0
        arrays[place] = (a, b, c, bw)

    def round_(ctx):
        a, b, c, bw = arrays[ctx.here]
        triad(a.data, b.data, c.data, alpha)
        yield ctx.compute(mem_bytes=BYTES_PER_ELEMENT * elements_per_place, mem_bw=bw)

    def check(place):
        a, b, c, _bw = arrays[place]
        if verify:
            expected = b.data + alpha * c.data
            if not np.array_equal(a.data, expected):
                failures.append(place)

    if resilient:
        if rt.chaos is not None:
            # a respawned place comes up with empty memory
            rt.chaos.subscribe_revive(lambda p: arrays.pop(p, None))

        def restore(ctx, committed_epoch, blob):
            if committed_epoch < 0 or ctx.here not in arrays:
                init_partition(ctx.here)
            # the triad is idempotent: surviving arrays need no rollback

        def epoch_body(ctx, epoch, tag):
            yield from round_(ctx)
            return epoch

        def main(ctx):
            yield from run_resilient_epochs(ctx, iterations, epoch_body, restore)
            for place in arrays:
                check(place)

    else:

        def body(ctx):
            init_partition(ctx.here)
            for _ in range(iterations):
                yield from round_(ctx)
            check(ctx.here)

        def main(ctx):
            yield from broadcast_spawn(ctx, pg, body)

    def finalize(elapsed: Optional[float] = None) -> KernelResult:
        t = rt.now if elapsed is None else elapsed
        total_bytes = BYTES_PER_ELEMENT * elements_per_place * iterations * n_places
        rate = total_bytes / t if t > 0 else 0.0
        checksum = checksum_bytes(
            *(np.ascontiguousarray(arrays[p][0].data) for p in places if p in arrays)
        )
        return KernelResult(
            kernel="stream",
            places=n_places,
            sim_time=t,
            value=rate,
            unit="B/s",
            per_core=rate / n_places,
            verified=(not failures) if verify else None,
            extra={"failures": failures, "iterations": iterations, "checksum": checksum},
        )

    return main, finalize


def run_stream(rt: ApgasRuntime, *args, **kwargs) -> KernelResult:
    """Weak-scaling Stream Triad: build with :func:`build_stream`, run, finalize."""
    main, finalize = build_stream(rt, *args, **kwargs)
    rt.run(main)
    return finalize()
