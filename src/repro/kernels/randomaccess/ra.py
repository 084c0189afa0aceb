"""Global RandomAccess (paper Section 5.1).

The table is distributed across all places; any update is likely to target a
remote place.  The implementation takes advantage of congruent memory
allocation — a distributed array backed by large pages with the per-place
fragment at the same address in each place — and uses the Torrent's "GUPS"
RDMA feature for the remote XOR updates.

Verification follows HPCC: applying the same update stream twice returns the
table to its initial state (XOR is an involution and commutes), so the error
count after a double run must be zero.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import KernelError
from repro.harness.results import KernelResult
from repro.kernels.randomaccess.hpcc_rng import stream_slice_fast
from repro.runtime import CongruentAllocator, PlaceGroup, broadcast_spawn
from repro.runtime.runtime import ApgasRuntime


def run_randomaccess(
    rt: ApgasRuntime,
    table_words_per_place: int,
    updates_per_place: Optional[int] = None,
    batch: int = 1024,
    large_pages: bool = True,
    materialize: bool = True,
    verify: bool = True,
    model_updates_factor: float = 1.0,
) -> KernelResult:
    """Distributed GUPS over every place.

    ``table_words_per_place`` must be a power of two (HPCC requirement);
    ``updates_per_place`` defaults to 4x the table size.  ``materialize=False``
    runs the full traffic model without allocating the real table (used by the
    at-scale benchmarks; implies ``verify=False``).

    ``model_updates_factor``: each simulated update stands for this many real
    updates — message counts stay the same (a larger aggregation buffer) while
    engine occupancy, wire bytes, and the reported update total scale.  The
    at-scale benchmarks use it to model the HPCC-mandated 4x-table update
    stream without generating 2^30 indices per place.
    """
    t = table_words_per_place
    if t < 1 or t & (t - 1):
        raise KernelError("table size per place must be a power of two")
    pg = PlaceGroup.world(rt)
    places = list(pg)
    n_places = len(places)
    total_words = t * n_places
    n_updates = 4 * t if updates_per_place is None else updates_per_place
    if rt.rdma is None:
        raise KernelError("RandomAccess requires an RDMA-capable transport")
    verify = verify and materialize

    alloc = CongruentAllocator(rt, large_pages=large_pages)
    regions = alloc.alloc_symmetric(
        places,
        shape=(t,) if materialize else None,
        dtype=np.uint64,
        nbytes=None if materialize else 8 * t,
        materialize=materialize,
    )
    if materialize:
        for p, arr in regions.items():
            arr.data[:] = np.arange(p * t, (p + 1) * t, dtype=np.uint64)
    initial = {p: regions[p].data.copy() for p in regions} if verify else None

    mask = np.uint64(total_words - 1)
    shift = np.uint64(int(np.log2(t)))
    passes = 2 if verify else 1
    # partition index (= owning place) -> owning octant; the octant "master"
    # is its first place, exactly ``master_place_of_octant``
    octant_of_place = np.array([rt.topology.octant_of(p) for p in places], dtype=np.int64)
    octant_master: dict[int, int] = {}
    for p in places:
        octant_master.setdefault(rt.topology.octant_of(p), p)

    def body(ctx):
        me = ctx.here
        # the whole slice of the global update stream owned by this place,
        # generated once up front (HPCC_starts jump-ahead + vector advance)
        pass_stream = stream_slice_fast(me * n_updates, n_updates)
        for _ in range(passes):
            done = 0
            in_flight = []
            while done < n_updates:
                n = min(batch, n_updates - done)
                stream = pass_stream[done : done + n]
                done += n
                indices = (stream & mask).astype(np.uint64)
                dest = (indices >> shift).astype(np.int64)
                # local index generation cost: one pass over the batch
                yield ctx.compute(
                    mem_bytes=16 * n * model_updates_factor,
                    mem_bw=rt.config.place_stream_bandwidth,
                )
                if materialize:
                    for q in np.unique(dest):
                        sel = dest == q
                        local = (indices[sel] & np.uint64(t - 1)).astype(np.int64)
                        np.bitwise_xor.at(
                            regions[int(q)].data, local, stream[sel]
                        )
                # wire traffic: updates are aggregated per destination *octant*
                # at the hub (the GUPS engine batches across a node's places)
                dest_octant = octant_of_place[dest]
                for o in np.unique(dest_octant):
                    count = int((dest_octant == o).sum() * model_updates_factor)
                    master = octant_master[int(o)]
                    # fire-and-forget: the GUPS engine pipelines batches
                    in_flight.append(rt.rdma.gups(me, regions[master].region, count))
            for ev in in_flight:  # drain the pass before the verification pass
                yield ev

    def main(ctx):
        yield from broadcast_spawn(ctx, pg, body)

    rt.run(main)

    errors = None
    if verify:
        errors = sum(
            int(np.count_nonzero(regions[p].data != initial[p])) for p in regions
        )
    total_updates = n_updates * n_places * passes * model_updates_factor
    gups = total_updates / rt.now
    hosts = len(octant_master)
    return KernelResult(
        kernel="randomaccess",
        places=n_places,
        sim_time=rt.now,
        value=gups,
        unit="up/s",
        per_core=gups / hosts,  # the paper reports Gup/s per *host*
        verified=(errors == 0) if verify else None,
        extra={"errors": errors, "updates": total_updates, "hosts": hosts},
    )


def ra_modelled(places: int, config, **kw) -> dict:
    """``simulate``'s keywords: a 2 GB table a place; each update of a
    sampled slice models its share of the full 4x-table stream."""
    kw.setdefault("table_words_per_place", 1 << 28)
    kw.setdefault("updates_per_place", 8192)
    kw.setdefault("materialize", False)
    kw.setdefault("model_updates_factor", 4 * kw["table_words_per_place"] / kw["updates_per_place"])
    return kw
