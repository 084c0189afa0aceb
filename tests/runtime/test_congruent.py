"""Tests for the congruent memory allocator."""

import gc
import weakref

import numpy as np
import pytest

from repro.errors import ApgasError
from repro.runtime import CongruentAllocator
from repro.runtime.broadcast import broadcast_gather
from repro.xrt.rdma import tlb_factor

from tests.runtime.conftest import make_runtime


def test_alloc_returns_registered_array():
    rt = make_runtime()
    alloc = CongruentAllocator(rt)
    arr = alloc.alloc(3, shape=(100,), dtype=np.float64)
    assert rt.registry.is_registered(arr.region)
    assert arr.place == 3
    assert arr.nbytes == 800
    assert arr.data.shape == (100,)


def test_registry_does_not_keep_a_dropped_array_alive():
    """Dropping a congruent array frees its region and its NumPy buffer while
    the runtime lives on; a live array stays registered."""
    rt = make_runtime()
    alloc = CongruentAllocator(rt)
    kept = alloc.alloc(1, shape=(1000,))
    dropped = alloc.alloc(1, shape=(1000,))
    region, buffer = weakref.ref(dropped.region), weakref.ref(dropped.data)
    del dropped
    gc.collect()
    assert region() is None and buffer() is None
    assert rt.registry.is_registered(kept.region)
    rt.registry.check(kept.region, 1)


def _two_tables(ctx, team, words):
    """A member's share of two symmetric tables: ``words[rank]`` slots of
    ``"t"``, then 16 of ``"u"``; their addresses."""
    first = ctx.congruent("t", words[team.rank(ctx.here)])
    second = ctx.congruent("u", 16)
    return first.address, second.address


def test_members_tables_of_one_key_share_an_address():
    """``ctx.congruent`` is the symmetric allocation programs run: members
    that allocate the same sequence get one address a key, uneven shares
    (341 and 342 slots of a 1,024-slot table) included, and the next key
    the next page."""
    def main(ctx):
        team = ctx.team(ctx.places())
        return (yield from broadcast_gather(ctx, team, _two_tables, team, [341, 341, 342]))

    rt = make_runtime(places=3)
    addresses = rt.run(main)
    assert len(set(addresses)) == 1
    first, second = addresses[0]
    assert second - first == rt.config.large_page_bytes


def test_addresses_are_page_aligned():
    rt = make_runtime()
    alloc = CongruentAllocator(rt, large_pages=True)
    a = alloc.alloc(0, shape=(10,))
    b = alloc.alloc(0, shape=(10,))
    page = rt.config.large_page_bytes
    assert a.address % page == 0
    assert b.address % page == 0
    assert b.address - a.address >= page


def test_large_pages_shrink_tlb_pressure():
    rt = make_runtime()
    cfg = rt.config
    large = CongruentAllocator(rt, large_pages=True).alloc(
        0, nbytes=2 << 30, materialize=False
    )
    small = CongruentAllocator(rt, large_pages=False).alloc(
        0, nbytes=2 << 30, materialize=False
    )
    assert large.region.pages < small.region.pages
    assert tlb_factor(cfg, large.region, random_access=True) == 1.0
    assert tlb_factor(cfg, small.region, random_access=True) > 1.0


def test_model_only_array_has_no_data():
    rt = make_runtime()
    alloc = CongruentAllocator(rt)
    arr = alloc.alloc(0, nbytes=1 << 30, materialize=False)
    assert not arr.materialized
    with pytest.raises(ApgasError, match="model-only"):
        arr.data


def test_materialized_raw_nbytes_rejected():
    rt = make_runtime()
    alloc = CongruentAllocator(rt)
    with pytest.raises(ApgasError, match="shape"):
        alloc.alloc(0, nbytes=100, materialize=True)


def test_alloc_requires_shape_or_nbytes():
    rt = make_runtime()
    with pytest.raises(ApgasError, match="shape or nbytes"):
        CongruentAllocator(rt).alloc(0)


def test_regular_arrays_unaffected():
    """Productivity claim: ordinary data is not affected by the allocator."""
    rt = make_runtime()
    alloc = CongruentAllocator(rt)
    congruent = alloc.alloc(0, shape=(8,))
    regular = np.arange(8.0)
    congruent.data[:] = regular
    np.testing.assert_array_equal(congruent.data, regular)
