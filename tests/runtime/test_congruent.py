"""Tests for the congruent memory allocator."""

import gc
import weakref

import numpy as np
import pytest

from repro.errors import ApgasError
from repro.runtime import CongruentAllocator
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


def test_symmetric_allocation_same_addresses():
    rt = make_runtime()
    alloc = CongruentAllocator(rt)
    arrays = alloc.alloc_symmetric([0, 4, 8], shape=(64,))
    addresses = {a.address for a in arrays.values()}
    assert len(addresses) == 1


def test_symmetric_allocation_sequence_must_align():
    rt = make_runtime()
    alloc = CongruentAllocator(rt)
    alloc.alloc(0, shape=(1000,))  # place 0's cursor moves ahead
    with pytest.raises(ApgasError, match="diverged"):
        alloc.alloc_symmetric([0, 1], shape=(10,))


def test_successive_symmetric_allocations_stay_congruent():
    rt = make_runtime()
    alloc = CongruentAllocator(rt)
    first = alloc.alloc_symmetric([0, 1], shape=(10,))
    second = alloc.alloc_symmetric([0, 1], shape=(20,))
    assert first[0].address == first[1].address
    assert second[0].address == second[1].address
    assert second[0].address > first[0].address


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
