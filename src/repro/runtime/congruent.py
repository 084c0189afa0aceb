"""The congruent memory allocator (paper Section 3.3).

RDMA and hardware collectives require memory segments registered with the
network hardware, and the initiating task must know the effective address of
both source and destination segments.  The congruent allocator returns arrays
backed by registered segments (outside the garbage collector's control); one
bump cursor a place, so places that perform the same allocation sequence get
the same sequence of addresses (``ctx.congruent``'s symmetric tables).
Segments are backed by large pages when enabled, minimizing hub TLB entries —
essential for RandomAccess.

The remote XOR of ``ctx.gups`` targets a *symmetric table*: one ``uint64``
segment a member, all kept under the same ``ctx.store`` key (the congruent
address), member ``r`` holding the slots ``bounds[r]`` up to
``bounds[r + 1]`` of one global table.  :func:`sort_by_owner` groups a
batch of update values by owner and :func:`xor_into` applies one owner's
share; both runtimes use them, so an update lands in the same slot on either.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import ApgasError
from repro.xrt.rdma import MemRegion

#: congruent segments live in their own reserved part of the address space
_BASE_ADDRESS = 0x7F00_0000_0000


class CongruentArray:
    """A registered array: numpy data (optional) + its network memory region.

    ``data`` may be ``None`` for *model-only* arrays: at-scale benchmark runs
    account for a 2 GB-per-place table's transfer behavior without allocating
    terabytes of host memory.  Element access then raises.
    """

    def __init__(self, region: MemRegion, data: Optional[np.ndarray]) -> None:
        self.region = region
        self._data = data

    @property
    def place(self) -> int:
        return self.region.place

    @property
    def address(self) -> int:
        return self.region.address

    @property
    def nbytes(self) -> int:
        return self.region.nbytes

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            raise ApgasError(
                "model-only congruent array has no backing data; allocate with "
                "materialize=True to access elements"
            )
        return self._data

    @property
    def materialized(self) -> bool:
        return self._data is not None


class CongruentAllocator:
    """Bump allocator of registered segments, one cursor a place."""

    def __init__(self, rt, large_pages: bool = True) -> None:
        self.rt = rt
        self.large_pages = large_pages
        self.page_bytes = (
            rt.config.large_page_bytes if large_pages else rt.config.small_page_bytes
        )
        self._next_address: dict[int, int] = {}

    def alloc(
        self,
        place: int,
        shape=None,
        dtype=np.float64,
        nbytes: Optional[int] = None,
        materialize: bool = True,
    ) -> CongruentArray:
        """Allocate and register one segment at ``place``.

        Pass ``shape``/``dtype`` for a real numpy-backed array, or ``nbytes``
        with ``materialize=False`` for a model-only segment.
        """
        self.rt.place(place)  # validate
        if shape is not None:
            data = np.zeros(shape, dtype=dtype) if materialize else None
            size = int(np.prod(np.atleast_1d(shape))) * np.dtype(dtype).itemsize
        elif nbytes is not None:
            if materialize:
                raise ApgasError("materialized arrays need a shape, not raw nbytes")
            data, size = None, int(nbytes)
        else:
            raise ApgasError("alloc needs shape or nbytes")

        address = self._bump(place, size)
        region = MemRegion(
            place=place, nbytes=size, page_bytes=self.page_bytes, address=address, data=data
        )
        self.rt.registry.register(region)
        return CongruentArray(region, data)

    def _bump(self, place: int, size: int) -> int:
        aligned = -(-size // self.page_bytes) * self.page_bytes
        address = self._next_address.get(place, _BASE_ADDRESS)
        self._next_address[place] = address + aligned
        return address


def sort_by_owner(bounds: Sequence[int], values: np.ndarray) -> tuple:
    """``(ordered, cuts)``: ``values`` grouped by owner, a fresh array, whose
    ``ordered[cuts[r]:cuts[r + 1]]`` member ``r`` owns.  A value's slot is its
    low bits: ``bounds[-1]``, the table size, is a power of two."""
    members = len(bounds) - 1
    slots = values & np.uint64(bounds[-1] - 1)
    rank = np.searchsorted(np.asarray(bounds, dtype=np.uint64), slots, side="right")
    del slots
    rank -= 1
    # the narrowest type: NumPy sorts 8- and 16-bit keys by radix
    rank = rank.astype(np.min_scalar_type(members))
    cuts = np.zeros(members + 1, dtype=np.int64)
    np.cumsum(np.bincount(rank, minlength=members), out=cuts[1:])
    return values[np.argsort(rank, kind="stable")], cuts


def xor_into(table: np.ndarray, lo: int, mask: int, values: np.ndarray) -> None:
    """XOR each value into its slot (``value & mask``) of ``table``, whose
    first slot is ``lo``; every duplicate slot lands (``bitwise_xor.at``)."""
    index = values & np.uint64(mask)
    index -= np.uint64(lo)
    np.bitwise_xor.at(table, index.view(np.int64), values)


def join_when_done(finish, place: int, event) -> None:
    """``event``'s callback: one remote XOR batch is done, ``finish`` joins
    at ``place``; a batch that failed raises here."""
    if event._exc is not None:
        raise event._exc
    finish.join(place)


def gups_xor(ctx, key, lo: int, mask: int, values: np.ndarray) -> None:
    """The remote XOR as an ``at`` body: ``values`` into the symmetric table
    ``ctx.store[key]`` here (procs' ``ctx.gups``)."""
    table = ctx.store[key]
    if table.materialized:
        xor_into(table.data, lo, mask, values)
