"""RDMA put/get and the Torrent "GUPS" remote atomic update.

RDMA transfers move registered memory segments between octants without local
copies and without involving the CPU or operating system (paper Section 3.3) —
in the simulator, an RDMA transfer never occupies a place's worker, only the
hubs and links.  The GUPS feature applies atomic remote memory updates (e.g.
XOR a memory location with an argument word) directly at the target hub.

The Torrent is very sensitive to TLB misses, so registered segments should be
backed by large pages; :func:`tlb_factor` computes the slowdown for a segment
given its page size, reproducing why large pages are *essential* for
RandomAccess.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import RegistrationError, TransportError
from repro.machine.config import MachineConfig
from repro.machine.network import TransferKind
from repro.sim.events import SimEvent
from repro.xrt.transport import Transport

_region_ids = itertools.count(1)


@dataclass
class MemRegion:
    """A memory segment registered with the network hardware.

    ``data`` is the backing numpy array (may be None for model-only regions);
    ``address`` is the virtual address assigned by the congruent allocator.
    """

    place: int
    nbytes: int
    page_bytes: int
    address: int = 0
    data: Optional[np.ndarray] = None
    region_id: int = field(default_factory=lambda: next(_region_ids))

    @property
    def pages(self) -> int:
        return max(1, -(-self.nbytes // self.page_bytes))


class MemoryRegistry:
    """Tracks which regions are registered for RDMA.

    By id only (ids are never reused): the registry must not keep a region,
    and the NumPy buffer behind it, alive after its owner dropped it.
    """

    def __init__(self) -> None:
        self._region_ids: set[int] = set()

    def register(self, region: MemRegion) -> MemRegion:
        self._region_ids.add(region.region_id)
        return region

    def is_registered(self, region: MemRegion) -> bool:
        return region.region_id in self._region_ids

    def check(self, region: MemRegion, place: int) -> None:
        if not self.is_registered(region):
            raise RegistrationError(
                f"memory region {region.region_id} is not registered with the "
                "network hardware; allocate it with the congruent allocator"
            )
        if region.place != place:
            raise RegistrationError(
                f"region {region.region_id} lives at place {region.place}, not {place}"
            )


def tlb_factor(config: MachineConfig, region: MemRegion, random_access: bool = False) -> float:
    """Hub slowdown multiplier for accessing ``region``.

    Streaming access walks pages sequentially and is insensitive to TLB
    capacity.  Random access (GUPS) touches pages uniformly: once the segment
    spans more pages than the hub TLB holds, nearly every update misses and
    pays the reload penalty — unless large pages shrink the page count below
    the TLB size.
    """
    if not random_access:
        return 1.0
    if region.pages <= config.hub_tlb_entries:
        return 1.0
    miss_rate = 1.0 - config.hub_tlb_entries / region.pages
    return 1.0 + miss_rate * (config.tlb_miss_penalty / config.gups_update_overhead)


class RdmaEngine:
    """RDMA operations over a transport's network."""

    def __init__(self, transport: Transport, registry: MemoryRegistry) -> None:
        if not transport.supports_rdma:
            raise TransportError(
                f"transport {transport.name!r} has no RDMA support; "
                "use the emulation layer (plain active messages)"
            )
        self.transport = transport
        self.registry = registry
        self.config = transport.config

    def put(self, src_region: MemRegion, dst_region: MemRegion, nbytes: int) -> SimEvent:
        """One-sided copy src -> dst; neither CPU is involved."""
        self._check_pair(src_region, dst_region, nbytes)
        factor = tlb_factor(self.config, dst_region)
        return self.transport.network.transfer(
            src_region.place, dst_region.place, nbytes, TransferKind.RDMA, tlb_factor=factor
        )

    def get(self, src_region: MemRegion, dst_region: MemRegion, nbytes: int) -> SimEvent:
        """One-sided fetch: data flows src -> dst, initiated at dst."""
        self._check_pair(src_region, dst_region, nbytes)
        factor = tlb_factor(self.config, src_region)
        return self.transport.network.transfer(
            src_region.place, dst_region.place, nbytes, TransferKind.RDMA, tlb_factor=factor
        )

    def gups(self, src_place: int, dst_region: MemRegion, n_updates: int) -> SimEvent:
        """Batched remote atomic XOR updates applied at the target hub."""
        self.registry.check(dst_region, dst_region.place)
        if n_updates < 1:
            raise TransportError("gups batch must contain at least one update")
        factor = tlb_factor(self.config, dst_region, random_access=True)
        return self.transport.network.transfer(
            src_place, dst_region.place, n_updates * 16, TransferKind.GUPS, tlb_factor=factor
        )

    def _check_pair(self, src: MemRegion, dst: MemRegion, nbytes: int) -> None:
        self.registry.check(src, src.place)
        self.registry.check(dst, dst.place)
        if nbytes > src.nbytes or nbytes > dst.nbytes:
            raise TransportError(
                f"transfer of {nbytes} bytes exceeds region sizes "
                f"({src.nbytes}, {dst.nbytes})"
            )
