"""Result containers shared by kernels, the harness, and the benchmarks."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional


def checksum_bytes(*chunks) -> str:
    """Short stable digest of result payloads (fault-free equality gate).

    A chunk is anything with a contiguous buffer: ``bytes`` or a C-contiguous
    array, which is hashed where it lies.
    """
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()[:16]


@dataclass
class KernelResult:
    """Outcome of one kernel run at one scale."""

    kernel: str
    places: int
    sim_time: float
    #: primary aggregate metric (flop/s, up/s, B/s, nodes/s, edges/s, or
    #: seconds of run time for the time-metric kernels)
    value: float
    unit: str
    #: value per core (per host for RandomAccess, per the paper's convention)
    per_core: Optional[float] = None
    verified: Optional[bool] = None
    extra: dict = field(default_factory=dict)

    @classmethod
    def of(cls, kernel: str, result: dict, places: int, sim_time: float, value: float,
           unit: str, per_core: Optional[float] = None, verified: Optional[bool] = None,
           **extra) -> "KernelResult":
        """A program ``result``'s report: its checksum and (unless given) its
        ``verified``; ``per_core`` defaults to the value per place."""
        return cls(kernel, places, sim_time, value, unit,
                   value / places if per_core is None else per_core,
                   result.get("verified") if verified is None else verified,
                   {**extra, "checksum": result["checksum"]})


@dataclass
class ScalingSeries:
    """A weak-scaling curve: one KernelResult per place count."""

    kernel: str
    results: list[KernelResult] = field(default_factory=list)

    def add(self, result: KernelResult) -> None:
        """Append one scale's result."""
        self.results.append(result)

    @property
    def places(self) -> list[int]:
        """The core counts of the series."""
        return [r.places for r in self.results]

    @property
    def values(self) -> list[float]:
        """The aggregate metric at each scale."""
        return [r.value for r in self.results]

    @property
    def per_core(self) -> list[Optional[float]]:
        """The per-core metric at each scale."""
        return [r.per_core for r in self.results]
