"""Two-dimensional block-cyclic process grids."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import KernelError


@dataclass(frozen=True)
class ProcessGrid:
    """A P x Q grid over ``P*Q`` places; block (I, J) lives at (I%P, J%Q)."""

    P: int
    Q: int

    def __post_init__(self) -> None:
        if self.P < 1 or self.Q < 1:
            raise KernelError("grid dimensions must be positive")

    @property
    def places(self) -> int:
        """Total places in the grid."""
        return self.P * self.Q

    def place_of(self, pi: int, pj: int) -> int:
        return pi * self.Q + pj

    def coords_of(self, place: int) -> tuple[int, int]:
        return divmod(place, self.Q)

    def owner_of_block(self, bi: int, bj: int) -> int:
        return self.place_of(bi % self.P, bj % self.Q)

    def row_places(self, pi: int) -> list[int]:
        """Places in process row ``pi`` (the panel's row broadcast peers)."""
        return [self.place_of(pi, pj) for pj in range(self.Q)]

    def col_places(self, pj: int) -> list[int]:
        """Places in process column ``pj`` (panel and U broadcast peers)."""
        return [self.place_of(pi, pj) for pi in range(self.P)]


def default_grid(places: int) -> ProcessGrid:
    """The most nearly square factorization P x Q = places with P <= Q.

    For powers of two this alternates n x n and n x 2n grids — the origin of
    the seesaw in the paper's HPL per-core curve.
    """
    if places < 1:
        raise KernelError("need at least one place")
    best = (1, places)
    for p in range(1, int(math.isqrt(places)) + 1):
        if places % p == 0:
            best = (p, places // p)
    return ProcessGrid(P=best[0], Q=best[1])
