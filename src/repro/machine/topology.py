"""Placement of places onto the octant/drawer/supernode hierarchy."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlaceError
from repro.machine.config import MachineConfig


@dataclass(frozen=True)
class OctantCoord:
    """Position of an octant in the machine hierarchy."""

    octant: int
    drawer: int  # drawer index within the supernode
    supernode: int


class Topology:
    """Maps places to cores/octants and classifies octant pairs.

    Following the paper's configuration, places are mapped to octants in
    groups of ``cores_per_octant`` (32 on the real machine): place ``p`` runs
    on core ``p % 32`` of octant ``p // 32``, and each place is bound to its
    core.
    """

    def __init__(self, config: MachineConfig, places: int) -> None:
        if places < 1:
            raise PlaceError(f"need at least one place, got {places}")
        max_places = config.usable_octants * config.cores_per_octant
        if places > max_places:
            raise PlaceError(
                f"{places} places exceed the machine's {max_places} usable cores"
            )
        self.config = config
        self.places = places
        self.n_octants = -(-places // config.cores_per_octant)  # ceil div

    # -- place -> hardware ------------------------------------------------------

    def octant_of(self, place: int) -> int:
        self._check_place(place)
        return place // self.config.cores_per_octant

    def core_of(self, place: int) -> int:
        self._check_place(place)
        return place % self.config.cores_per_octant

    def places_on_octant(self, octant: int) -> range:
        """The contiguous range of places bound to ``octant``."""
        self._check_octant(octant)
        per = self.config.cores_per_octant
        return range(octant * per, min((octant + 1) * per, self.places))

    def crowd(self, place: int) -> int:
        """How many places share ``place``'s octant, and so its memory bus."""
        return len(self.places_on_octant(self.octant_of(place)))

    def master_place_of_octant(self, octant: int) -> int:
        """The lowest-numbered place on an octant (FINISH_DENSE router)."""
        return self.places_on_octant(octant)[0]

    def master_place_of(self, place: int) -> int:
        """``p - p % b`` in the paper's routing formula."""
        return self.master_place_of_octant(self.octant_of(place))

    # -- octant -> hierarchy ------------------------------------------------------

    def coord_of_octant(self, octant: int) -> OctantCoord:
        self._check_octant(octant)
        per_sn = self.config.octants_per_supernode
        supernode = octant // per_sn
        within = octant % per_sn
        return OctantCoord(
            octant=octant, drawer=within // self.config.octants_per_drawer, supernode=supernode
        )

    def same_drawer_octants(self, oa: int, ob: int) -> bool:
        ca, cb = self.coord_of_octant(oa), self.coord_of_octant(ob)
        return ca.supernode == cb.supernode and ca.drawer == cb.drawer

    def same_supernode_octants(self, oa: int, ob: int) -> bool:
        return self.coord_of_octant(oa).supernode == self.coord_of_octant(ob).supernode

    # -- validation ------------------------------------------------------------

    def _check_place(self, place: int) -> None:
        if not (0 <= place < self.places):
            raise PlaceError(f"place {place} outside 0..{self.places - 1}")

    def _check_octant(self, octant: int) -> None:
        if not (0 <= octant < self.n_octants):
            raise PlaceError(f"octant {octant} outside 0..{self.n_octants - 1}")
