"""The APGAS runtime: places, activities, finish, teams, and allocators."""

from repro.runtime.activity import Activity, ActivityContext
from repro.runtime.broadcast import PlaceGroup, broadcast_spawn, sequential_spawn
from repro.runtime.clock import Clock
from repro.runtime.congruent import CongruentAllocator, CongruentArray
from repro.runtime.finish import Pragma, make_finish
from repro.runtime.finish.analysis import classify_function, suggest
from repro.runtime.globalref import Cell, GlobalRef
from repro.runtime.place import PlaceRuntime
from repro.runtime.runtime import ApgasRuntime
from repro.runtime.team import Team

__all__ = [
    "Activity",
    "ActivityContext",
    "ApgasRuntime",
    "Cell",
    "Clock",
    "CongruentAllocator",
    "CongruentArray",
    "GlobalRef",
    "PlaceGroup",
    "PlaceRuntime",
    "Pragma",
    "Team",
    "broadcast_spawn",
    "classify_function",
    "make_finish",
    "sequential_spawn",
    "suggest",
]
