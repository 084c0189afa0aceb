"""Finish pragmas: the five specialized termination-detection patterns.

The runtime provides implementations of distributed ``finish`` that are
specialized to common patterns of distributed concurrency (paper Section 3.1).
Opportunities to apply them are guided by programmer-supplied annotations —
pragmas — exactly as in the paper's current system (the prototype compiler
analysis lives in :mod:`repro.runtime.finish.analysis`).
"""

from __future__ import annotations

import enum

from repro.errors import PragmaError


class Pragma(enum.Enum):
    """Which termination-detection algorithm a ``finish`` should use."""

    #: the general task-balancing algorithm: handles arbitrary nesting, but
    #: uses O(n^2) space at the finish home and sends one control message per
    #: remotely terminating task directly to the home place
    DEFAULT = "default"

    #: a finish governing a single activity, possibly remote
    FINISH_ASYNC = "finish_async"

    #: a finish governing a round trip (a "get")
    FINISH_HERE = "finish_here"

    #: a finish governing only local activities
    FINISH_LOCAL = "finish_local"

    #: a finish governing one remote activity per place that does not spawn
    #: subactivities outside a nested finish
    FINISH_SPMD = "finish_spmd"

    #: a finish governing activities with dense or irregular communication
    #: graphs; control traffic is software-routed through per-node master
    #: places and coalesced
    FINISH_DENSE = "finish_dense"

    #: members are singletons compared by identity, so the identity hash is
    #: exact; ``Enum.__hash__`` is a Python call on every table lookup, and
    #: opening a finish makes two
    __hash__ = object.__hash__


# -- the legality rulebook -----------------------------------------------------
#
# Which forks a specialized pragma can govern (paper Section 3.1), stated once
# for every finish core: the simulator's protocols, the procs backend's home
# finish and the analyzer's replay all call their pragma's ``FORK_RULES`` entry
# before counting a fork.  A rule sees the finish's name and home, the number of forks
# already counted and the new activity's destination, and raises
# :class:`~repro.errors.PragmaError`.  Pragmas without an entry accept any fork.


def _async_rule(name: str, home: int, total_forks: int, dst: int) -> None:
    if total_forks >= 1:
        raise PragmaError(
            f"{name}: FINISH_ASYNC governs a single activity, "
            "but a second one was spawned"
        )


def _here_rule(name: str, home: int, total_forks: int, dst: int) -> None:
    if total_forks >= 2:
        raise PragmaError(f"{name}: FINISH_HERE governs a round trip (two activities)")
    if total_forks == 1 and dst != home:
        raise PragmaError(
            f"{name}: FINISH_HERE's second activity must return to the "
            f"home place {home}, not {dst}"
        )


def _local_rule(name: str, home: int, total_forks: int, dst: int) -> None:
    if dst != home:
        raise PragmaError(
            f"{name}: FINISH_LOCAL cannot govern a remote activity "
            f"(spawn to place {dst}, home is {home})"
        )


FORK_RULES = {
    Pragma.FINISH_ASYNC: _async_rule,
    Pragma.FINISH_HERE: _here_rule,
    Pragma.FINISH_LOCAL: _local_rule,
}
