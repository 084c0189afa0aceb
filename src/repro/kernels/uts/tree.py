"""Geometric UTS trees as interval work queues.

The paper's compact representation: instead of expanded lists of nodes, a
place's pending work is a list of *intervals of siblings* — (parent state,
depth, lo, hi) meaning children ``lo..hi-1`` of that parent are not yet
visited.  Processing is depth-first (top of the stack), so the list stays
short.  To counteract the bias introduced by the depth cut-off, a thief steals
fragments of *every* interval (the refined mode); the original mode splits a
single interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import KernelError
from repro.glb.bag import TaskBag
from repro.kernels.uts.rng import RNG_MODES, make_rng

#: largest accepted ``b0``.  ``q`` rounds to 1.0 (``log(q) == 0``: an empty
#: tree behind a NumPy warning) only from ``b0`` ~ 2**53, but the SplitMix
#: threshold table has ``floor(53 ln 2 / ln(1 + 1/b0)) < 36.74 * (b0 + 1)``
#: entries (164 at the paper's ``b0 = 4``), so the limit sits where that is
#: still small: at most 37,636 integers.
MAX_B0 = 1024.0


@dataclass(frozen=True)
class UtsParams:
    """Tree shape: fixed geometric law (paper: b0=4, r=19, d=14..22)."""

    b0: float = 4.0
    depth: int = 10
    seed: int = 19
    rng_mode: str = "splitmix"

    def __post_init__(self) -> None:
        if not 1.0 < self.b0 <= MAX_B0:  # also false for nan and inf
            raise KernelError(
                f"geometric branching factor b0 must exceed 1 and be at most "
                f"{MAX_B0:g}, got {self.b0!r}"
            )
        if self.depth < 1:
            raise KernelError("depth cut-off must be at least 1")
        if self.rng_mode not in RNG_MODES:
            raise KernelError(
                f"unknown UTS rng mode {self.rng_mode!r}; use one of {RNG_MODES}"
            )

    @property
    def q(self) -> float:
        """Geometric parameter: P(X >= k) = q^k, E[X] = b0."""
        return self.b0 / (self.b0 + 1.0)


class UtsBag(TaskBag):
    """A place's pending sibling intervals."""

    def __init__(
        self,
        params: UtsParams,
        intervals: Optional[list] = None,
        bootstrap_nodes: int = 0,
        steal_all_intervals: bool = True,
    ) -> None:
        self.params = params
        self.rng = make_rng(params.rng_mode)
        self.intervals: list = intervals if intervals is not None else []
        self._bootstrap = bootstrap_nodes
        self.steal_all_intervals = steal_all_intervals

    @classmethod
    def root(cls, params: UtsParams, steal_all_intervals: bool = True) -> "UtsBag":
        """The whole tree: the root node plus the interval of its children."""
        bag = cls(params, bootstrap_nodes=1, steal_all_intervals=steal_all_intervals)
        state = bag.rng.root_state(params.seed)
        n = int(bag.rng.num_children([state], params.q)[0])
        if n > 0:
            bag.intervals.append((state, 0, 0, n))
        return bag

    # -- TaskBag protocol -----------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.intervals and self._bootstrap == 0

    def process(self, max_items: int) -> int:
        """Visit up to ``max_items`` nodes depth-first; returns nodes visited."""
        processed = self._bootstrap
        self._bootstrap = 0
        intervals, children = self.intervals, self.rng.children
        cutoff, q = self.params.depth, self.params.q
        while processed < max_items and intervals:
            state, depth, lo, hi = intervals[-1]
            end = lo + max_items - processed
            if end >= hi:
                end = hi
                del intervals[-1]
            else:
                intervals[-1] = (state, depth, end, hi)
            depth += 1
            if depth < cutoff:  # the children may have children;
                # below the cut-off visiting a node is just counting it, so
                # the child states (a majority of the tree) are never derived
                intervals += [
                    (child, depth, 0, n) for child, n in children(state, lo, end, q) if n
                ]
            processed += end - lo
        return processed

    def split(self) -> Optional["UtsBag"]:
        if self.steal_all_intervals:
            return self._split_every_interval()
        return self._split_one_interval()

    def _split_every_interval(self) -> Optional["UtsBag"]:
        """The refined policy: a fragment of every interval (all tree depths).

        Intervals with two or more remaining siblings are halved.  Singleton
        intervals — typically the *shallow* ones holding the largest subtrees,
        since a DFS parent's sibling range drains to one quickly — alternate
        between thief and victim, so big subtrees change hands instead of
        being hoarded by the victim (the paper's "steal fragments of every
        interval" fix for shallow trees).
        """
        loot = []
        kept = []
        give_singleton = True
        for st, dep, lo, hi in self.intervals:
            span = hi - lo
            if span >= 2:
                take = span // 2
                loot.append((st, dep, lo, lo + take))
                kept.append((st, dep, lo + take, hi))
            elif span == 1 and give_singleton:
                loot.append((st, dep, lo, hi))
                give_singleton = False
            else:
                kept.append((st, dep, lo, hi))
                if span == 1:
                    give_singleton = True
        if not loot:
            return None
        self.intervals = kept
        return UtsBag(self.params, loot, steal_all_intervals=True)

    def _split_one_interval(self) -> Optional["UtsBag"]:
        """The original policy: split the single bottom-most splittable interval."""
        for idx, (st, dep, lo, hi) in enumerate(self.intervals):
            take = (hi - lo) // 2
            if take > 0:
                self.intervals[idx] = (st, dep, lo + take, hi)
                return UtsBag(self.params, [(st, dep, lo, lo + take)], steal_all_intervals=False)
        return None

    def merge(self, other: "UtsBag") -> None:
        # stolen intervals go to the bottom of the stack: the thief keeps
        # working depth-first on its own subtrees first
        self.intervals[:0] = other.intervals
        self._bootstrap += other._bootstrap

    @property
    def serialized_nbytes(self) -> int:
        state_bytes = 20 if self.params.rng_mode == "sha1" else 8
        return 16 + (state_bytes + 16) * len(self.intervals)

    @property
    def pending_lower_bound(self) -> int:
        """Nodes directly represented (children of pushed intervals)."""
        return sum(hi - lo for _, _, lo, hi in self.intervals) + self._bootstrap
