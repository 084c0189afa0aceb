"""PlaceGroups and scalable spawning-tree broadcast (paper Section 3.2).

Iterating sequentially over many places to send identical messages wastes
time and floods the network.  ``PlaceGroup`` supports efficient broadcast
using spawning trees that parallelize and distribute the task-creation
overhead, with completion detected by nested FINISH_SPMD blocks.
"""

from __future__ import annotations

import functools
from types import GeneratorType
from typing import Callable, Sequence

from repro.errors import ApgasError
from repro.runtime.finish.pragmas import Pragma


class PlaceGroup:
    """An ordered set of distinct places."""

    def __init__(self, places: Sequence[int]) -> None:
        self.places = list(places)
        if len(set(self.places)) != len(self.places):
            raise ApgasError("place group members must be distinct")
        if not self.places:
            raise ApgasError("place group cannot be empty")

    @classmethod
    def world(cls, rt) -> "PlaceGroup":
        return cls(range(rt.n_places))

    def __len__(self) -> int:
        return len(self.places)

    def __iter__(self):
        return iter(self.places)

    def __getitem__(self, index: int) -> int:
        return self.places[index]

    def index_of(self, place: int) -> int:
        return self.places.index(place)


def _first_live(ctx, group: PlaceGroup, lo: int, hi: int):
    """Leftmost index in [lo, hi) whose place is alive, or None.

    Fault tolerance for the spawning tree: when a subtree's designated root
    died, the subtree is re-rooted at its next live member; the (dead) places
    before it are skipped legitimately — nothing can run there.
    """
    for index in range(lo, hi):
        if not ctx.rt.is_dead(group[index]):
            return index
    return None


def broadcast_spawn(ctx, group: PlaceGroup, fn: Callable, *args, name: str = "bcast"):
    """Run ``fn(ctx, *args)`` once at every live place of ``group``;
    generator — use as ``yield from broadcast_spawn(ctx, group, fn, ...)``.

    Task creation is parallelized over a binomial spawning tree; each tree
    node detects its subtree's completion with a nested FINISH_SPMD.  Under
    fault injection the tree re-roots around members that already failed; a
    member failing *mid-broadcast* fails the governing finish with a
    structured :class:`~repro.errors.DeadPlaceError` instead of hanging.
    """
    root = _first_live(ctx, group, 0, len(group))
    if root is None:
        from repro.errors import DeadPlaceError

        raise DeadPlaceError(group[0], detected_by=name, detail="every group member is dead")
    if root != 0:
        ctx.rt.obs.metrics.counter("broadcast.rerooted").inc()
    with ctx.finish(Pragma.FINISH_SPMD, name=f"{name}.root") as f:
        ctx.at_async(group[root], _tree_node, group, root, len(group), fn, args, name=name)
    yield f.wait()


def _tree_node(
    ctx, group: PlaceGroup, lo: int, hi: int, fn: Callable, args: tuple, depth: int = 0, **_kw
):
    """Spawn the binomial subtrees of [lo, hi), then run the body locally.

    ``depth`` is this node's distance from the tree root; the tracer records
    it so the auditor can verify the ceil(log2 n) depth bound.
    """
    rt = ctx.rt
    obs = rt.obs
    counter = rt.c_tree_nodes
    if counter is None:
        counter = rt.c_tree_nodes = obs.metrics.counter("broadcast.tree_nodes")
    counter.value += 1
    if obs.trace.enabled:
        obs.trace.instant(
            "broadcast.node", "broadcast", ctx.here, ctx.now, lo=lo, hi=hi, depth=depth
        )
    with ctx.finish(Pragma.FINISH_SPMD, name=f"bcast[{lo},{hi})") as f:
        step = 1
        while lo + step < hi:
            child_lo = lo + step
            child_hi = min(lo + 2 * step, hi)
            child = child_lo
            if ctx.rt.is_dead(group[child]):
                # re-root the subtree at its first surviving member
                child = _first_live(ctx, group, child_lo + 1, child_hi)
                if child is not None:
                    obs.metrics.counter("broadcast.rerooted").inc()
                    if obs.trace.enabled:
                        obs.trace.instant(
                            "broadcast.reroot", "broadcast", ctx.here, ctx.now,
                            dead=group[child_lo], new_root=group[child],
                            lo=child_lo, hi=child_hi,
                        )
            if child is not None:
                ctx.at_async(
                    group[child], _tree_node, group, child, child_hi, fn, args, depth + 1
                )
            step *= 2
        result = fn(ctx, *args)
        if type(result) is GeneratorType:
            yield from result
    yield f.wait()


def broadcast_gather(ctx, team, fn: Callable, *args, name: str = "bcast"):
    """:func:`broadcast_spawn` of ``fn(ctx, *args)`` over ``team``'s members
    that returns what ``fn`` returned at each, in rank order, at the calling
    place, a member or not; use as ``values = yield from broadcast_gather(...)``.

    A member sends its value home before its JOIN: one message a member,
    and no member waits on another's round trip.
    """
    box = ("gather", team)
    member = functools.partial(_send_home, home=ctx.here, box=box, team=team, fn=fn, args=args)
    yield from broadcast_spawn(ctx, PlaceGroup(team.members), member, name=name)
    values = [None] * team.size
    for _ in range(team.size):
        # take what already arrived without a yield: a get that is already
        # satisfied resumes in place, a stack frame per value
        arrived, item = ctx.try_recv(box)
        rank, value = item if arrived else (yield ctx.recv(box))
        values[rank] = value
    ctx.rt.place(ctx.here).mailboxes.pop(box, None)
    return values


def _send_home(ctx, home: int, box: tuple, team, fn: Callable, args: tuple):
    value = fn(ctx, *args)
    if type(value) is GeneratorType:
        value = yield from value
    ctx.send(home, box, (team.rank(ctx.here), value))


def sequential_spawn(ctx, group: PlaceGroup, fn: Callable, *args):
    """The naive Section 2 idiom: the root loops over places one at a time.

    Kept as the broadcast-ablation baseline: a single place creates every
    task and a single finish home absorbs every termination message.
    """
    with ctx.finish(Pragma.DEFAULT, name="seq-bcast") as f:
        for place in group:
            ctx.at_async(place, fn, *args)
    yield f.wait()
