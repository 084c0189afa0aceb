"""Dynamic determinacy-race detection for the simulated APGAS runtime.

The detector maintains one vector clock per *task* and checks every
``ctx.store`` access against the happens-before order induced by the
finish/async/at structure (the only synchronization the APGAS subset of the
paper offers):

``async`` (local or remote)
    forks a new task: the child starts with a copy of the parent's clock plus
    a fresh component of its own, and the parent ticks its own component so
    the child cannot observe later parental work as ordered.

activity termination
    joins into the governing finish: the child's final clock is merged into a
    per-finish accumulator.

``finish`` wait
    once the finish quiesces, the accumulator is merged into the clock of the
    activity that *opened* the scope (the only activity that may wait on it in
    this codebase's idiom), establishing children -> continuation edges.

``at``
    is a *shift*, not a fork — the evaluating body shares the caller's clock
    object, exactly matching the paper's "the current activity moves" reading.

Accesses are observed through :class:`TrackedStore`, a thin proxy the context
returns instead of the raw per-place dict when detection is on.  Two accesses
to the same ``(place, key)`` race when neither task's clock has observed the
other's access; a FastTrack-style per-key state (last write epoch + read
table) keeps the check O(readers).

Zero-overhead contract (the PR 1 tracer pattern): with detection off,
``rt.race is None`` and every hot path pays exactly one attribute test.  The
detector never schedules engine events and never writes to the tracer, so a
race-free run with detection ON still produces the bit-identical trace of a
detection-OFF run.

Known model limits (documented, asserted nowhere): happens-before edges via
mailbox ``send``/``recv`` are *not* modeled — a read ordered only by a message
round-trip is reported as a race; and an ``at`` whose result event is
deliberately dropped so the body races its own caller is outside the shift
model.  Both are conservative in the direction the static/dynamic agreement
contract needs (the dynamic layer may over-report, never under-report, races
the MHP analysis also over-approximates).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.activity import Activity
    from repro.runtime.finish.base import BaseFinish

#: process-wide force switch: `repro race <script.py>` runs arbitrary example
#: scripts that construct their own runtimes; flipping this makes every
#: subsequently-built ApgasRuntime enable detection and register itself in
#: ACTIVE so the CLI can harvest the reports afterwards.
_FORCED = False

#: detectors of runtimes built while the force switch was on
ACTIVE: list["RaceDetector"] = []


def force_detection(on: bool) -> None:
    """Globally force race detection on runtimes built from now on."""
    global _FORCED
    _FORCED = on
    if on:
        ACTIVE.clear()


def detection_forced() -> bool:
    return _FORCED


@dataclass(frozen=True)
class RaceReport:
    """One happens-before violation on a ``(place, key)`` store cell."""

    kind: str          #: "write-write" | "read-write" | "write-read"
    place: int
    key: Any
    #: (path, line, op, task) of the earlier and the current access
    prior: tuple
    current: tuple
    sim_time: float

    def describe(self) -> str:
        pp, pl, pop, ptask = self.prior
        cp, cl, cop, ctask = self.current
        return (
            f"{self.kind} race at place {self.place} on store key {self.key!r}: "
            f"{pop} at {pp}:{pl} (task {ptask}) is unordered with "
            f"{cop} at {cp}:{cl} (task {ctask})"
        )


class VectorClock:
    """A task's logical time: ``{task_id: count}`` plus a stable task id.

    The task id is the id of the activity that *created* the clock.  An ``at``
    body shares the caller's clock instance — same task, the activity moved —
    so the id survives the shift.
    """

    __slots__ = ("tid", "v")

    def __init__(self, tid: int, v: Optional[dict] = None) -> None:
        self.tid = tid
        self.v = v if v is not None else {tid: 1}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VectorClock(tid={self.tid}, v={self.v})"


class _KeyState:
    """Per ``(place, key)`` access history: last write epoch + read table."""

    __slots__ = ("write", "reads")

    def __init__(self) -> None:
        #: (task_id, count, path, line) of the last write, or None
        self.write: Optional[tuple] = None
        #: task_id -> (count, path, line) of that task's latest read
        self.reads: dict[int, tuple] = {}


class RaceDetector:
    """Vector-clock happens-before checker wired into one runtime."""

    def __init__(self, rt) -> None:
        self.rt = rt
        #: activity.id -> VectorClock (at-eval bodies alias their caller's)
        self._clocks: dict[int, VectorClock] = {}
        #: finish_id -> merged clock of every joined child
        self._acc: dict[int, dict] = {}
        #: finish_id -> the activity that opened the scope
        self._owner: dict[int, "Activity"] = {}
        #: (place, key) -> _KeyState
        self._keys: dict[tuple, _KeyState] = {}
        self.races: list[RaceReport] = []
        self._seen: set = set()
        metrics = rt.obs.metrics
        self._c_accesses = metrics.counter("race.accesses")
        self._c_races = metrics.counter("race.violations")
        if _FORCED:
            ACTIVE.append(self)

    # -- clock bookkeeping -------------------------------------------------------

    def clock_of(self, activity: "Activity") -> VectorClock:
        clock = self._clocks.get(activity.id)
        if clock is None:
            clock = self._clocks[activity.id] = VectorClock(activity.id)
        return clock

    def on_fork(self, parent: "Activity", child: "Activity") -> None:
        """A local ``async``: child inherits, parent ticks."""
        pc = self.clock_of(parent)
        cv = dict(pc.v)
        cv[child.id] = 1
        self._clocks[child.id] = VectorClock(child.id, cv)
        pc.v[pc.tid] = pc.v.get(pc.tid, 0) + 1

    def fork_snapshot(self, parent: "Activity") -> dict:
        """A remote ``at async``: the child is created at the destination, so
        the fork edge travels as a plain snapshot in the spawn message."""
        pc = self.clock_of(parent)
        snap = dict(pc.v)
        pc.v[pc.tid] = pc.v.get(pc.tid, 0) + 1
        return snap

    def adopt(self, activity: "Activity", snapshot: dict) -> None:
        """Install a remotely-shipped fork snapshot as ``activity``'s clock."""
        v = dict(snapshot)
        v[activity.id] = 1
        self._clocks[activity.id] = VectorClock(activity.id, v)

    def share(self, shifted: "Activity", clock: Optional[VectorClock]) -> None:
        """An ``at`` body: the shifted activity *is* the caller, moved."""
        if clock is not None:
            self._clocks[shifted.id] = clock

    def on_join(self, activity: "Activity") -> None:
        """Activity termination: final clock folds into the finish accumulator."""
        clock = self._clocks.pop(activity.id, None)
        if clock is None:
            return  # never forked through ctx and made no accesses
        finish = activity.governing_finish
        fid = getattr(finish, "finish_id", None)
        if fid is None:
            return
        acc = self._acc.get(fid)
        if acc is None:
            self._acc[fid] = dict(clock.v)
        else:
            for tid, n in clock.v.items():
                if acc.get(tid, 0) < n:
                    acc[tid] = n

    def on_finish_open(self, finish: "BaseFinish", owner: "Activity") -> None:
        self._owner[finish.finish_id] = owner

    def on_wait(self, finish: "BaseFinish", event) -> None:
        """``f.wait()``: when the finish quiesces, children's merged clocks
        flow into the waiting owner (the join edge of the finish construct)."""
        owner = self._owner.get(finish.finish_id)
        if owner is None:
            return  # the root finish: nothing waits on it through ctx

        def merge(_event=None) -> None:
            acc = self._acc.get(finish.finish_id)
            oc = self.clock_of(owner)
            if acc:
                v = oc.v
                for tid, n in acc.items():
                    if v.get(tid, 0) < n:
                        v[tid] = n
                v[oc.tid] = v.get(oc.tid, 0) + 1

        if event.fired:
            merge()
        else:
            event.add_callback(merge)

    # -- store instrumentation -----------------------------------------------------

    def tracked_store(self, store: dict, place: int, activity: "Activity") -> "TrackedStore":
        return TrackedStore(store, self, place, self.clock_of(activity))

    def record(self, place: int, key, op: str, clock: VectorClock,
               path: str, line: int) -> None:
        """Check one access against the key's history, then record it."""
        self._c_accesses.value += 1
        state = self._keys.get((place, key))
        if state is None:
            state = self._keys[(place, key)] = _KeyState()
        tid = clock.tid
        v = clock.v
        current = (path, line, op, tid)
        write = state.write
        if op == "write":
            if write is not None and write[0] != tid and v.get(write[0], 0) < write[1]:
                self._report("write-write", place, key,
                             (write[2], write[3], "write", write[0]), current)
            for rtid, (count, rpath, rline) in state.reads.items():
                if rtid != tid and v.get(rtid, 0) < count:
                    self._report("read-write", place, key, (rpath, rline, "read", rtid), current)
            state.write = (tid, v.get(tid, 0), path, line)
            state.reads = {}
        else:
            if write is not None and write[0] != tid and v.get(write[0], 0) < write[1]:
                self._report("write-read", place, key,
                             (write[2], write[3], "write", write[0]), current)
            state.reads[tid] = (v.get(tid, 0), path, line)

    def _report(self, kind: str, place: int, key, prior: tuple, current: tuple) -> None:
        dedup = (kind, place, key, prior[:2], current[:2])
        if dedup in self._seen:
            return
        self._seen.add(dedup)
        self._c_races.value += 1
        self.races.append(
            RaceReport(kind, place, key, prior, current, self.rt.engine.now)
        )

    # -- reporting ----------------------------------------------------------------

    @property
    def clean(self) -> bool:
        return not self.races

    def race_pairs(self) -> Iterator[frozenset]:
        """Each race as an unordered ``{(path, line), (path, line)}`` pair —
        the currency of the static/dynamic agreement check."""
        for race in self.races:
            yield frozenset({race.prior[:2], race.current[:2]})


class TrackedStore:
    """Access-recording proxy over a place's ``ctx.store`` dict.

    Only handed out while detection is on; the raw dict is the stored state,
    so detector-on and detector-off runs share identical store contents.
    Granularity is the top-level key: mutations *inside* a stored object
    (e.g. a sub-dict a mailbox helper returns) are not observed.
    """

    __slots__ = ("_d", "_det", "_place", "_clock")

    def __init__(self, d: dict, det: RaceDetector, place: int, clock: VectorClock) -> None:
        self._d = d
        self._det = det
        self._place = place
        self._clock = clock

    def _note(self, key, op: str) -> None:
        frame = sys._getframe(2)  # the store-method caller's source coordinates
        self._det.record(self._place, key, op, self._clock,
                         frame.f_code.co_filename, frame.f_lineno)

    # reads
    def __getitem__(self, key):
        self._note(key, "read")
        return self._d[key]

    def __contains__(self, key) -> bool:
        self._note(key, "read")
        return key in self._d

    def get(self, key, default=None):
        self._note(key, "read")
        return self._d.get(key, default)

    # writes
    def __setitem__(self, key, value) -> None:
        self._note(key, "write")
        self._d[key] = value

    def __delitem__(self, key) -> None:
        self._note(key, "write")
        del self._d[key]

    def update(self, other=(), **kwargs) -> None:
        items = dict(other, **kwargs)
        for key in items:
            self._note(key, "write")
        self._d.update(items)

    def clear(self) -> None:
        for key in list(self._d):
            self._note(key, "write")
        self._d.clear()

    # read-modify-write
    def setdefault(self, key, default=None):
        self._note(key, "read")
        if key not in self._d:
            self._note(key, "write")
        return self._d.setdefault(key, default)

    def pop(self, key, *default):
        self._note(key, "read")
        self._note(key, "write")
        return self._d.pop(key, *default)

    # unkeyed views: reads of every present key
    def keys(self):
        for key in list(self._d):
            self._note(key, "read")
        return self._d.keys()

    def items(self):
        for key in list(self._d):
            self._note(key, "read")
        return self._d.items()

    def values(self):
        for key in list(self._d):
            self._note(key, "read")
        return self._d.values()

    def __iter__(self):
        for key in list(self._d):
            self._note(key, "read")
        return iter(self._d)

    def __len__(self) -> int:
        return len(self._d)

    def __bool__(self) -> bool:
        return bool(self._d)

    def __eq__(self, other) -> bool:
        if isinstance(other, TrackedStore):
            other = other._d
        return self._d == other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TrackedStore({self._d!r})"


def run_script(path: str, run_name: str = "__main__") -> list[RaceDetector]:
    """Execute a Python script with detection forced on every runtime it
    builds; returns the detectors of those runtimes (``repro race file.py``)."""
    import runpy

    force_detection(True)
    try:
        runpy.run_path(path, run_name=run_name)
        return list(ACTIVE)
    finally:
        force_detection(False)
