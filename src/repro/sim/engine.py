"""The discrete-event engine: a virtual clock over a slotted event core.

Events execute in ``(time, seq)`` order, where ``seq`` is one shared monotone
sequence number consumed by every scheduling call.  At millions of events per
run the allocator, not the heap, dominates, so per-event state lives in
preallocated parallel arrays instead of per-event objects:

``_kind / _fn / _args / _gen``
    one slot per in-flight event that needs state: the dispatch kind (free /
    payload call / cancellable / cancelled), the target callable, the payload
    argument tuple, and a generation counter that makes late ``cancel()``
    calls on recycled slots harmless.  Slots are recycled through a LIFO
    freelist, so steady-state scheduling never allocates.

``_heap``
    ``(time, seq, target)`` triples ordered by ``(time, seq)`` — ``seq`` is
    unique, so the target field never participates in comparisons.  The target
    is a slot index, or the bare callable for a zero-argument
    :meth:`Engine.post`, which needs no per-event state at all.

``_ready``
    zero-delay events as a flat ``[seq, target, seq, target, ...]`` list
    drained by a cursor over index ranges — no tuples, no ``popleft``, and no
    per-event time bookkeeping, because of the invariant below.

*The ready invariant.*  Every unconsumed ready entry was appended at the
current virtual time: a zero delay stamps ``now``, and time only advances
when the ready queue is empty.  Bounded runs preserve it by pushing the
not-yet-run entry back onto the heap.  The only way a heap entry can precede
a ready entry is therefore a *smaller sequence number at the current
instant* — a timer whose delay underflowed to the present — which the drain
loop checks per event with one float compare.

The order itself is pinned from outside: the golden-trace corpus
(``tests/sim/golden_traces``) fixes every kernel's trace digest and event
count, and ``tests/perf/test_engine_property.py`` replays random tapes against
a sort-by-``(time, submission)`` oracle.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.errors import DeadlockError, SimulationError, StepLimitError

#: slot kinds (the ``kind`` column of the slot table)
_K_FREE = 0  #: on the freelist
_K_CALL = 1  #: dispatch as ``fn(*args)``
_K_HANDLE = 2  #: dispatch as ``fn()``; cancellable through a :class:`Handle`
_K_CANCELLED = 3  #: cancelled before dispatch; reclaimed when its entry surfaces


class Handle:
    """A cancellable reference to a scheduled callback.

    The handle pins ``(slot, generation)`` at creation time; the engine bumps
    a slot's generation when recycling it, so cancelling a handle whose event
    already ran touches nothing.
    """

    __slots__ = ("cancelled", "_engine", "_slot", "_gen")

    def __init__(self, engine: "Engine", slot: int, gen: int) -> None:
        self.cancelled = False
        self._engine = engine
        self._slot = slot
        self._gen = gen

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        engine = self._engine
        slot = self._slot
        if engine._gen[slot] == self._gen and engine._kind[slot] == _K_HANDLE:
            engine._kind[slot] = _K_CANCELLED
            engine._note_cancelled()


class Engine:
    """Event loop with a virtual clock.

    Events scheduled at equal times fire in scheduling order (a monotonically
    increasing sequence number breaks ties), which makes runs fully
    deterministic.

    *Lazy-deletion compaction.*  Cancelling a handle only marks its slot; the
    queue entry is reclaimed when it surfaces.  Workloads that arm-and-cancel
    timers in bulk (the resilient transport's retransmit timers) would
    otherwise grow the heap without bound, so once cancelled entries exceed
    half the queue (and a small floor) the engine rebuilds the queues without
    them — O(live) amortized, and heap size stays proportional to live events.
    """

    #: below this many cancelled entries compaction is never attempted
    COMPACT_MIN_CANCELLED = 64

    def __init__(self) -> None:
        # -- the slot table (parallel arrays + freelist; doubles when full) ----
        capacity = 256
        self._kind: list[int] = [0] * capacity
        self._fn: list[Optional[Callable]] = [None] * capacity
        self._args: list[Optional[tuple]] = [None] * capacity
        self._gen: list[int] = [0] * capacity
        #: LIFO freelist: recently vacated slots are reused first (cache-warm)
        self._free: list[int] = list(range(capacity - 1, -1, -1))
        # -- the two queues ----------------------------------------------------
        self._heap: list[tuple] = []
        #: flat [seq, target, seq, target, ...]; consumed prefix ends at _rc
        self._ready: list = []
        self._rc = 0
        self._now = 0.0
        self._seq = 0
        #: cancelled entries still occupying a queue position
        self._cancelled = 0
        #: number of callbacks executed so far (useful for complexity tests)
        self.events_executed = 0
        #: total heap rebuilds (diagnostics; the compaction tests read it)
        self.compactions = 0
        #: live processes, from creation until their body ends; when the
        #: queues drain every one left is blocked: the deadlock report
        self._blocked: dict[int, Any] = {}

    # -- slot management ----------------------------------------------------------

    def _grow(self) -> int:
        """Double the slot table; returns a fresh slot."""
        n = len(self._kind)
        self._kind.extend([0] * n)
        self._fn.extend([None] * n)
        self._args.extend([None] * n)
        self._gen.extend([0] * n)
        self._free.extend(range(2 * n - 1, n, -1))
        return n

    def _take(self, tgt) -> tuple:
        """Vacate a surfaced entry's slot; returns its ``(fn, args)``.

        ``fn`` is None for a cancelled entry.  The non-hot-path twin of the
        dispatch inlined in :meth:`run`.
        """
        if type(tgt) is not int:
            return tgt, ()
        k = self._kind[tgt]
        fn = self._fn[tgt]
        self._kind[tgt] = 0
        self._fn[tgt] = None
        self._free.append(tgt)
        if k == _K_CALL:
            args = self._args[tgt]
            self._args[tgt] = None
            return fn, args
        self._gen[tgt] += 1
        if k == _K_CANCELLED:
            self._cancelled -= 1
            return None, ()
        return fn, ()

    # -- clock surface ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def pending_events(self) -> int:
        """Queue slots currently occupied (live + not-yet-reclaimed cancelled)."""
        return len(self._heap) + (len(self._ready) - self._rc) // 2

    def schedule(self, delay: float, callback: Callable[[], None]) -> Handle:
        """Run ``callback`` ``delay`` seconds from now; returns a cancellable handle."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        free = self._free
        slot = free.pop() if free else self._grow()
        self._kind[slot] = _K_HANDLE
        self._fn[slot] = callback
        handle = Handle(self, slot, self._gen[slot])
        self._seq = seq = self._seq + 1
        if delay == 0.0:
            ready = self._ready
            ready.append(seq)
            ready.append(slot)
        else:
            heapq.heappush(self._heap, (self._now + delay, seq, slot))
        return handle

    def call_soon(self, callback: Callable[[], None]) -> Handle:
        """Schedule ``callback`` at the current time, after already-queued events."""
        return self.schedule(0.0, callback)

    def post(self, delay: float, fn: Callable, *args: Any) -> None:
        """Fire-and-forget ``fn(*args)`` after ``delay`` seconds.

        For callers that never cancel (message deliveries, process wake-ups).
        Consumes exactly one sequence number, like :meth:`schedule`.  With no
        arguments the callable itself is the queue entry (no slot, no
        handle); otherwise the arguments ride in the slot table instead of a
        closure cell.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        if args:
            free = self._free
            target = free.pop() if free else self._grow()
            self._kind[target] = _K_CALL
            self._fn[target] = fn
            self._args[target] = args
        else:
            target = fn
        self._seq = seq = self._seq + 1
        if delay == 0.0:
            ready = self._ready
            ready.append(seq)
            ready.append(target)
        else:
            heapq.heappush(self._heap, (self._now + delay, seq, target))

    # -- lazy deletion ------------------------------------------------------------

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        if (
            self._cancelled > self.COMPACT_MIN_CANCELLED
            and 2 * self._cancelled > self.pending_events()
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the queues without cancelled entries.

        Entries carry unique ``(time, seq)`` keys, so filtering preserves the
        execution order exactly.  Both queue objects are mutated in place so
        :meth:`run`'s local references stay valid across a compaction; the
        ready cursor is folded away (the consumed prefix is dropped too).
        """
        kinds = self._kind
        heap = self._heap
        live = []
        for entry in heap:
            tgt = entry[2]
            if type(tgt) is int and kinds[tgt] == _K_CANCELLED:
                self._take(tgt)
            else:
                live.append(entry)
        heap[:] = live
        heapq.heapify(heap)
        ready = self._ready
        out = []
        for i in range(self._rc, len(ready), 2):
            tgt = ready[i + 1]
            if type(tgt) is int and kinds[tgt] == _K_CANCELLED:
                self._take(tgt)
            else:
                out.append(ready[i])
                out.append(tgt)
        ready[:] = out
        self._rc = 0
        self.compactions += 1

    # -- process registry (a Process enters at creation, leaves at its end) -------

    def _note_blocked(self, process: Any) -> None:
        self._blocked[id(process)] = process

    def _note_unblocked(self, process: Any) -> None:
        self._blocked.pop(id(process), None)

    # -- main loop ----------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the queues drain (or virtual time passes ``until``).

        Raises :class:`~repro.errors.DeadlockError` if the queues drain while
        processes are still blocked on effects that can no longer fire, and
        :class:`~repro.errors.StepLimitError` once more than ``max_events``
        callbacks have executed in total — the hang guard for chaos tests.
        Returns the final virtual time.
        """
        if until is not None or max_events is not None:
            return self._run_bounded(until, max_events)
        # the common drain-everything call: no bound checks per event, slot
        # dispatch inlined, and the executed-events counter flushed once
        heap = self._heap
        ready = self._ready
        kinds = self._kind
        fns = self._fn
        argv = self._args
        gens = self._gen
        free_append = self._free.append
        pop = heapq.heappop
        now = self._now
        executed = 0
        try:
            while True:
                rc = self._rc
                if rc < len(ready):
                    if heap:
                        h = heap[0]
                        if h[0] <= now and h[1] < ready[rc]:
                            # a timer whose delay underflowed to the present:
                            # it precedes the ready batch by sequence number
                            fn, args = self._take(pop(heap)[2])
                            if fn is not None:
                                now = self._now = h[0]
                                executed += 1
                                fn(*args)
                            continue
                    self._rc = rc + 2
                    tgt = ready[rc + 1]
                    if type(tgt) is int:
                        k = kinds[tgt]
                        fn = fns[tgt]
                        kinds[tgt] = 0
                        fns[tgt] = None
                        free_append(tgt)
                        if k == 1:  # _K_CALL
                            args = argv[tgt]
                            argv[tgt] = None
                            executed += 1
                            fn(*args)
                        else:
                            gens[tgt] += 1
                            if k == 2:  # _K_HANDLE
                                executed += 1
                                fn()
                            else:  # _K_CANCELLED
                                self._cancelled -= 1
                    else:
                        executed += 1
                        tgt()
                elif heap:
                    if rc:
                        del ready[:]
                        self._rc = 0
                    entry = pop(heap)
                    tgt = entry[2]
                    if type(tgt) is int:
                        k = kinds[tgt]
                        fn = fns[tgt]
                        kinds[tgt] = 0
                        fns[tgt] = None
                        free_append(tgt)
                        if k == 1:  # _K_CALL
                            args = argv[tgt]
                            argv[tgt] = None
                            now = self._now = entry[0]
                            executed += 1
                            fn(*args)
                        else:
                            gens[tgt] += 1
                            if k == 2:  # _K_HANDLE
                                now = self._now = entry[0]
                                executed += 1
                                fn()
                            else:  # _K_CANCELLED
                                self._cancelled -= 1
                    else:
                        now = self._now = entry[0]
                        executed += 1
                        tgt()
                else:
                    break
        finally:
            self.events_executed += executed
        if self._blocked:
            raise DeadlockError(self._blocked.values())
        return self._now

    def _run_bounded(self, until: Optional[float], max_events: Optional[int]) -> float:
        """:meth:`run` with per-event bound checks; an entry that may not run
        yet goes back onto the heap so the caller can resume later."""
        heap = self._heap
        ready = self._ready
        kinds = self._kind
        pop = heapq.heappop
        while True:
            rc = self._rc
            if rc < len(ready):
                # every unconsumed ready entry sits at the current time: merge
                # by (time, seq) against the heap front
                entry = (self._now, ready[rc], ready[rc + 1])
                if heap and heap[0] < entry:
                    entry = pop(heap)
                else:
                    self._rc = rc + 2
            elif heap:
                if rc:
                    del ready[:]
                    self._rc = 0
                entry = pop(heap)
            else:
                break
            time, _seq, tgt = entry
            if type(tgt) is int and kinds[tgt] == _K_CANCELLED:
                self._take(tgt)
                continue
            if until is not None and time > until:
                heapq.heappush(heap, entry)
                self._now = until
                return self._now
            if max_events is not None and self.events_executed >= max_events:
                heapq.heappush(heap, entry)
                raise StepLimitError(max_events, self._now)
            self._now = time
            self.events_executed += 1
            fn, args = self._take(tgt)
            fn(*args)
        if self._blocked and until is None:
            raise DeadlockError(self._blocked.values())
        return self._now
