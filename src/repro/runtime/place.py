"""Per-place runtime state: the worker, mailboxes, and the atomic/when monitor."""

from __future__ import annotations

from typing import Dict

from repro.machine.resources import MultiLaneResource, SerialResource
from repro.sim.events import SimEvent
from repro.sim.store import Store


class Monitor:
    """Condition-variable support for X10's ``when`` / ``atomic``.

    ``atomic`` blocks execute in a single uninterrupted step (trivially true
    with one cooperative worker per place) and notify the monitor so blocked
    ``when`` conditions re-evaluate.
    """

    def __init__(self) -> None:
        self._waiters: list[SimEvent] = []

    def wait(self) -> SimEvent:
        event = SimEvent(name="monitor.wait")
        self._waiters.append(event)
        return event

    def notify_all(self) -> None:
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            event.trigger()


class PlaceRuntime:
    """A place: a collection of data and worker threads operating on it.

    The default mirrors the paper's execution mode — ``X10_NTHREADS=1``, one
    worker per place, each place bound to one core.  ``workers > 1`` models
    the intra-place schedulers the paper leaves as future work ("a more
    natural APGAS implementation would take advantage of intra-place
    concurrency, run with only one or a few places per host"): concurrent
    activities' compute then overlaps across the worker lanes.
    """

    def __init__(self, place_id: int, workers: int = 1) -> None:
        self.id = place_id
        self.workers = workers
        #: compute effects are dispatched over the worker lanes
        self.worker = (
            SerialResource(f"worker[{place_id}]")
            if workers == 1
            else MultiLaneResource(workers, f"workers[{place_id}]")
        )
        self.monitor = Monitor()
        self.mailboxes: Dict[str, Store] = {}
        #: place-local named state (``ctx.store``) — the portable programs'
        #: per-place heap, mirroring what a real place process keeps in its
        #: own address space (the procs backend gives each place a real one)
        self.store: Dict[str, object] = {}
        #: number of activities started here (diagnostics / load metrics)
        self.activities_run = 0

    def mailbox(self, name: str) -> Store:
        box = self.mailboxes.get(name)
        if box is None:
            box = self.mailboxes[name] = Store(name=f"p{self.id}:{name}")
        return box

    def busy_time(self) -> float:
        """Total worker-occupied simulated time (for efficiency metrics)."""
        return self.worker.total_busy
