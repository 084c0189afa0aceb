"""The execution-backend seam: an explicit Clock + Transport interface.

Everything above the engine — activities (:class:`~repro.sim.process.Process`),
mailboxes (:class:`~repro.sim.store.Store`), events
(:class:`~repro.sim.events.SimEvent`), and the finish protocols — drives
execution through a narrow scheduling interface:

========================  ======================================================
``now``                   the clock reading (virtual seconds or wall seconds)
``schedule(dt, cb)``      run ``cb`` after ``dt`` clock seconds (cancellable)
``call_soon(cb)``         ``schedule(0.0, cb)``: at the current time, after
                          queued work
``post(dt, fn, *args)``   fire-and-forget ``fn(*args)`` after ``dt`` seconds:
                          no cancellation handle, no closure for the arguments
``_note_blocked`` /       process registry (deadlock / idleness report): a
``_note_unblocked``       process enters when created and leaves when its body
                          returns, raises or is killed, not around each wait
========================  ======================================================

:class:`Clock` names that interface.  The discrete-event
:class:`~repro.sim.engine.Engine` is the *virtual-time* implementation (one
Python process simulates every place); the procs backend's
:class:`~repro.xrt.procs.loop.PlaceLoop` is the *wall-clock* implementation
(one OS process per place, real sockets underneath).  Because both satisfy the
same interface, the generator-based process machinery — and therefore the
APGAS programs built on it — runs unmodified on either.

:class:`BackendRun` is the one record of a portable run:
``get_backend(name).run(kernel, places)`` executes one portable kernel program
and reports its result, checksum, and per-pragma finish control-message
counts, whichever substrate ran it (the differential conformance suite's seam).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Protocol, Union, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    """The scheduling interface shared by the virtual and wall-clock engines."""

    @property
    def now(self) -> float: ...

    def schedule(self, delay: float, callback: Callable[[], None]): ...

    def call_soon(self, callback: Callable[[], None]): ...

    def post(self, delay: float, fn: Callable, *args: Any) -> None: ...


class WallClock:
    """Monotonic wall time, zeroed at construction.

    The procs backend's time source: readings are comparable across the
    lifetime of one place process (but *not* across processes — protocol
    decisions must never compare clocks of different places).
    """

    __slots__ = ("_t0",)

    def __init__(self) -> None:
        self._t0 = time.monotonic()

    @property
    def now(self) -> float:
        return time.monotonic() - self._t0


@dataclass
class BackendRun:
    """Outcome of one portable kernel program on one backend."""

    backend: str
    kernel: str
    places: int
    #: the program's return value (plain data: values, counts, checksum)
    result: Any
    #: wall-clock seconds the run took (for the sim backend this is real
    #: execution time of the simulation, not simulated time)
    wall_time: float
    #: finish control messages summed across every place, by pragma value —
    #: the conformance suite's protocol-equality gate
    ctl_by_pragma: dict = field(default_factory=dict)
    #: simulator only: simulated seconds and the metrics registry snapshot
    sim_time: Optional[float] = None
    metrics: Any = None
    #: procs only: frames and bytes that crossed place 0's sockets (both
    #: directions), the system calls that moved them (frames per write is the
    #: coalescing ratio), and each place's own DONE report
    messages_routed: int = 0
    bytes_routed: int = 0
    socket_writes: int = 0
    socket_reads: int = 0
    per_place: dict = field(default_factory=dict)
    #: place deaths the router detected: [{"place", "cause", "time"}, ...]
    deaths: list = field(default_factory=list)
    #: fresh OS processes forked for dead places
    revivals: int = 0
    #: ``procs.wire.dropped``: frames queued after EOF plus frames the router
    #: blackholed to/from dead places — nothing is ever *silently* lost
    frames_dropped: int = 0
    #: tolerant-finish write-offs summed across places
    deaths_tolerated: int = 0
    #: the chaos spec driving the run (one-line form), if any
    chaos: Optional[str] = None

    @property
    def checksum(self) -> Optional[str]:
        return self.result.get("checksum")


def ctl_by_pragma(metrics) -> dict:
    """``finish.ctl_messages`` of one metrics registry, by pragma value: a
    simulated run's, or the messages one place process sent."""
    by = metrics.by_label("finish.ctl_messages", "pragma")
    return {pragma: int(count) for pragma, count in sorted(by.items())}


class SimBackend:
    """The discrete-event simulator: every place in one Python process."""

    def run(self, kernel: str, places: int, **params: Any) -> BackendRun:
        from repro.harness.runner import make_runtime
        from repro.kernels.portable import build_program

        main = build_program(kernel, places, **params)
        rt = make_runtime(places)
        t0 = time.perf_counter()
        result = rt.run(main)
        wall = time.perf_counter() - t0
        return BackendRun(
            backend="sim",
            kernel=kernel,
            places=places,
            result=result,
            wall_time=wall,
            ctl_by_pragma=ctl_by_pragma(rt.obs.metrics),
            sim_time=rt.now,
            metrics=rt.obs.metrics.snapshot(),
        )


class ProcsBackend:
    """Real OS processes: one per place, messages over real sockets.

    ``chaos`` (a kill-only spec) and ``resilient`` turn on real fault
    injection and checkpoint/restore recovery — see
    :func:`repro.xrt.procs.run_procs_program`.
    """

    def __init__(
        self,
        deadline: Optional[float] = None,
        chaos: Optional[str] = None,
        resilient: bool = False,
    ) -> None:
        self.deadline = deadline
        self.chaos = chaos
        self.resilient = resilient

    def run(self, kernel: str, places: int, **params: Any) -> BackendRun:
        from repro.xrt.procs import run_procs_program

        kwargs = {"chaos": self.chaos, "resilient": self.resilient}
        if self.deadline is not None:
            kwargs["deadline"] = self.deadline
        return run_procs_program(kernel, places, params=params, **kwargs)


def get_backend(name: str, **kwargs: Any) -> Union[SimBackend, ProcsBackend]:
    """Instantiate a backend by name (``'sim'`` or ``'procs'``)."""
    if name == "sim":
        return SimBackend(**kwargs)
    if name == "procs":
        return ProcsBackend(**kwargs)
    raise ValueError(f"unknown backend {name!r}; choose from ['procs', 'sim']")
