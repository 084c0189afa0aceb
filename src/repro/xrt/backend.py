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
``_note_blocked`` /       blocked-process registry (deadlock / idleness report)
``_note_unblocked``
========================  ======================================================

:class:`Clock` names that interface.  The discrete-event
:class:`~repro.sim.engine.Engine` is the *virtual-time* implementation (one
Python process simulates every place); the procs backend's
:class:`~repro.xrt.procs.loop.PlaceLoop` is the *wall-clock* implementation
(one OS process per place, real sockets underneath).  Because both satisfy the
same interface, the generator-based process machinery — and therefore the
APGAS programs built on it — runs unmodified on either.

:class:`ExecutionBackend` is the program-level seam the differential
conformance suite uses: ``get_backend(name).run(kernel, places)`` executes one
portable kernel program and reports its result, checksum, and per-pragma
finish control-message counts, whichever substrate ran it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Protocol, runtime_checkable


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
    #: the program's result payload (plain data: values, counts, checksum)
    result: dict
    #: wall-clock seconds the run took (for the sim backend this is real
    #: execution time of the simulation, not simulated time)
    wall_time: float
    #: finish control messages sent, by pragma value — the conformance
    #: suite's protocol-equality gate
    ctl_by_pragma: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def checksum(self) -> Optional[str]:
        return self.result.get("checksum")


class ExecutionBackend:
    """One way of executing a portable APGAS program over ``places`` places."""

    name = "base"

    def run(self, kernel: str, places: int, **params: Any) -> BackendRun:
        raise NotImplementedError


class SimBackend(ExecutionBackend):
    """The discrete-event simulator: every place in one Python process."""

    name = "sim"

    def run(self, kernel: str, places: int, **params: Any) -> BackendRun:
        from repro.kernels.portable import build_program
        from repro.machine.config import MachineConfig
        from repro.obs import Observability
        from repro.runtime.runtime import ApgasRuntime

        main = build_program(kernel, places, **params)
        rt = ApgasRuntime(places=places, config=MachineConfig(), obs=Observability())
        t0 = time.perf_counter()
        result = rt.run(main)
        wall = time.perf_counter() - t0
        snap = rt.obs.metrics.snapshot()
        ctl = {k: int(v) for k, v in snap.by("finish.ctl_messages", "pragma").items()}
        return BackendRun(
            backend=self.name,
            kernel=kernel,
            places=places,
            result=result,
            wall_time=wall,
            ctl_by_pragma=ctl,
            extra={"sim_time": rt.now, "metrics": snap},
        )


class ProcsBackend(ExecutionBackend):
    """Real OS processes: one per place, messages over real sockets.

    ``chaos`` (a kill-only spec) and ``resilient`` turn on real fault
    injection and checkpoint/restore recovery — see
    :func:`repro.xrt.procs.run_procs_program`; both may also be passed
    per-run through ``params``.
    """

    name = "procs"

    #: run_procs_program kwargs that may ride in through ``params``
    _LAUNCH_KEYS = ("deadline", "chaos", "resilient",
                    "heartbeat_interval", "heartbeat_timeout")

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
        for key in self._LAUNCH_KEYS:
            if key in params:
                kwargs[key] = params.pop(key)
        report = run_procs_program(kernel, places, params=params, **kwargs)
        extra = {"messages_routed": report.messages_routed,
                 "bytes_routed": report.bytes_routed}
        if kwargs["chaos"] is not None or kwargs["resilient"]:
            extra.update(
                deaths=report.deaths,
                revivals=report.revivals,
                frames_dropped=report.frames_dropped,
                deaths_tolerated=report.deaths_tolerated,
                chaos=report.chaos,
            )
        return BackendRun(
            backend=self.name,
            kernel=kernel,
            places=places,
            result=report.result,
            wall_time=report.wall_time,
            ctl_by_pragma=dict(report.ctl_by_pragma),
            extra=extra,
        )


#: the backend registry; ``repro run --backend`` and the conformance suite
#: resolve names through here
BACKENDS: dict[str, type[ExecutionBackend]] = {
    SimBackend.name: SimBackend,
    ProcsBackend.name: ProcsBackend,
}


def get_backend(name: str, **kwargs: Any) -> ExecutionBackend:
    """Instantiate a backend by name (``'sim'`` or ``'procs'``)."""
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; choose from {sorted(BACKENDS)}"
        ) from None
    return cls(**kwargs)
