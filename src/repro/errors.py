"""Exception hierarchy shared across the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(ReproError):
    """The discrete-event engine detected an inconsistency."""


class DeadlockError(SimulationError):
    """The event queue drained while processes were still blocked.

    Carries the list of blocked processes so that protocol bugs (e.g. a
    ``finish`` that never quiesces) are diagnosable.
    """

    def __init__(self, blocked):
        self.blocked = list(blocked)
        names = ", ".join(str(p) for p in self.blocked[:8])
        more = "" if len(self.blocked) <= 8 else f" (+{len(self.blocked) - 8} more)"
        super().__init__(
            f"simulation deadlock: {len(self.blocked)} process(es) still blocked: {names}{more}"
        )


class StepLimitError(SimulationError):
    """The event loop exceeded its configured step cap.

    Chaos and property tests run with a cap so a protocol that stops making
    progress fails loudly instead of spinning the event loop forever.
    """

    def __init__(self, max_events: int, now: float):
        self.max_events = max_events
        self.now = now
        super().__init__(
            f"simulation exceeded the step cap of {max_events} events "
            f"(virtual time {now:.6g} s): suspected livelock"
        )


class RoutingError(ReproError):
    """No valid route exists between two octants."""


class TransportError(ReproError):
    """Misuse of the X10RT transport layer."""


class RegistrationError(TransportError):
    """RDMA/collective operation attempted on unregistered memory."""


class ApgasError(ReproError):
    """Misuse of the APGAS runtime API."""


class PlaceError(ApgasError):
    """Reference to a place outside the runtime's place set."""


class FinishError(ApgasError):
    """A finish protocol was driven through an invalid transition."""


class PragmaError(ApgasError):
    """A finish pragma was applied to a concurrency pattern it cannot govern."""


class DeadPlaceError(ApgasError):
    """A distributed operation involved a place that failed.

    Raised (never hung) by finish protocols whose participants died, by
    spawns and remote evaluations targeting a dead place, and by the
    transport when retries to an unreachable place are exhausted.  Carries
    the dead place and the protocol object that detected the failure so
    chaos tests and the auditor can attribute recovery actions.
    """

    def __init__(self, place: int, detected_by: str = "", detail: str = ""):
        self.place = place
        self.detected_by = detected_by
        self.detail = detail
        msg = f"place {place} is dead"
        if detected_by:
            msg += f" (detected by {detected_by})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class ResilientError(ApgasError):
    """The checkpoint/restore layer could not guarantee recovery.

    Raised when recovery exceeds its retry budget.  Unlike
    :class:`DeadPlaceError` this signals *data* loss, not place loss: the
    computation cannot be reconstructed bit-identically and must fail loudly
    rather than return a silently different answer.
    """


class AnalyzeError(ReproError):
    """Misuse of the static analyzer (bad path, unreadable or unparsable source)."""


class ChaosError(ReproError):
    """Misuse of the fault-injection layer (bad spec, unknown fault kind)."""


class GlbError(ReproError):
    """Misuse of the global load balancing framework."""


class KernelError(ReproError):
    """A kernel was configured with invalid parameters."""


class ServeError(ReproError):
    """A serving scenario is malformed or violates scheduler constraints."""


class ProcsError(ReproError):
    """The multi-process backend failed (child crash, protocol violation)."""


class ProcsTimeoutError(ProcsError):
    """A multi-process run exceeded its wall-clock deadline.

    The launcher terminates and reaps every child place before raising, so a
    hung program costs one deadline, never an orphaned process tree.
    """
