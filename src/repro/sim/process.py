"""Generator-based processes and the effects they may yield."""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.events import SimEvent


class Timeout:
    """Effect: suspend the yielding process for ``delay`` virtual seconds."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout {delay!r}")
        self.delay = delay
        self.value = value


class Process:
    """A coroutine driven by the engine.

    The body is a generator.  Each ``yield`` suspends the process on an
    *effect*; the process is resumed with the effect's result:

    ``yield Timeout(dt)``
        resume after ``dt`` seconds (result: ``Timeout.value``);
    ``yield event`` (a :class:`SimEvent`)
        resume when the event fires (result: the event's value);
    ``yield store.get()``
        resume when an item is available (result: the item);
    ``yield process``
        resume when the other process terminates (result: its return value);
    ``yield None``
        reschedule immediately (a cooperative yield point).

    Uncaught exceptions in the body propagate out of :meth:`Engine.run` after
    being recorded on :attr:`done`, so protocol bugs fail loudly.

    A process is in its engine's registry (``_note_blocked``) from creation
    until its body returns, raises or is killed (``_note_unblocked``).  Once
    the queues drain, every process still there is blocked, so the registry
    is the deadlock report.
    """

    __slots__ = ("engine", "name", "_body", "_killed", "bookkeeping_callbacks", "done")

    def __init__(
        self, engine: Engine, body: Generator, name: str = "", immediate: bool = False
    ) -> None:
        if not hasattr(body, "send"):
            raise SimulationError(
                f"process body must be a generator, got {type(body).__name__}: "
                "did you forget a 'yield' in the body function?"
            )
        self.engine = engine
        self.name = name or getattr(body, "__name__", "process")
        self._body = body
        self._killed = False
        #: done-callbacks that only observe (tracking); they don't consume crashes
        self.bookkeeping_callbacks = 0
        #: fires with the body's return value when the process terminates
        self.done = SimEvent(name=f"{self.name}.done")
        engine._note_blocked(self)
        if immediate:
            # The creator is itself inside a scheduled event (e.g. a message
            # delivery) that already provides the asynchrony, so the first
            # step runs now instead of through a zero-delay trampoline.
            # Callers starting a process from synchronous code must keep the
            # default, or the child would run inside its creator's frame.
            self._resume()
        else:
            engine.post(0.0, self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done.fired else "running"
        return f"<Process {self.name} {state}>"

    def kill(self) -> None:
        """Terminate the process abruptly (a simulated place failure).

        The place hosting the process is gone mid-instruction: the body is
        closed *now* (``GeneratorExit`` at the suspension point), so any
        cleanup runs at the deterministic kill time, never at a garbage
        collector's whim.  :attr:`done` never fires; waiters are expected to
        be killed too or to learn of the failure through other channels
        (e.g. a failed finish).
        """
        if self._killed or self.done.fired:
            return
        self._killed = True
        self.engine._note_unblocked(self)
        self._body.close()

    @property
    def killed(self) -> bool:
        return self._killed

    # -- driving the generator -------------------------------------------------

    def _resume(self) -> None:
        """Zero-argument trampoline for the dominant ``send(None)`` resume."""
        self._step(None)

    def _step(self, value: Any, exc: Optional[BaseException] = None) -> None:
        """Send ``value`` into the body (throw ``exc``, if given) and go on
        while the effect it yields has already fired: in this loop, not in a
        nested call, so a run of ready events costs no stack depth."""
        body = self._body
        while not self._killed:
            try:
                effect = body.send(value) if exc is None else body.throw(exc)
            except StopIteration as stop:
                self.engine._note_unblocked(self)
                self.done.trigger(stop.value)
                return
            except BaseException as raised:
                self._crash(raised)
                return
            if type(effect) is SimEvent:
                # the dominant wait, ahead of :meth:`_ready`'s dispatch
                if not effect._fired:
                    effect._callbacks.append(self._on_event)
                    return
            else:
                effect = self._ready(effect)
                if effect is None:
                    return
            value, exc = effect._value, effect._exc

    def _crash(self, exc: BaseException) -> None:
        # If someone is waiting on .done the exception is delivered there
        # (remote-eval semantics); an orphan crash aborts the whole run.
        # Pure bookkeeping callbacks (process tracking) don't count as waiters.
        self.engine._note_unblocked(self)
        had_waiters = len(self.done._callbacks) > self.bookkeeping_callbacks
        self.done.fail(exc)
        if not had_waiters:
            raise exc

    def _ready(self, effect: Any) -> Optional[SimEvent]:
        """Arrange to resume on ``effect``, or return its event if it has
        already fired (the caller resumes at once)."""
        if effect is None:
            self.engine.post(0.0, self._resume)
            return None
        if isinstance(effect, Timeout):
            value = effect.value
            if value is None:
                self.engine.post(effect.delay, self._resume)
            else:
                self.engine.post(effect.delay, self._step, value)
            return None
        if isinstance(effect, Process):
            effect = effect.done
        elif not isinstance(effect, SimEvent):
            # Store.get() returns a _Get object with an `event` attribute.
            event = getattr(effect, "event", None)
            if not isinstance(event, SimEvent):
                raise SimulationError(
                    f"process {self.name!r} yielded an unknown effect: {effect!r}"
                )
            effect = event
        if effect._fired:
            return effect
        effect._callbacks.append(self._on_event)
        return None

    def _on_event(self, event: SimEvent) -> None:
        self._step(event._value, event._exc)
