"""Distributed finish for the procs backend: the simulator's finish core over frames.

There is one finish core, :class:`~repro.runtime.finish.base.BaseFinish`: what
a finish counts, when it fires, which forks its pragma refuses and what a
place death writes off.  The simulator adapts it to the modelled network with
``send_ctl``; here it is adapted to real sockets:

* All termination state lives at the **home** place (:class:`HomeFinish`).
* Fork bookkeeping is **uncounted**: a local fork calls ``fork``; a remote
  place sends a FORK notice, which home turns into the same ``fork`` (and the
  same ``FORK_RULES`` check), as the simulator's rides inside the spawn.
* Each **remote join is exactly one control message**: a JOIN frame, counted
  as ``finish.ctl_messages{pragma}`` by its sender (:class:`ProxyFinish`) and
  turned into ``join`` at home.  Home-local joins are free.

Causal safety: every frame crosses the single place-0 router, and a FORK
notice is enqueued *before* the SPAWN it covers, so it reaches home before
any JOIN that spawn can produce.  ``fid = (home_place, finish_id)`` with
per-process ids, so finishes opened anywhere never collide.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.errors import PragmaError
from repro.runtime.finish.base import BaseFinish
from repro.runtime.finish.pragmas import Pragma
from repro.sim.events import SimEvent
from repro.xrt.procs import wire

if TYPE_CHECKING:  # pragma: no cover
    from repro.xrt.procs.runtime import ProcsRuntime

Fid = Tuple[int, int]


class HomeFinish(BaseFinish):
    """The home-side finish: :class:`BaseFinish` fed by FORK and JOIN frames."""

    def __init__(self, rt: "ProcsRuntime", pragma: Pragma, name: str = "") -> None:
        self.pragma = pragma
        self.pragma_value = pragma.value
        super().__init__(rt, rt.place_id, name)
        self.fid: Fid = (self.home, self.finish_id)
        # a real place can die under any finish, so the per-place census that
        # makes death write-offs exact is always kept
        self._track_live = True

    def on_join(self, place: int) -> None:
        """Nothing to send: a remote join arrives *as* its JOIN frame,
        already counted by its sender."""

    def wait(self) -> SimEvent:
        event = super().wait()
        event.add_callback(self._retire)
        return event

    def _retire(self, event: SimEvent) -> None:
        # waited on and quiescent: nothing governed is left to fork or join;
        # a failed finish stays, so its survivors' JOINs still land
        if self.failed is None:
            self.rt.finishes.pop(self.fid, None)


class ProxyFinish:
    """A remote place's lightweight handle on a finish homed elsewhere.

    Holds no termination state: forks send an (uncounted) FORK notice ahead
    of the spawn; joins send the one counted JOIN control message.
    """

    __slots__ = ("rt", "fid", "pragma_value", "home")

    def __init__(self, rt: "ProcsRuntime", fid: Fid, pragma_value: str, home: int) -> None:
        self.rt = rt
        self.fid = fid
        self.pragma_value = pragma_value
        self.home = home

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ProxyFinish {self.fid} home={self.home}>"

    def fork(self, src: int, dst: int) -> None:
        # uncounted: the sim's fork bookkeeping rides inside the spawn message
        self.rt.send_frame((wire.FORK, src, self.home, (self.fid, self.pragma_value, dst)))

    def join(self, place: int) -> None:
        # the counted control message: one per remotely terminating activity
        self.rt.obs.metrics.counter("finish.ctl_messages", pragma=self.pragma_value).inc()
        self.rt.send_frame((wire.JOIN, place, self.home, (self.fid, self.pragma_value)))

    def wait(self) -> SimEvent:  # pragma: no cover - portable programs wait at home
        raise PragmaError(
            f"finish {self.fid} can only be waited on at its home place {self.home}"
        )


def resolve_finish(rt: "ProcsRuntime", fid: Fid, pragma_value: str, home: int):
    """The governing finish for an activity arriving with ``(fid, pragma, home)``."""
    if home == rt.place_id:
        return rt.finishes[fid]
    return ProxyFinish(rt, fid, pragma_value, home)
