"""Distributed finish for the procs backend.

The protocol is the message-level shape of the simulator's finish family
(:mod:`repro.runtime.finish`), carried over real sockets:

* All termination state lives at the **home** place (:class:`HomeFinish`):
  a pending-activity counter, incremented per fork and decremented per join.
* Fork bookkeeping is **uncounted**: a local fork updates the counter
  directly; a remote place forks by sending a FORK notice, mirroring the
  simulator where fork bookkeeping rides inside the spawn message itself.
* Each **remote join is exactly one control message** (a JOIN frame to home),
  counted under the finish's pragma — the same per-pragma accounting rule as
  every simulator protocol at conformance scale (home-local joins are free;
  FINISH_LOCAL never has remote activities; FINISH_DENSE's octant routing
  degenerates to direct-to-home below 33 places, i.e. one octant).

Causal safety of the counter: all frames traverse the single place-0 router,
and a FORK notice is enqueued *before* the SPAWN it covers, so it reaches
home before any JOIN that spawn can produce — the counter can never touch
zero while an unannounced activity is live.

Identity is ``fid = (home_place, seq)`` with a per-process sequence, so
nested finishes opened anywhere in the computation never collide.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

from repro.errors import DeadPlaceError, PragmaError
from repro.runtime.finish.pragmas import FORK_RULES, Pragma
from repro.sim.events import SimEvent
from repro.xrt.procs import wire

if TYPE_CHECKING:  # pragma: no cover
    from repro.xrt.procs.runtime import ProcsRuntime

Fid = Tuple[int, int]


class HomeFinish:
    """The home-side finish: owns the pending counter and the wait event.

    Death semantics mirror the simulator's finish contract
    (:meth:`repro.runtime.finish.base.FinishProtocol.notify_place_death`):
    a strict finish fails its waiters with :class:`DeadPlaceError` naming the
    dead place; a finish whose ``tolerate_death`` flag was raised writes off
    the dead place's outstanding counts instead.  Per-place attribution of the
    pending counter (``pending_by_place``) is what makes the write-off exact.
    """

    #: opt-in, set on the finish inside the ``with`` block (like the sim's
    #: ``FinishProtocol.tolerate_death``): place death under this finish is
    #: written off rather than fatal
    tolerate_death = False

    def __init__(self, rt: "ProcsRuntime", pragma: Pragma, name: str = "") -> None:
        self.rt = rt
        self.home = rt.place_id
        self.pragma = pragma
        self.pragma_value = pragma.value
        self.fid: Fid = (self.home, next(rt._finish_seq))
        self.name = name or f"{pragma.value}#{self.fid}"
        self._fork_rule = FORK_RULES.get(pragma)
        self.pending = 0
        self.total_forks = 0
        self.remote_joins = 0
        #: outstanding activities by the place they run at — death write-offs
        #: forgive exactly the dead place's share of ``pending``
        self.pending_by_place: Dict[int, int] = {}
        self.deaths_tolerated = 0
        self._event = SimEvent(name=f"{self.name}.wait")
        # parity with the simulator's metrics: opening a finish registers its
        # pragma in the per-pragma ctl counts even if it never sends one
        rt.ctl_by_pragma.setdefault(pragma.value, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HomeFinish {self.name} pending={self.pending}>"

    # -- the governing-finish interface used by the runtime ---------------------

    def fork(self, src: int, dst: int) -> None:
        rule = self._fork_rule
        if rule is not None:
            rule(self.name, self.home, self.total_forks, dst)
        self.total_forks += 1
        self.pending += 1
        self.pending_by_place[dst] = self.pending_by_place.get(dst, 0) + 1

    def on_remote_fork(self, dst: int) -> None:
        """A FORK notice arrived from a remote place, spawning at ``dst``."""
        self.total_forks += 1
        self.pending += 1
        self.pending_by_place[dst] = self.pending_by_place.get(dst, 0) + 1

    def join(self, place: int) -> None:
        """A home-local activity terminated (no message, no ctl count)."""
        self._arrive(place)

    def on_remote_join(self, src: int) -> None:
        """A JOIN frame arrived from ``src`` (already counted by the sender)."""
        self.remote_joins += 1
        self._arrive(src)

    def _arrive(self, place: int) -> None:
        self.pending -= 1
        self.pending_by_place[place] = self.pending_by_place.get(place, 0) - 1
        if self.pending < 0:
            raise PragmaError(f"{self.name}: more joins than forks")
        if self.pending == 0 and not self._event.fired:
            self._event.trigger()

    def notify_place_death(self, place: int, cause: str = "") -> None:
        """Place ``place`` died: write off its counts or fail, per the contract.

        FIFO through the single router guarantees every JOIN the place managed
        to send was delivered before the death notice, so whatever remains in
        ``pending_by_place[place]`` is exactly the work that can never join.
        """
        lost = self.pending_by_place.pop(place, 0)
        if lost <= 0 or self._event.fired:
            return
        if not self.tolerate_death:
            lost_txt = f"{lost} outstanding activit{'y' if lost == 1 else 'ies'} lost"
            self.fail(DeadPlaceError(
                place, detected_by=self.name,
                detail=f"{lost_txt}; {cause}" if cause else lost_txt,
            ))
            return
        self.pending -= lost
        self.deaths_tolerated += 1
        self.rt.deaths_tolerated += 1
        if self.pending == 0 and not self._event.fired:
            self._event.trigger()

    def wait(self) -> SimEvent:
        """The quiescence event: yield it to block until every fork joined."""
        if self.pending == 0 and not self._event.fired:
            self._event.trigger()
        return self._event

    def fail(self, exc: BaseException) -> None:
        """Abort the finish (child place died): waiters re-raise ``exc``."""
        if not self._event.fired:
            self._event.fail(exc)


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
        ctl = self.rt.ctl_by_pragma
        ctl[self.pragma_value] = ctl.get(self.pragma_value, 0) + 1
        self.rt.send_frame((wire.JOIN, place, self.home, (self.fid, self.pragma_value)))

    def wait(self) -> SimEvent:  # pragma: no cover - portable programs wait at home
        raise PragmaError(
            f"finish {self.fid} can only be waited on at its home place {self.home}"
        )


def resolve_finish(rt: "ProcsRuntime", fid: Fid, pragma_value: str, home: int):
    """The governing finish for an activity arriving with ``(fid, pragma, home)``."""
    if home == rt.place_id:
        return rt.finishes[fid]
    proxies: Dict[Fid, ProxyFinish] = rt.proxies
    proxy = proxies.get(fid)
    if proxy is None:
        proxy = proxies[fid] = ProxyFinish(rt, fid, pragma_value, home)
    return proxy
