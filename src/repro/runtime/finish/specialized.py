"""FINISH_ASYNC, FINISH_HERE, FINISH_LOCAL, FINISH_SPMD.

These four are *actual specializations* of the default algorithm (paper
Section 3.1): for FINISH_SPMD, the runtime knows it needs to wait for exactly
n count-only termination messages if n remote activities were spawned — the
order, source place, and content of each message are irrelevant — so no spawn
matrix is kept and messages shrink to a bare count.
"""

from __future__ import annotations

from repro.runtime.finish.base import BaseFinish
from repro.runtime.finish.pragmas import Pragma


class FinishAsync(BaseFinish):
    """A finish governing a single activity, possibly remote.

    E.g. ``finish at(p) async S;`` — the "put" idiom.
    """

    pragma = Pragma.FINISH_ASYNC


class FinishHere(BaseFinish):
    """A finish governing a round trip — the "get" idiom.

    E.g. ``h=here; finish at(p) async {S1; at(h) async S2;}``: one outgoing
    activity whose continuation comes back to the home place.  The return
    leg terminates at home and reports nothing; the outbound leg's report is
    the only control message.
    """

    pragma = Pragma.FINISH_HERE


class FinishLocal(BaseFinish):
    """A finish governing local activities only: a bare counter, no messages."""

    pragma = Pragma.FINISH_LOCAL

    def on_join(self, place: int) -> None:
        pass  # purely local: quiescence is the counter hitting zero


class FinishSpmd(BaseFinish):
    """A finish governing remote activities that do not spawn subactivities
    outside a nested finish.

    E.g. ``finish for(p in places) at(p) async finish S;`` — the "root" finish
    of an SPMD computation.  Home waits for exactly one count-only message per
    remote activity.
    """

    pragma = Pragma.FINISH_SPMD
