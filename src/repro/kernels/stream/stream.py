"""EP Stream Triad: ``a = b + alpha * c`` (paper Section 5.1).

A straightforward SPMD code: the main activity launches an activity at every
place using a PlaceGroup broadcast; these allocate and initialize the local
arrays, perform the computation, and verify the results.

One entry point, :func:`stream_main`, runs :func:`stream_body` at every
member, its arrays in ``ctx.store[("stream", team)]``; resilient runs drive
the same state through :func:`stream_restore` and :func:`stream_epoch`.

A member whose rounds exchange nothing computes in the step it starts and
frees its buffers before its first charge: :func:`stream_body` runs every
triad and its check on the host at once, then yields the rounds' modelled
memory-bus charges.  The simulated times are those of a round-by-round run,
and on the simulator, where every member shares one host process, no member
holds its arrays while the others wait out their charges.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

from repro.errors import KernelError
from repro.harness.results import KernelResult, checksum_bytes
from repro.machine.memory import stream_bw_per_place
from repro.runtime.broadcast import broadcast_gather

#: triad traffic per element: read b, read c, write a
BYTES_PER_ELEMENT = 24


def triad(a: np.ndarray, b: np.ndarray, c: np.ndarray, alpha: float) -> None:
    """The triad itself, in place: ``a[:] = b + alpha * c``."""
    np.multiply(c, alpha, out=a)
    np.add(a, b, out=a)


def stream_params(n_per_place: int, iterations: int, alpha: float,
                  modeled_per_place: Optional[int] = None) -> dict:
    """The body's parameters, every size checked here, once: ``n_per_place``
    real elements per member, each round charged for ``modeled_per_place``."""
    modeled = n_per_place if modeled_per_place is None else modeled_per_place
    if min(n_per_place, modeled, iterations) < 1:
        raise KernelError("need at least one element and one iteration")
    return {"n": n_per_place, "iterations": iterations, "alpha": alpha,
            "mem_bytes": BYTES_PER_ELEMENT * modeled}


def stream_restore(ctx, committed_epoch: int, blob, p: dict, team) -> None:
    """Initialize a member's arrays by team rank, unless it still has them:
    the triad is idempotent, so a survivor rolls nothing back."""
    key = ("stream", team)
    if committed_epoch < 0 or key not in ctx.store:
        n, topology = p["n"], ctx.rt.topology
        bw = stream_bw_per_place(topology.config, topology.crowd(ctx.here))
        b = np.full(n, 1.0 + team.rank(ctx.here))
        ctx.store[key] = (np.zeros(n), b, np.full(n, 2.0), bw)


def _round(ctx, p: dict, team):
    """One triad on the member's arrays; returns its memory-bus charge to yield."""
    a, b, c, bw = ctx.store[("stream", team)]
    triad(a, b, c, p["alpha"])
    return ctx.compute(mem_bytes=p["mem_bytes"], mem_bw=bw)


def stream_body(ctx, p: dict, team):
    """A member's whole run: initialize its arrays, every triad round and the
    check, all in the step it starts, and let the arrays go; then one charge
    per round, each built as it is yielded.  Returns the member's :func:`verdict`."""
    stream_restore(ctx, -1, None, p, team)
    state = ctx.store.pop(("stream", team))
    for _ in range(p["iterations"]):
        triad(*state[:3], p["alpha"])
    result, bw = verdict(state, p["alpha"]), state[3]
    del state  # else this generator's frame holds the arrays through the charges
    for _ in range(p["iterations"]):
        yield ctx.compute(mem_bytes=p["mem_bytes"], mem_bw=bw)
    return result


def stream_epoch(ctx, epoch: int, tag: str, p: dict, team):
    """One triad round at a member; its check is the checkpoint blob."""
    yield _round(ctx, p, team)
    return verdict(ctx.store[("stream", team)], p["alpha"])


def verdict(state: tuple, alpha: float) -> tuple:
    """A member's check: does ``a`` hold ``b + alpha * c`` exactly; and ``a``'s digest."""
    a, b, c, _bw = state
    return bool(np.array_equal(a, b + alpha * c)), hashlib.sha256(a).digest()


def stream_result(places: list, verdicts: list, p: dict) -> dict:
    """The program result from the verdicts of ``places``, in rank order."""
    return {"checksum": checksum_bytes(*(digest for _ok, digest in verdicts)),
            "verified": all(ok for ok, _digest in verdicts),
            "failures": [place for place, (ok, _) in zip(places, verdicts) if not ok],
            "n_total": p["n"] * len(verdicts), "iterations": p["iterations"]}


def stream_main(ctx, group=None, **params):
    """The program over ``group`` (default: every place), run at place 0, a member or not."""
    team = ctx.team(group or ctx.places())
    p = stream_params(**params)
    verdicts = yield from broadcast_gather(ctx, team, stream_body, p, team)
    return stream_result(team.members, verdicts, p)


def stream_modelled(places: int, config, elements_per_place: int = 62_500_000,
                    iterations: int = 4, alpha: float = 3.0,
                    actual_elements: Optional[int] = None) -> dict:
    """``simulate``'s keywords: ``elements_per_place`` sizes the modelled arrays
    (1.5 GB a place), ``actual_elements`` (default: at most 65,536) the real ones."""
    real = min(elements_per_place, 65_536) if actual_elements is None else actual_elements
    return {"n_per_place": real, "iterations": iterations, "alpha": alpha,
            "modeled_per_place": elements_per_place}


def stream_report(result: dict, params: dict, places: int, sim_time: float) -> KernelResult:
    """Weak-scaling Stream Triad: the modelled bytes moved per second."""
    p = stream_params(**params)
    rate = p["mem_bytes"] * p["iterations"] * places / sim_time if sim_time > 0 else 0.0
    return KernelResult.of("stream", result, places, sim_time, rate, "B/s",
                           failures=result["failures"], iterations=p["iterations"])
