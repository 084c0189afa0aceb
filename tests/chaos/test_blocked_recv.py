"""A place death fails blocked receives on the simulator, as on procs.

``ApgasRuntime._on_place_death`` fails every blocked mailbox getter and
poisons ``recv`` until the death is acknowledged (or the place revived), so
neither a bare ``ctx.recv`` nor a message-program collective waiting on a
dead place ends the run in a deadlock.  The procs side of the collective
check is in ``tests/xrt/test_procs_chaos.py``.
"""

import functools

import numpy as np
import pytest

from repro.errors import DeadPlaceError
from repro.runtime import ApgasRuntime, PlaceGroup, broadcast_spawn


def test_blocked_recv_raises_when_the_place_it_waits_on_dies():
    def main(ctx):
        yield ctx.recv("never")

    with pytest.raises(DeadPlaceError) as excinfo:
        ApgasRuntime(places=3, chaos="seed=0,kill=2@1e-4").run(main)
    assert excinfo.value.place == 2


def test_recv_stays_poisoned_until_the_death_is_acknowledged():
    seen = []

    def main(ctx):
        try:
            yield ctx.recv("never")
        except DeadPlaceError as exc:
            seen.append(("blocked", exc.place, ctx.now))
        with pytest.raises(DeadPlaceError, match="poisons blocking receives") as excinfo:
            ctx.recv("never")
        seen.append(("poisoned", excinfo.value.place))
        ctx.acknowledge_deaths()
        ctx.send(ctx.here, "box", "after")
        seen.append(("lifted", (yield ctx.recv("box"))))
        assert ctx.dead_places() == (2,)  # acknowledged, not revived
        return "checked"

    assert ApgasRuntime(places=3, chaos="seed=0,kill=2@1e-4").run(main) == "checked"
    assert seen == [("blocked", 2, 1e-4), ("poisoned", 2), ("lifted", "after")]


def allreduce_until_killed(ctx, team, rounds: int):
    """A team member allreducing ``rounds`` times; a kill lands in between."""
    for _ in range(rounds):
        yield team.allreduce(ctx, np.ones(512))


def allreduce_loop_main(ctx, rounds: int):
    team = ctx.team(ctx.places())
    body = functools.partial(allreduce_until_killed, team=team, rounds=rounds)
    yield from broadcast_spawn(ctx, PlaceGroup(team.members), body)
    return {}


def test_kill_mid_message_program_allreduce_is_a_dead_place_error():
    rt = ApgasRuntime(places=4, collectives_emulated=True, chaos="seed=0,kill=2@2e-5")
    with pytest.raises(DeadPlaceError) as excinfo:
        rt.run(allreduce_loop_main, 1000)
    assert excinfo.value.place == 2
    # the survivors stopped at the death, long before 1000 allreduces
    assert rt.now < 1e-3


def test_resilient_kmeans_recovers_through_the_message_program():
    """A kill mid-epoch fails the survivors' message-program allreduce; the
    epoch aborts, the place is revived, and the result is the fault-free one."""
    from repro.kernels.portable.resilient import build_resilient_program

    program = build_resilient_program("kmeans", 4)
    fault_free = ApgasRuntime(places=4, collectives_emulated=True).run(program)
    rt = ApgasRuntime(places=4, collectives_emulated=True, chaos="seed=0,kill=2@1e-5")
    result = rt.run(program)
    assert result["checksum"] == fault_free["checksum"]
    assert result["_resilient"]["aborts"] == 1 and result["_resilient"]["revivals"] == 1
