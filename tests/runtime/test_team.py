"""Tests for Team collectives (x10.util.Team)."""

import functools

import numpy as np
import pytest

from repro.errors import ApgasError
from repro.runtime import ApgasRuntime, PlaceGroup, Pragma, Team, broadcast_spawn

from tests.runtime.conftest import make_runtime


def run_team_program(rt, members, body):
    """Launch one activity per member running body(ctx, team); returns results by rank."""
    team = rt.team(members)
    results = {}

    def main(ctx):
        with ctx.finish(Pragma.FINISH_SPMD) as f:
            for rank, p in enumerate(members):
                ctx.at_async(p, member, rank)
        yield f.wait()

    def member(ctx, rank):
        results[rank] = yield from body(ctx, team)

    rt.run(main)
    return [results[r] for r in range(len(members))]


def test_barrier_synchronizes_members():
    rt = make_runtime()
    members = [0, 3, 8, 12]
    arrivals = []

    def body(ctx, team):
        yield ctx.compute(seconds=1e-3 * (ctx.here + 1))
        yield team.barrier(ctx)
        arrivals.append(ctx.now)
        return ctx.now

    times = run_team_program(rt, members, body)
    # everyone leaves the barrier at (nearly) the same instant, after the slowest
    assert max(times) - min(times) < 1e-9
    assert min(times) >= 13e-3


def test_allreduce_scalar_sum():
    rt = make_runtime()
    members = [0, 1, 2, 3]

    def body(ctx, team):
        total = yield team.allreduce(ctx, ctx.here + 1)
        return total

    assert run_team_program(rt, members, body) == [10, 10, 10, 10]


def test_allreduce_numpy_elementwise():
    rt = make_runtime()
    members = [0, 4, 8]

    def body(ctx, team):
        vec = np.array([1.0, float(ctx.here)])
        total = yield team.allreduce(ctx, vec)
        return total

    results = run_team_program(rt, members, body)
    for r in results:
        np.testing.assert_allclose(r, [3.0, 12.0])


def test_allreduce_does_not_mutate_inputs():
    rt = make_runtime()
    members = [0, 1]
    inputs = {}

    def body(ctx, team):
        vec = np.ones(3)
        inputs[ctx.here] = vec
        yield team.allreduce(ctx, vec)
        return None

    run_team_program(rt, members, body)
    for vec in inputs.values():
        np.testing.assert_allclose(vec, 1.0)


def test_allreduce_max_operator():
    rt = make_runtime()
    members = [0, 1, 2]

    def body(ctx, team):
        return (yield team.allreduce(ctx, ctx.here * 10, op=np.maximum))

    assert run_team_program(rt, members, body) == [20, 20, 20]


def test_broadcast_from_root():
    rt = make_runtime()
    members = [2, 5, 7]

    def body(ctx, team):
        value = "payload" if ctx.here == 5 else None
        return (yield team.broadcast(ctx, value, root=5))

    assert run_team_program(rt, members, body) == ["payload"] * 3


def test_alltoall_transpose_semantics():
    rt = make_runtime()
    members = [0, 1, 2]

    def body(ctx, team):
        rank = team.rank(ctx.here)
        outgoing = [f"{rank}->{dst}" for dst in range(3)]
        return (yield team.alltoall(ctx, outgoing))

    results = run_team_program(rt, members, body)
    assert results[0] == ["0->0", "1->0", "2->0"]
    assert results[2] == ["0->2", "1->2", "2->2"]


def test_disjoint_teams_allreduce_concurrently():
    """HPL's idiom: one team per process row, reducing at the same time."""
    rt = make_runtime()
    rows = [Team(rt, list(range(4))), Team(rt, list(range(4, 8)))]
    results = {}

    def main(ctx):
        with ctx.finish(Pragma.FINISH_SPMD) as f:
            for p in range(8):
                ctx.at_async(p, member)
        yield f.wait()

    def member(ctx):
        results[ctx.here] = yield rows[ctx.here // 4].allreduce(ctx, ctx.here)

    rt.run(main)
    assert all(results[p] == 0 + 1 + 2 + 3 for p in range(4))
    assert all(results[p] == 4 + 5 + 6 + 7 for p in range(4, 8))


def test_successive_collectives_keep_order():
    rt = make_runtime()
    members = [0, 1]

    def body(ctx, team):
        a = yield team.allreduce(ctx, 1)
        yield team.barrier(ctx)
        b = yield team.allreduce(ctx, 10)
        return (a, b)

    assert run_team_program(rt, members, body) == [(2, 20), (2, 20)]


def test_mismatched_ops_rejected():
    rt = make_runtime()
    team = Team(rt, [0, 1])

    def main(ctx):
        with ctx.finish() as f:
            ctx.at_async(0, a)
            ctx.at_async(1, b)
        yield f.wait()

    def a(ctx):
        yield team.barrier(ctx)

    def b(ctx):
        yield team.allreduce(ctx, 1)

    with pytest.raises(ApgasError, match="mismatch"):
        rt.run(main)


def test_non_member_rejected():
    rt = make_runtime()
    team = Team(rt, [1, 2])
    with pytest.raises(ApgasError, match="not a member"):
        team.rank(5)


def test_duplicate_members_rejected():
    rt = make_runtime()
    with pytest.raises(ApgasError, match="distinct"):
        Team(rt, [0, 0, 1])


def test_hw_collectives_faster_than_emulated():
    def run_with(emulated):
        rt = make_runtime(places=16, collectives_emulated=emulated)
        members = list(range(16))

        def body(ctx, team):
            for _ in range(5):
                yield team.allreduce(ctx, np.ones(1024))
            return None

        run_team_program(rt, members, body)
        return rt.now

    assert run_with(False) < run_with(True)


# -- ctx.team: one fold order on both runtimes --------------------------------------

#: a rank-order fold gives ((1e16 + 1) - 1e16) + 1 = 1.0, where a binomial
#: tree would give (1e16 + 1) + (-1e16 + 1) = 0.0
ORDER_SENSITIVE = (1e16, 1.0, -1e16, 1.0)


def _contribute(ctx, team):
    total = yield team.allreduce(ctx, ORDER_SENSITIVE[team.rank(ctx.here)])
    ctx.send(0, "team:totals", float(total))


def order_sensitive_allreduce_main(ctx):
    """Every member's allreduce total of :data:`ORDER_SENSITIVE`, at place 0."""
    team = ctx.team(ctx.places())
    group = PlaceGroup(ctx.places())
    yield from broadcast_spawn(ctx, group, functools.partial(_contribute, team=team))
    totals = []
    for _ in group:
        totals.append((yield ctx.recv("team:totals")))
    return {"totals": totals}


def test_ctx_team_folds_in_rank_order_on_the_simulator():
    # the procs side of this check is in tests/xrt/test_conformance.py
    result = ApgasRuntime(places=len(ORDER_SENSITIVE)).run(order_sensitive_allreduce_main)
    assert result == {"totals": [1.0] * len(ORDER_SENSITIVE)}


# -- every op, on a sub-team, on both paths --------------------------------------------

#: a 3-member sub-team of 4 places whose rank order is not place order
SUB_TEAM = (3, 1, 2)
#: a rank-order fold gives (1 + 1e16) - 1e16 = 0.0, where folding the last two
#: values first would give 1.0
SUB_TEAM_VALUES = (1.0, 1e16, -1e16)


def _every_op(ctx, team):
    rank = team.rank(ctx.here)
    total = yield team.allreduce(ctx, np.array([SUB_TEAM_VALUES[rank], float(rank)]))
    root = team.members[2]
    value = yield team.broadcast(ctx, ("from", ctx.here) if ctx.here == root else None, root=root)
    yield team.barrier(ctx)
    received = yield team.alltoall(ctx, [(rank, dst) for dst in range(team.size)])
    ctx.send(0, "team:ops", (rank, total.tolist(), value, received))


def team_ops_main(ctx):
    """Every member's result of allreduce, broadcast (root rank 2), barrier
    and alltoall on :data:`SUB_TEAM`, collected at place 0 (not a member)."""
    team = ctx.team(SUB_TEAM)
    yield from broadcast_spawn(ctx, PlaceGroup(list(SUB_TEAM)), functools.partial(_every_op, team=team))
    results = {}
    for _ in SUB_TEAM:
        rank, *result = yield ctx.recv("team:ops")
        results[rank] = result
    with pytest.raises(ApgasError, match="not a member"):
        team.rank(ctx.here)
    return {"results": [results[rank] for rank in range(len(SUB_TEAM))]}


#: what every path must return
TEAM_OPS_EXPECTED = {
    "results": [
        [[0.0, 3.0], ("from", 2), [(src, rank) for src in range(3)]] for rank in range(3)
    ]
}


@pytest.mark.parametrize("emulated", [False, True], ids=["hw", "emulated"])
def test_every_team_op_on_a_sub_team_on_the_simulator(emulated):
    # the procs side of this check is in tests/xrt/test_conformance.py
    rt = ApgasRuntime(places=4, collectives_emulated=emulated)
    assert rt.run(team_ops_main) == TEAM_OPS_EXPECTED
