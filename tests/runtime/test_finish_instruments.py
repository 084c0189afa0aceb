"""Hot paths hold their instruments: opening a finish costs one held counter
increment, not registry lookups, and the state moved off the open path reads
exactly as before.

``MetricsRegistry._get`` is the one get-or-create path behind ``counter``,
``gauge`` and ``histogram``; after each pragma, collective and broadcast has
run once on a runtime, none of them may reach it again.
"""

import pytest

from repro.errors import DeadPlaceError, FinishError
from repro.obs.metrics import MetricsRegistry
from repro.runtime import ApgasRuntime, PlaceGroup, Pragma, Team, broadcast_spawn
from repro.runtime.finish import BaseFinish
from repro.xrt.procs.finishproc import ProxyFinish
from repro.xrt.procs.loop import PlaceLoop
from repro.xrt.procs.runtime import ProcsRuntime

from tests.chaos.conftest import make_chaos_runtime, run_fanout


def _leaf(ctx):
    pass


def _collective_and_broadcast(rt, team):
    def member(ctx):
        yield team.allreduce(ctx, ctx.here)

    def main(ctx):
        with ctx.finish(Pragma.FINISH_SPMD) as f:
            for p in team.members:
                ctx.at_async(p, member)
        yield f.wait()
        yield from broadcast_spawn(ctx, PlaceGroup(list(range(16))), _leaf)

    rt.run(main)


def test_warm_hot_paths_make_no_registry_lookups(monkeypatch):
    rt = ApgasRuntime(64)
    team = Team(rt, list(range(16)))
    for pragma in Pragma:
        rt.open_finish(3, pragma)
    _collective_and_broadcast(rt, team)

    calls = 0
    real_get = MetricsRegistry._get

    def counting_get(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return real_get(self, *args, **kwargs)

    monkeypatch.setattr(MetricsRegistry, "_get", counting_get)
    for pragma in Pragma:
        for _ in range(1000):
            rt.open_finish(3, pragma)
    _collective_and_broadcast(rt, team)
    assert calls == 0, f"{calls} registry lookups on warm hot paths"
    assert rt.obs.metrics.value("finish.opened", pragma="finish_async") == 1001
    assert rt.obs.metrics.value("team.collectives", op="allreduce") == 2
    assert rt.obs.metrics.value("broadcast.tree_nodes") == 32


def test_unopened_pragmas_register_no_series():
    rt = ApgasRuntime(8)
    rt.open_finish(0, Pragma.FINISH_ASYNC)
    assert rt.obs.metrics.by_label("finish.opened", "pragma") == {"finish_async": 1}
    assert set(rt.obs.metrics.by_label("finish.ctl_bytes", "pragma")) == {"finish_async"}
    assert rt.obs.metrics.value("finish.dense.rerouted", default=None) is None
    rt.open_finish(0, Pragma.FINISH_DENSE)
    assert rt.obs.metrics.value("finish.dense.rerouted", default=None) == 0


def test_default_name_is_derived_exactly_as_before():
    rt = ApgasRuntime(8)
    fin = rt.open_finish(0, Pragma.FINISH_ASYNC)
    assert fin.name == f"finish_async#{fin.finish_id}"
    assert rt.open_finish(0, Pragma.FINISH_SPMD, name="bcast[0,8)").name == "bcast[0,8)"


def test_join_without_fork_text_is_unchanged():
    fin = ApgasRuntime(4).open_finish(0, Pragma.FINISH_SPMD)
    fin.fork(0, 0)
    fin.join(0)
    with pytest.raises(FinishError, match=r"^finish_spmd#1: join without a matching fork$"):
        fin.join(0)


@pytest.mark.parametrize("pragma", [Pragma.DEFAULT, Pragma.FINISH_SPMD, Pragma.FINISH_DENSE])
def test_strict_kill_names_the_finish_as_before(pragma):
    rt = make_chaos_runtime(16, chaos="seed=1,kill=7@5e-5")
    with pytest.raises(DeadPlaceError) as excinfo:
        run_fanout(rt, pragma=pragma, work_seconds=2e-4)
    assert excinfo.value.detected_by == f"{pragma.value}#2"
    assert str(excinfo.value) == (
        f"place 7 is dead (detected by {pragma.value}#2): "
        "1 live activities, 0 unreported terminations lost"
    )


def test_has_on_fork_is_a_class_attribute():
    from repro.runtime.finish import _IMPLEMENTATIONS

    overriding = {cls.__name__ for cls in _IMPLEMENTATIONS.values() if cls._has_on_fork}
    assert overriding == {"DefaultFinish"}
    assert BaseFinish._has_on_fork is False

    class Recording(BaseFinish):
        def on_fork(self, src, dst):
            pass

    assert Recording._has_on_fork is True


def test_procs_home_finishes_count_on_their_own_pragma():
    prt = ProcsRuntime(PlaceLoop(), place_id=0, n_places=4)
    prt.send_frame = lambda frame: None
    dense = prt.open_finish(0, Pragma.FINISH_DENSE)
    spmd = prt.open_finish(0, Pragma.FINISH_SPMD)
    assert (dense.pragma_value, spmd.pragma_value) == ("finish_dense", "finish_spmd")
    metrics = prt.obs.metrics
    assert metrics.by_label("finish.opened", "pragma") == {"finish_dense": 1, "finish_spmd": 1}
    # JOIN frames are counted by their sender, on the same held series
    proxy = ProxyFinish(prt, fid=(1, 1), pragma_value="finish_spmd", home=1)
    proxy.join(0)
    proxy.join(0)
    assert metrics.by_label("finish.ctl_messages", "pragma") == {
        "finish_dense": 0, "finish_spmd": 2,
    }


def test_procs_place_that_only_joins_holds_only_the_ctl_series():
    prt = ProcsRuntime(PlaceLoop(), place_id=2, n_places=4)
    prt.send_frame = lambda frame: None
    ProxyFinish(prt, fid=(0, 1), pragma_value="finish_spmd", home=0).join(2)
    assert prt.obs.metrics.snapshot().series() == ["finish.ctl_messages"]
    # a later home finish of the pragma registers the rest on the same entry
    prt.open_finish(2, Pragma.FINISH_SPMD)
    assert prt.obs.metrics.value("finish.ctl_messages", pragma="finish_spmd") == 1
    assert prt.obs.metrics.value("finish.opened", pragma="finish_spmd") == 1
