"""Tests for the core APGAS constructs: async, at, finish, compute."""

import pytest

from repro.errors import ApgasError, PlaceError
from repro.runtime import Pragma

from tests.runtime.conftest import make_runtime


def test_main_runs_at_place_zero():
    rt = make_runtime()
    seen = []

    def main(ctx):
        seen.append(ctx.here)
        yield ctx.compute(seconds=1e-6)

    rt.run(main)
    assert seen == [0]


def test_main_return_value():
    rt = make_runtime()

    def main(ctx):
        yield ctx.compute(seconds=1e-6)
        return 42

    assert rt.run(main) == 42


def test_plain_function_bodies_allowed():
    rt = make_runtime()

    def main(ctx):
        return "no yields needed"

    assert rt.run(main) == "no yields needed"


def test_compute_advances_time_and_occupies_worker():
    rt = make_runtime()

    def main(ctx):
        yield ctx.compute(seconds=0.5)
        yield ctx.compute(seconds=0.25)

    rt.run(main)
    assert rt.now == pytest.approx(0.75)
    assert rt.place(0).busy_time() == pytest.approx(0.75)


def test_compute_flops_and_memory_terms():
    rt = make_runtime()

    def main(ctx):
        yield ctx.compute(flops=1e9, flop_rate=2e9)  # 0.5 s
        yield ctx.compute(mem_bytes=1e9, mem_bw=4e9)  # 0.25 s

    rt.run(main)
    assert rt.now == pytest.approx(0.75)


def test_compute_requires_rates():
    rt = make_runtime()

    def main(ctx):
        yield ctx.compute(flops=100)

    with pytest.raises(ApgasError, match="flop_rate"):
        rt.run(main)


def test_local_async_runs_under_finish():
    rt = make_runtime()
    order = []

    def main(ctx):
        with ctx.finish() as f:
            ctx.async_(child, "a")
            ctx.async_(child, "b")
        yield f.wait()
        order.append("after")

    def child(ctx, tag):
        yield ctx.compute(seconds=1e-3)
        order.append(tag)

    rt.run(main)
    assert order == ["a", "b", "after"]


def test_at_async_runs_remotely():
    rt = make_runtime()
    seen = []

    def main(ctx):
        with ctx.finish() as f:
            ctx.at_async(9, child)
        yield f.wait()

    def child(ctx):
        seen.append(ctx.here)
        yield ctx.compute(seconds=1e-6)

    rt.run(main)
    assert seen == [9]


def test_remote_eval_returns_value():
    rt = make_runtime()

    def main(ctx):
        value = yield ctx.at(5, compute_there, 20)
        return value

    def compute_there(ctx, x):
        yield ctx.compute(seconds=1e-6)
        return x + ctx.here

    assert rt.run(main) == 25


def test_remote_eval_at_here_is_direct():
    rt = make_runtime()

    def main(ctx):
        value = yield ctx.at(0, lambda c: c.here * 10)
        return value

    assert rt.run(main) == 0
    assert rt.obs.metrics.value("runtime.remote_evals") == 1


def test_remote_eval_propagates_exception():
    rt = make_runtime()

    def main(ctx):
        try:
            yield ctx.at(3, boom)
        except ValueError as exc:
            return f"caught {exc}"

    def boom(ctx):
        raise ValueError("remote boom")

    assert rt.run(main) == "caught remote boom"


def test_nested_finish_scopes():
    rt = make_runtime()
    order = []

    def main(ctx):
        with ctx.finish() as outer:
            ctx.at_async(1, leaf, "outer-child")
            with ctx.finish() as inner:
                ctx.at_async(2, leaf, "inner-child")
            yield inner.wait()
            order.append("inner-done")
        yield outer.wait()
        order.append("outer-done")

    def leaf(ctx, tag):
        yield ctx.compute(seconds=1e-4)
        order.append(tag)

    rt.run(main)
    assert order.index("inner-child") < order.index("inner-done")
    assert order[-1] == "outer-done"
    assert order.index("outer-child") < order.index("outer-done")


def test_finish_waits_for_transitive_children():
    rt = make_runtime()
    done = []

    def main(ctx):
        with ctx.finish() as f:
            ctx.at_async(1, middle)
        yield f.wait()
        done.append("finish")

    def middle(ctx):
        ctx.at_async(2, leaf)  # inherited governing finish
        yield ctx.compute(seconds=1e-5)

    def leaf(ctx):
        yield ctx.compute(seconds=5e-3)  # much longer than middle
        done.append("leaf")

    rt.run(main)
    assert done == ["leaf", "finish"]


def test_fib_recursive_parallel_decomposition():
    """The paper's Section 2 fibonacci example."""
    rt = make_runtime()

    def fib(ctx, n):
        if n < 2:
            return n
        box = {}

        def f1(c):
            box["f1"] = yield from fib(c, n - 1)

        with ctx.finish(Pragma.FINISH_LOCAL) as f:
            ctx.async_(f1)
            f2 = yield from fib(ctx, n - 2)
        yield f.wait()
        return box["f1"] + f2

    assert rt.run(fib, 10) == 55


def test_spawn_to_invalid_place_rejected():
    rt = make_runtime()

    def main(ctx):
        with ctx.finish() as f:
            ctx.at_async(99, lambda c: None)
        yield f.wait()

    with pytest.raises(PlaceError):
        rt.run(main)


def test_activity_must_close_finish_scopes():
    rt = make_runtime()

    def main(ctx):
        ctx.finish().__enter__()  # leaked scope
        yield ctx.compute(seconds=1e-6)

    with pytest.raises(ApgasError, match="open finish scope"):
        rt.run(main)


def test_stats_counters():
    rt = make_runtime()

    def main(ctx):
        with ctx.finish() as f:
            for p in range(4):
                ctx.at_async(p + 1, lambda c: None)
            ctx.async_(lambda c: None)
        yield f.wait()

    rt.run(main)
    assert rt.obs.metrics.value("runtime.remote_spawns") == 4
    assert rt.obs.metrics.value("runtime.activities_spawned") == 6  # main + 4 remote + 1 local


def test_independent_places_compute_in_parallel():
    rt = make_runtime()

    def main(ctx):
        with ctx.finish() as f:
            for p in ctx.places():
                ctx.at_async(p, worker)
        yield f.wait()

    def worker(ctx):
        yield ctx.compute(seconds=1.0)

    rt.run(main)
    assert rt.now < 1.1  # 16 place-seconds of work in ~1s of simulated time
