"""The epoch coordinator on the simulator: commit/abort epochs, member
healing, and the recovery guarantees (re-execute only the lost epoch,
byte-identical retries)."""

import pytest

from repro.errors import DeadPlaceError, ResilientError
from repro.harness.runner import make_runtime
from repro.kernels.portable.resilient import build_resilient_program
from repro.resilient import run_resilient_epochs
from repro.xrt.backend import get_backend

from tests.chaos.conftest import STEP_CAP, counter_total, make_chaos_runtime


class Counting:
    """A tiny resilient 'kernel': every member accumulates epoch numbers.

    State is one integer per place; the body returns the running total as
    its checkpoint blob and restore takes it back, so after any number of
    kills the total equals the fault-free sum.
    """

    def __init__(self, rt, work_seconds=1e-4):
        self.rt = rt
        self.work_seconds = work_seconds
        self.state = {}
        self.executions = []  # (place, epoch) of every body run, retries too
        self.committed = {}

    def body(self, ctx, epoch, tag):
        self.executions.append((ctx.here, epoch))
        yield ctx.compute(seconds=self.work_seconds)
        self.state[ctx.here] += epoch + 1
        return self.state[ctx.here]

    def restore(self, ctx, committed_epoch, blob):
        self.state[ctx.here] = 0 if blob is None else blob

    def run(self, epochs, **coordinator_kw):
        def main(ctx):
            self.committed, _stats = yield from run_resilient_epochs(
                ctx, epochs, self.body, self.restore, **coordinator_kw
            )

        self.rt.run(main, max_events=STEP_CAP)


def expected_total(places, epochs):
    return places * sum(e + 1 for e in range(epochs))


# An epoch takes about 120 us of simulated time: 100 us of body plus its wave.
# A kill at 200 us lands inside epoch 1's body; one at 550 us inside the body
# of epoch 3 of a run that already retried epoch 1.


def test_fault_free_run_commits_every_epoch():
    rt = make_chaos_runtime(8, chaos="seed=0")
    kernel = Counting(rt)
    kernel.run(epochs=4)
    assert sum(kernel.committed.values()) == expected_total(8, 4)
    assert counter_total(rt, "resilient.epochs_committed") == 4
    assert counter_total(rt, "resilient.epochs_aborted") == 0


def test_kill_mid_epoch_aborts_heals_and_converges_to_fault_free_result():
    rt = make_chaos_runtime(8, chaos="seed=0,kill=3@2e-4")
    kernel = Counting(rt)
    kernel.run(epochs=4)
    assert sum(kernel.committed.values()) == expected_total(8, 4)
    assert counter_total(rt, "resilient.epochs_aborted") >= 1
    assert counter_total(rt, "resilient.recoveries") >= 1
    assert counter_total(rt, "chaos.place_revivals") == 1
    assert not rt.chaos.dead_places


def test_only_the_torn_epoch_is_reexecuted():
    rt = make_chaos_runtime(4, chaos="seed=0,kill=2@2e-4")
    kernel = Counting(rt)
    kernel.run(epochs=4)
    # epoch 0 committed before the kill; no member ever re-runs it
    reruns = {
        (p, e) for p, e in kernel.executions
        if kernel.executions.count((p, e)) > 1
    }
    assert reruns and all(e != 0 for _p, e in reruns)
    assert sum(kernel.committed.values()) == expected_total(4, 4)


def test_double_kill_at_different_epochs_recovers_twice():
    rt = make_chaos_runtime(8, chaos="seed=0,kill=3@2e-4+5@5.5e-4")
    kernel = Counting(rt)
    kernel.run(epochs=5)
    assert sum(kernel.committed.values()) == expected_total(8, 5)
    assert counter_total(rt, "chaos.place_revivals") == 2
    assert counter_total(rt, "resilient.epochs_aborted") == 2


def test_coordinator_place_death_stays_fatal():
    # place 0 hosts the coordinator: Resilient X10's distinguished place
    rt = make_chaos_runtime(8, chaos="seed=0,kill=0@2e-4")
    kernel = Counting(rt)
    with pytest.raises(DeadPlaceError):
        kernel.run(epochs=4)


def test_unrecoverable_when_epoch_keeps_aborting():
    rt = make_chaos_runtime(8, chaos="seed=0,kill=3@2e-4")
    kernel = Counting(rt)
    with pytest.raises(ResilientError):
        # one attempt per epoch: the first abort gives up
        kernel.run(epochs=4, max_attempts=1)


def test_deaths_tolerated_counter_counts_adoptions():
    rt = make_chaos_runtime(8, chaos="seed=0,kill=3@2e-4")
    kernel = Counting(rt)
    kernel.run(epochs=4)
    assert counter_total(rt, "finish.deaths_tolerated") >= 1


# -- the portable programs on the simulator ----------------------------------------


@pytest.mark.parametrize("kernel, params, checksum", [
    ("kmeans", {}, "af4cb8dee2ac2cdd"),
    ("stream", {}, "f61fd7627f38bb2a"),
    ("uts", {"depth": 7}, "9b64184a1f128ce7"),
], ids=["kmeans", "stream", "uts"])
def test_portable_resilient_program_matches_the_plain_program(kernel, params, checksum):
    # the coordinator the procs backend runs, here on an ApgasRuntime
    assert get_backend("sim").run(kernel, 4, **params).checksum == checksum
    rt = make_runtime(4)
    result = rt.run(build_resilient_program(kernel, 4, **params))
    assert result["checksum"] == checksum
    assert result["_resilient"]["aborts"] == 0
    assert counter_total(rt, "resilient.epochs_committed") == result["_resilient"]["commits"]


#: (kernel, params, chaos): a kill that lands mid-run on the small machine;
#: fault-free, kmeans takes about 30 us of simulated time, stream 20 us and
#: uts 10.5 ms
SIM_KILL_ROWS = [
    ("kmeans", {}, "seed=0,kill=2@1e-5"),
    ("stream", {}, "seed=0,kill=2@1e-6"),
    ("uts", {"depth": 7}, "seed=0,kill=2@1e-3"),
]


@pytest.mark.parametrize("kernel, params, chaos", SIM_KILL_ROWS,
                         ids=[f"{k}-{c}" for k, _, c in SIM_KILL_ROWS])
def test_portable_resilient_program_survives_a_simulator_kill(kernel, params, chaos):
    # the survivors' collectives fail on the death instead of blocking forever
    fault_free = get_backend("sim").run(kernel, 4, **params).checksum
    rt = make_chaos_runtime(4, chaos=chaos)
    result = rt.run(build_resilient_program(kernel, 4, **params), max_events=STEP_CAP)
    assert result["checksum"] == fault_free
    assert counter_total(rt, "resilient.recoveries") >= 1
    assert result["_resilient"]["revivals"] >= 1
