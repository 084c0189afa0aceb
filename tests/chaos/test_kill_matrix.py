"""The resilient kill matrix (CI gate): kill at each protocol phase, in each
resilient kernel, and require the recovered result to be *identical* to the
fault-free run — same checksum, same node count, no place left dead.

Phases are expressed as fractions of the kernel's own fault-free makespan, so
the kill lands early (initial distribution / first epoch), mid-run (steady
state), and late (tail / termination detection) regardless of kernel timing.
"""

import pytest

from repro.harness.runner import simulate
from repro.resilient import RESILIENT_KERNELS

PLACES = 8

#: fractions of the fault-free makespan at which the victim dies
PHASES = (0.25, 0.55, 0.9)

#: a mid-machine victim: GLB steals and lifelines both cross it
VICTIM = 3

_baseline_cache = {}


def baseline(kernel):
    if kernel not in _baseline_cache:
        result = simulate(kernel, PLACES)
        _baseline_cache[kernel] = (result.extra["checksum"], result.sim_time)
    return _baseline_cache[kernel]


@pytest.mark.parametrize("kernel", sorted(RESILIENT_KERNELS))
def test_resilient_matches_fault_free_without_faults(kernel):
    checksum, _makespan = baseline(kernel)
    result = simulate(kernel, PLACES, resilient=True)
    assert result.extra["checksum"] == checksum
    assert result.verified is not False


@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("kernel", sorted(RESILIENT_KERNELS))
def test_kill_at_phase_recovers_the_exact_result(kernel, phase):
    checksum, makespan = baseline(kernel)
    kill_time = phase * makespan
    result = simulate(
        kernel, PLACES, resilient=True, chaos=f"seed=0,kill={VICTIM}@{kill_time:g}"
    )
    assert result.extra["checksum"] == checksum, (
        f"{kernel}: kill at {phase:.0%} of makespan changed the result"
    )
    assert result.verified is not False
    snap = result.extra["metrics"]
    injector = result.extra["chaos"]
    # the kill actually fired and the place was elastically recovered
    assert snap.total("chaos.place_failures") == 1
    assert snap.total("chaos.place_revivals") == 1
    assert not injector.dead_places
    if kernel == "uts":
        # one traversal epoch: the torn attempt aborts, the retry commits
        assert snap.total("resilient.epochs_committed") == 1
        assert snap.total("resilient.epochs_aborted") >= 1
        assert snap.total("resilient.recoveries") >= 1


def test_double_kill_still_recovers_exact_uts_count():
    checksum, makespan = baseline("uts")
    spec = f"seed=0,kill=2@{0.3 * makespan:g}+5@{0.6 * makespan:g}"
    result = simulate("uts", PLACES, resilient=True, chaos=spec)
    assert result.extra["checksum"] == checksum
    assert result.extra["metrics"].total("chaos.place_revivals") == 2
