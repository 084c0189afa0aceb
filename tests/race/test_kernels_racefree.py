"""The race-detector regression matrix over the shipped kernels.

Two guarantees:

* every kernel is determinacy-race-free under the dynamic checker, as a
  full-simulator run and as a portable program;
* detection is observationally free — a detector-on traced run produces the
  *bit-identical* trace of a detector-off run (the PR 1 tracer contract:
  the detector never schedules engine events and never writes to the
  tracer).
"""

import pytest

from repro.harness.runner import simulate
from repro.kernels.portable import build_program
from repro.runtime.runtime import ApgasRuntime
from tests.sim._diff import KERNEL_PLACES, canonical_digest, run_fingerprint


@pytest.mark.parametrize("kernel", sorted(KERNEL_PLACES))
def test_kernel_is_race_free_and_trace_invariant(kernel):
    places = KERNEL_PLACES[kernel]
    result = simulate(kernel, places, trace=True, race=True)
    detector = result.extra["race"]
    assert detector.clean, [r.describe() for r in detector.races]
    assert detector.races == []
    # the detector observed real accesses (the kernels do use ctx.store),
    # yet the trace is the detector-off trace, bit for bit
    baseline = run_fingerprint(kernel, places)
    assert canonical_digest(result.extra["trace"]) == baseline["trace_digest"]


@pytest.mark.parametrize("kernel", sorted(KERNEL_PLACES))
def test_portable_program_is_race_free(kernel):
    rt = ApgasRuntime(places=4, race=True)
    rt.run(build_program(kernel, 4))
    assert rt.race.clean, [r.describe() for r in rt.race.races]
