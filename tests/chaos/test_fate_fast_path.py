"""The fast fate draw equals the slow one it shadows, bit for bit.

:meth:`ChaosInjector.fate` draws its Bernoulli tests with the generator's
bound ``random`` and its exponentials with the bound ``exponential``.  The
oracle (``tests/chaos/fate_oracle.py``) is the form it replaced: every test a
``RngStream.uniform()`` draw, the reorder hold ``uniform(0.0, window)``.  Both
injectors share a spec and a seed; every verdict, every counter, every trace
instant and the stream position afterwards must be equal, not close.
"""

import pytest

from repro.chaos import ChaosInjector, ChaosSpec
from repro.chaos.injector import _CLEAN
from repro.obs import Observability
from repro.sim.engine import Engine

from tests.chaos.fate_oracle import fate_reference

SPEC = "seed=5,drop=0.1,dup=0.2,delay=0.3:2e-5,reorder=0.25:5e-5,degrade=4@0.001"
CALLS = 12_000


def _injector(trace: bool) -> ChaosInjector:
    return ChaosInjector(ChaosSpec.parse(SPEC), Engine(), Observability(trace=trace))


def _counters(inj: ChaosInjector) -> dict:
    return {name: c.value for name, c in vars(inj).items() if name.startswith("_c_")}


def _instants(inj: ChaosInjector) -> list:
    return [(e.name, e.place, e.ts, e.args) for e in inj.obs.trace.events]


def _position(inj: ChaosInjector) -> tuple:
    """The Philox stream position: counter, key, buffered outputs."""
    state = inj.rng.generator.bit_generator.state
    return (
        tuple(state["state"]["counter"]), tuple(state["state"]["key"]),
        tuple(state["buffer"]), state["buffer_pos"], state["has_uint32"], state["uinteger"],
    )


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_fast_fate_equals_the_uniform_oracle(trace):
    fast, slow = _injector(trace), _injector(trace)
    seen = {"drop": 0, "dup": 0, "extra": 0, "clean": 0}
    for i in range(CALLS):
        now = i * 1e-7  # crosses degrade_after at call 10,000
        src, dst = i % 64, (i * 7 + 33) % 64
        got = fast.fate(src, dst, now, tag=i)
        want = fate_reference(slow, src, dst, now, tag=i)
        assert (got.drop, got.extra_delay, got.dup_delay) == (
            want.drop, want.extra_delay, want.dup_delay
        ), f"call {i}"
        assert type(got.extra_delay) is float and type(got.dup_delay) is type(want.dup_delay)
        assert (got is _CLEAN) == (want is _CLEAN)
        assert fast.degrade_factor(now) == slow.degrade_factor(now)
        seen["drop"] += got.drop
        seen["dup"] += got.dup_delay is not None
        seen["extra"] += got.extra_delay > 0.0
        seen["clean"] += got is _CLEAN
    assert min(seen.values()) > 500, seen  # every branch was taken, often
    assert _counters(fast) == _counters(slow)
    assert _instants(fast) == _instants(slow)
    assert (len(fast.obs.trace) > 0) is trace
    assert _position(fast) == _position(slow)
    assert fast.rng.uniform() == slow.rng.uniform()
