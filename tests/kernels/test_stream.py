"""Tests for EP Stream Triad."""

import hashlib

import numpy as np
import pytest

from repro.errors import KernelError
from repro.harness.runner import simulate
from repro.kernels.stream import triad
from repro.machine.memory import stream_bw_per_place

from tests.kernels.conftest import make_rt, run_small


def test_triad_math():
    b = np.arange(10.0)
    c = np.ones(10)
    a = np.zeros(10)
    triad(a, b, c, alpha=3.0)
    np.testing.assert_array_equal(a, b + 3.0)


def test_run_verifies_everywhere():
    result = run_small("stream", 8, elements_per_place=10_000, iterations=3)
    assert result.verified
    assert result.extra["failures"] == []


def test_bandwidth_close_to_memory_model():
    rt = make_rt(places=4)  # one octant in the small machine
    n = 50_000_000  # large modeled arrays so spawn overhead vanishes
    result = run_small("stream", 4, elements_per_place=n, iterations=4)
    expected = 4 * stream_bw_per_place(rt.config, 4)
    assert result.value == pytest.approx(expected, rel=0.02)


def test_weak_scaling_efficiency_high():
    def per_core(places):
        return run_small("stream", places, elements_per_place=20_000_000, iterations=4).per_core

    solo = per_core(4)
    scaled = per_core(64)
    assert scaled / solo > 0.95  # paper: 98% at scale


def test_contention_reduces_per_place_bandwidth():
    solo = run_small("stream", 1, elements_per_place=20_000_000, iterations=4).per_core
    # a full octant in the small machine
    loaded = run_small("stream", 4, elements_per_place=20_000_000, iterations=4).per_core
    assert loaded < solo


def test_invalid_parameters_rejected():
    with pytest.raises(KernelError):
        run_small("stream", 8, elements_per_place=0)


def test_result_metadata():
    result = run_small("stream", 2, elements_per_place=1000, iterations=2)
    assert result.kernel == "stream"
    assert result.unit == "B/s"
    assert result.places == 2
    assert result.sim_time > 0


# (sim_time, checksum, sha256 of metrics.render() to 16 hex digits) of
# ``simulate("stream", P)`` while each member still ran a triad between charges
_PINNED = {
    1: (0.4761907780238095, "f28cf0979cf114a4", "beffbe848721be98"),
    3: (0.4761913828571429, "5838201f856e47fe", "ca914cd091a97076"),
    8: (0.47619259085714294, "62216d8ad92cc3fd", "42fe9e421289be69"),
    64: (0.829432062941326, "b1a3791b0dd7f89b", "8f6048c9f38bb8f3"),
}


@pytest.mark.parametrize("places", sorted(_PINNED))
def test_host_math_before_the_charges_keeps_every_number(places):
    """A member runs its rounds and check in the step it starts, then yields
    the charges: simulated time, checksum and every metric are those of the
    round-by-round run."""
    result = simulate("stream", places)
    text = result.extra["metrics"].render()
    got = (result.sim_time, result.extra["checksum"], hashlib.sha256(text.encode()).hexdigest()[:16])
    assert got == _PINNED[places]
    assert result.verified
