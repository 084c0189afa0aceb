"""Tests for EP Stream Triad."""

import numpy as np
import pytest

from repro.errors import KernelError
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
