"""Tests for the distributed six-step FFT."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.kernels.fft import fft_six_step_reference, run_fft
from repro.kernels.fft.fft import within_allclose

from tests.kernels.conftest import make_rt


@pytest.mark.parametrize("n1,n2", [(4, 4), (8, 4), (4, 8), (16, 16), (8, 32)])
def test_six_step_reference_equals_numpy(n1, n2):
    rng = np.random.default_rng(1)
    x = rng.normal(size=n1 * n2) + 1j * rng.normal(size=n1 * n2)
    ours = fft_six_step_reference(x, n1, n2)
    np.testing.assert_allclose(ours, np.fft.fft(x), atol=1e-9)


def test_six_step_shape_mismatch_rejected():
    with pytest.raises(KernelError):
        fft_six_step_reference(np.zeros(8, dtype=complex), 4, 4)


@pytest.mark.parametrize("places", [1, 2, 4, 8])
def test_distributed_fft_correct(places):
    rt = make_rt(places=places)
    result = run_fft(rt, n1=16, n2=32, seed=2)
    assert result.verified, f"max err {result.extra['max_err']}"


def test_distributed_fft_rectangular():
    rt = make_rt(places=4)
    result = run_fft(rt, n1=64, n2=8)
    assert result.verified


def test_indivisible_dimensions_rejected():
    rt = make_rt(places=8)
    with pytest.raises(KernelError, match="divisible"):
        run_fft(rt, n1=12, n2=8)


def test_single_place_rate_matches_calibration():
    from repro.harness.calibration import DEFAULT_CALIBRATION

    rt = make_rt(places=1)
    result = run_fft(rt, n1=64, n2=64, modeled_elements_per_place=1 << 24)
    # with one place there is no communication: rate ~= the calibrated rate
    assert result.per_core == pytest.approx(DEFAULT_CALIBRATION.fft_flops, rel=0.05)


def test_alltoall_dominates_at_multi_octant_scale():
    """Per-core FFT rate drops when the transposes cross the network."""
    solo = run_fft(make_rt(places=1), n1=64, n2=64, modeled_elements_per_place=1 << 22)
    multi = run_fft(make_rt(places=16), n1=64, n2=64, modeled_elements_per_place=1 << 22)
    assert multi.per_core < solo.per_core


def test_result_metadata():
    rt = make_rt(places=2)
    result = run_fft(rt, n1=8, n2=8)
    assert result.kernel == "fft"
    assert result.unit == "flop/s"
    assert result.value > 0


def test_single_pass_check_is_np_allclose():
    """``run_fft`` verifies from one ``|result - expected|`` array; inside, at
    and just past the tolerance it agrees with ``np.allclose``."""
    rng = np.random.default_rng(3)
    expected = np.concatenate([np.zeros(4, complex), rng.normal(size=60) + 1j * rng.normal(size=60)])
    atol = 1e-6
    bound = atol + 1e-5 * np.abs(expected)
    verdicts, at_tolerance = set(), 0
    for e, b in zip(expected, bound):
        for offset in (0.5 * b, np.nextafter(b, 0), b, np.nextafter(b, np.inf), 2 * b):
            for r in (e + offset, e + 1j * offset, e - offset):
                err = np.abs(np.array([r - e]))
                at_tolerance += int(err[0] == b)
                got = within_allclose(err, np.abs(np.array([e])), atol)
                assert got == np.allclose([r], [e], atol=atol)
                verdicts.add(got)
    assert verdicts == {True, False} and at_tolerance > 0
    result = expected + bound * rng.uniform(0.0, 1.0, size=expected.shape)
    for r in (result, result + bound):
        got = within_allclose(np.abs(r - expected), np.abs(expected), atol)
        assert got == np.allclose(r, expected, atol=atol)
