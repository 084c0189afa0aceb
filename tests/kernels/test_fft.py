"""Tests for the distributed six-step FFT."""

import functools

import numpy as np
import pytest

from repro.errors import KernelError
from repro.harness.results import checksum_bytes
from repro.harness.runner import simulate
from repro.kernels.fft import fft_input, fft_main, fft_six_step_reference
from repro.kernels.fft.fft import fft_modelled, fft_report, twiddle, within_allclose
from repro.runtime import ApgasRuntime

from tests.kernels.conftest import run_small
from tests.kernels.host_math_oracle import fft_main_concatenated


@pytest.mark.parametrize("n1,n2", [(4, 4), (8, 4), (4, 8), (16, 16), (8, 32)])
def test_six_step_reference_equals_numpy(n1, n2):
    rng = np.random.default_rng(1)
    x = rng.normal(size=n1 * n2) + 1j * rng.normal(size=n1 * n2)
    ours = fft_six_step_reference(x, n1, n2)
    np.testing.assert_allclose(ours, np.fft.fft(x), atol=1e-9)


def test_six_step_shape_mismatch_rejected():
    with pytest.raises(KernelError):
        fft_six_step_reference(np.zeros(8, dtype=complex), 4, 4)


@pytest.mark.parametrize("places", [1, 2, 3, 4, 8])
def test_distributed_fft_correct(places):
    # at 3 places the rows split 5/5/6 and 10/11/11: the split is n*q//P
    result = run_small("fft", places, n1=16, n2=32, seed=2, modeled_elements_per_place=None)
    assert result.verified, f"max err {result.extra['max_err']}"


def test_distributed_fft_rectangular():
    result = run_small("fft", 4, n1=64, n2=8, modeled_elements_per_place=None)
    assert result.verified


def test_single_place_rate_matches_calibration():
    from repro.harness.calibration import DEFAULT_CALIBRATION

    result = run_small("fft", 1, n1=64, n2=64, modeled_elements_per_place=1 << 24)
    # with one place there is no communication: rate ~= the calibrated rate
    assert result.per_core == pytest.approx(DEFAULT_CALIBRATION.fft_flops, rel=0.05)


def test_alltoall_dominates_at_multi_octant_scale():
    """Per-core FFT rate drops when the transposes cross the network."""
    solo = run_small("fft", 1, n1=64, n2=64, modeled_elements_per_place=1 << 22)
    multi = run_small("fft", 16, n1=64, n2=64, modeled_elements_per_place=1 << 22)
    assert multi.per_core < solo.per_core


@pytest.mark.parametrize("n1,places", [(16, 3), (12, 8), (5, 4), (3, 5)])
def test_members_draw_rows_of_one_input(n1, places):
    """A member jumps to its rows of the one seeded input: the blocks of any
    place count stack up to the whole input, empty blocks included."""
    whole = fft_input(7, n1, 5)  # an odd row length: a member starts mid counter step
    blocks = [fft_input(7, n1, 5, rank, places) for rank in range(places)]
    assert sum(len(block) for block in blocks) == n1
    np.testing.assert_array_equal(np.concatenate(blocks), whole)


def test_result_metadata():
    result = run_small("fft", 2, n1=8, n2=8, modeled_elements_per_place=None)
    assert result.kernel == "fft"
    assert result.unit == "flop/s"
    assert result.value > 0


def test_single_pass_check_is_np_allclose():
    """``fft_report`` verifies from one ``|result - expected|`` array; inside, at
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


@pytest.mark.parametrize("rows,n1,n2", [(32, 128, 64), (128, 512, 256)])
def test_twiddle_is_local_times_factors_in_that_order(rows, n1, n2):
    """A 64 KiB and a 1 MiB block: the phase's bits are those of the explicit
    out-of-place ``np.multiply(local, tw)`` on both sides of NumPy's 256 KiB
    temporary-elision threshold, above which ``local * np.exp(...)`` became
    ``tw *= local``."""
    local = fft_input(3, rows, n1)
    k2 = np.arange(rows, 2 * rows)[:, None]
    tw = np.exp(-2j * np.pi * (k2 * np.arange(n1)[None, :]) / (n1 * n2))
    expected = np.multiply(local, tw)
    got = twiddle(local, rows, n1, n2)
    assert got.tobytes() == expected.tobytes()


# ``simulate("fft", 96, seed=s)``: (verified, max_err) of the out-of-place check
_PINNED_CHECKS = {
    0: (True, 1.2824459841656876e-12),
    1: (True, 1.2762107111897745e-12),
    2: (True, 1.3830600733622801e-12),
    3: (True, 1.4380373887290168e-12),
    4: (True, 1.4062285205060312e-12),
    5: (True, 1.3642420526593924e-12),
}


@pytest.mark.parametrize("seed", sorted(_PINNED_CHECKS))
def test_in_place_check_keeps_the_verdict_and_error(seed):
    result = simulate("fft", 96, seed=seed)
    assert (result.verified, result.extra["max_err"]) == _PINNED_CHECKS[seed]


def _row_blocks(spectrum: np.ndarray, n1: int, n2: int, places: int) -> list:
    """``spectrum`` as ``fft_main`` hands it on: member ``q``'s rows
    ``n2*q//P`` up to ``n2*(q+1)//P`` of the ``n2 x n1`` output, views."""
    rows = spectrum.reshape(n2, n1)
    return [rows[n2 * q // places : n2 * (q + 1) // places] for q in range(places)]


@pytest.mark.parametrize("places", [1, 3, 8, 24, 96])
def test_in_place_reference_has_the_bits_of_np_fft(places):
    """Handed the out-of-place ``np.fft.fft`` of the whole input as its
    members' row blocks, the check finds no error at all, and one ulp off in
    one element it finds that ulp: its in-place reference has the same bits."""
    params = fft_modelled(places, None)
    n = params["n1"]
    spectrum = np.fft.fft(fft_input(params["seed"], n, n).reshape(-1))
    result = {"checksum": "", "spectrum_rows": _row_blocks(spectrum, n, n, places)}
    report = fft_report(result, params, places, 1.0)
    assert report.verified and report.extra["max_err"] == 0.0
    spectrum[n] = np.nextafter(spectrum[n].real, np.inf) + 1j * spectrum[n].imag
    report = fft_report(result, params, places, 1.0)
    assert report.verified and 0.0 < report.extra["max_err"] <= 2 * np.spacing(abs(spectrum[n].real))


def _fft_main_result(main, places: int) -> dict:
    return ApgasRuntime(places=places).run(functools.partial(main, n1=12, n2=20, seed=4))


@pytest.mark.parametrize("places", [3, 5, 7])
def test_block_digest_is_the_concatenated_spectrum_digest(places):
    """The digest of the row blocks in rank order is the digest of the whole
    spectrum, as the concatenating collection took it, at uneven splits."""
    blocks = _fft_main_result(fft_main, places)["spectrum_rows"]
    assert len(blocks) == places
    whole = np.concatenate(blocks)
    assert checksum_bytes(*blocks) == checksum_bytes(whole)
    assert _fft_main_result(fft_main_concatenated, places)["checksum"] == checksum_bytes(whole)


def test_member_without_rows_verifies():
    """At 5 places a 4 x 4 transform leaves member 0 no rows at all."""
    result = simulate("fft", 5, n1=4, n2=4, seed=1, modeled_elements_per_place=None)
    assert result.verified and result.extra["checksum"] == "f02b3f1c34a2d797"


def _exact_blocks(places: int = 5):
    """The out-of-place transform of a 20 x 15 input in ``places`` row blocks."""
    params = fft_modelled(places, None, n1=20, n2=15, modeled_elements_per_place=None)
    spectrum = np.fft.fft(fft_input(params["seed"], 20, 15).reshape(-1))
    return _row_blocks(spectrum, 20, 15, places), params


def test_one_ulp_off_in_the_last_block_is_found():
    blocks, params = _exact_blocks()
    last = blocks[-1].reshape(-1)
    last[-1] = np.nextafter(last[-1].real, np.inf) + 1j * last[-1].imag
    report = fft_report({"checksum": "", "spectrum_rows": blocks}, params, 5, 1.0)
    assert report.verified and 0.0 < report.extra["max_err"] <= 2 * np.spacing(abs(last[-1].real))


def test_nan_in_a_middle_block_fails_the_check():
    """A NaN is no error below tolerance: the verdict is False and the maximum
    error NaN, as ``err.max()`` over the whole spectrum gave."""
    blocks, params = _exact_blocks()
    blocks[2][0, 3] = complex(np.nan, 0.0)
    report = fft_report({"checksum": "", "spectrum_rows": blocks}, params, 5, 1.0)
    assert not report.verified and np.isnan(report.extra["max_err"])
