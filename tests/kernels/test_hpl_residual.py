"""The blockwise HPL residual against the whole-matrix oracle it replaced, and
the benchmark's HPL runs pinned bit for bit across the change."""

import hashlib
import math

import numpy as np
import pytest

import repro.kernels.hpl.hpl as hpl_driver
from repro.harness.runner import simulate
from repro.kernels.hpl.hpl import matrix_columns
from repro.kernels.hpl.lu import blocked_lu_inplace, reconstruction_residual

from tests.kernels.hpl_residual_oracle import reconstruction_residual_full


def _factored(A0: np.ndarray, nb: int):
    A = A0.copy()
    return A, blocked_lu_inplace(A, nb)


def _assert_equals_oracle(A0: np.ndarray, LU: np.ndarray, swaps) -> float:
    before = (A0.copy(), LU.copy())
    got = reconstruction_residual(A0, LU, swaps)
    assert got.hex() == reconstruction_residual_full(A0, LU, swaps).hex()
    # neither argument is written
    np.testing.assert_array_equal(A0, before[0])
    np.testing.assert_array_equal(LU, before[1])
    return got


@pytest.mark.parametrize("n,nb", [(1, 1), (63, 9), (65, 5), (200, 8), (256, 16)])
def test_residual_equals_the_oracle(n, nb):
    """Orders below, just above and across the block width."""
    for seed in range(3):
        A0 = np.random.default_rng(seed).uniform(-0.5, 0.5, size=(n, n))
        assert _assert_equals_oracle(A0, *_factored(A0, nb)) < 1e-13


@pytest.mark.parametrize("n", [24, 256])
def test_residual_with_a_zero_column_panel(n):
    A0 = np.random.default_rng(4).uniform(-0.5, 0.5, size=(n, n))
    A0[:, 8:16] = 0.0  # the second panel stays zero through elimination
    A0[:, 5] = 0.0  # and a zero column inside the first
    LU, swaps = _factored(A0, 8)
    assert _assert_equals_oracle(A0, LU, swaps) < 1e-13


@pytest.mark.parametrize("n", [64, 256])
def test_residual_with_no_swaps(n):
    rng = np.random.default_rng(5)
    A0 = rng.uniform(-0.5, 0.5, size=(n, n)) + n * np.eye(n)  # dominant diagonal
    LU, swaps = _factored(A0, 16)
    assert swaps == []
    assert _assert_equals_oracle(A0, LU, swaps) < 1e-13


def test_a_nan_anywhere_makes_the_residual_nan():
    n = 256
    A0 = np.random.default_rng(6).uniform(-0.5, 0.5, size=(n, n))
    LU, swaps = _factored(A0, 16)
    LU[n - 1, n - 1] = np.nan  # only the last tile sees it
    assert math.isnan(reconstruction_residual(A0, LU, swaps))
    assert math.isnan(reconstruction_residual_full(A0, LU, swaps))


# -- sim_hpl_256: simulate("hpl", 256, N=640, seed=s) --------------------------------
#
# residual and sim_time as float.hex(); the first 16 hex digits of the SHA-256
# of repr(swap list) and of metrics.render().  Recorded when the matrix was
# first drawn column by column, from a driver that still factored one whole
# matrix; the program that holds each block column at its owner reproduces
# every value.  Time and metrics were pinned again when the program took over
# the collection (255 ``at`` calls at place 0): residual and swaps stayed.
_PINNED = {
    0: ("0x1.f333e18724816p-55", "0x1.33ac93bab189fp+12", "197069ea7776505c", "e72026f1265b7112"),
    1: ("0x1.d00032f1738e2p-55", "0x1.339efca51e5efp+12", "2564f73380afa251", "88d618431bc38428"),
    2: ("0x1.a3333d17c969ep-55", "0x1.33a3258ada999p+12", "78c313ff45585d2b", "64fa0560b1c90457"),
    3: ("0x1.70001563aad49p-55", "0x1.33a072100a2fbp+12", "e99bb4863a1bd4a1", "96fc0c7062a1335c"),
    4: ("0x1.a000149094488p-55", "0x1.33a48ebaf4ea5p+12", "6ac0802ca5d92bc3", "8d14b1d080917d57"),
    5: ("0x1.b000d51d61f9ap-55", "0x1.3398fb630b8c7p+12", "1518a4dbd8e06d5d", "a2471ceeb1cbc6b7"),
    6: ("0x1.90004884f1349p-55", "0x1.339fc3a62f135p+12", "8b547e24f8d1995c", "c863154ccb4b7739"),
    7: ("0x1.e3333e033cb96p-55", "0x1.33a0fcb0690c1p+12", "b7b169c7e19aa69b", "86f64f0baabf84bb"),
    8: ("0x1.033353c5b47e2p-54", "0x1.33968934c5466p+12", "99c52806b4a07930", "1b17e4515a6e6a5d"),
    9: ("0x1.080004d150969p-54", "0x1.3398d84b2d3c6p+12", "5e5cd521c6b1a9df", "f23cdc07dbfe494f"),
    10: ("0x1.a0002a3a30445p-55", "0x1.339844ce0a243p+12", "625b57a7c5a98907", "9e96ed03e65a322f"),
    11: ("0x1.accd0dac1fc2dp-55", "0x1.33a684fcd240dp+12", "926118239b567cea", "2a91def2efeef8c1"),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("seed", sorted(_PINNED))
def test_benchmark_runs_keep_their_bits(seed, monkeypatch):
    """Each run's residual, time, swaps and metrics, and on the very factors
    the run produced, the blockwise residual equals the oracle's."""
    factored, swaps = [], []
    factor_panel, residual = hpl_driver.factor_panel, hpl_driver.reconstruction_residual

    def recording_factor_panel(panel, k0):
        step = factor_panel(panel, k0)
        swaps.extend(step)
        return step

    def recording_residual(A0, LU, run_swaps):
        factored[:] = [LU, run_swaps]
        return residual(A0, LU, run_swaps)

    monkeypatch.setattr(hpl_driver, "factor_panel", recording_factor_panel)
    monkeypatch.setattr(hpl_driver, "reconstruction_residual", recording_residual)
    r = simulate("hpl", 256, N=640, seed=seed)
    got = (
        r.extra["residual"].hex(),
        r.sim_time.hex(),
        _digest(repr(swaps)),
        _digest(r.extra["metrics"].render()),
    )
    assert got == _PINNED[seed]
    LU, run_swaps = factored
    assert run_swaps == swaps  # the assembled list is the steps' swaps in order
    A0 = matrix_columns(seed, 640, 0, 640)
    assert _assert_equals_oracle(A0, LU, swaps).hex() == _PINNED[seed][0]
