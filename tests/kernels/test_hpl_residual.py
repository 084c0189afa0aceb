"""The blockwise HPL residual against the whole-matrix oracle it replaced, and
the benchmark's HPL runs pinned bit for bit across the change."""

import hashlib
import math

import numpy as np
import pytest

import repro.kernels.hpl.hpl as hpl_driver
from repro.harness.runner import simulate
from repro.kernels.hpl.lu import blocked_lu_inplace, reconstruction_residual
from repro.sim.rng import RngStream

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
# of repr(swap list) and of metrics.render().  Recorded before the residual
# went blockwise and the driver stopped copying its matrix.
_PINNED = {
    0: ("0x1.90008baf91c39p-55", "0x1.33aad364f4e18p+12", "62745f0c1eaeff36", "f35c894cf01325f2"),
    1: ("0x1.d6669a0bbbc51p-55", "0x1.33a725b58777ap+12", "e30099f5700c41b4", "39e908db0e0dcb1b"),
    2: ("0x1.ccccd7acb6513p-55", "0x1.339fe13634b12p+12", "1c79b2305a956264", "caf6ecd98dadb35c"),
    3: ("0x1.9000173fcff23p-55", "0x1.3398843553949p+12", "7f1f8262ca670a92", "d3efde2d5aa63fd5"),
    4: ("0x1.4b3343929d70ep-54", "0x1.33a512faee335p+12", "bf8275e68d3662a3", "d1a4f0e249395c3b"),
    5: ("0x1.799a53e0cb353p-55", "0x1.339c127e92a63p+12", "15aea875a20e3fcd", "13508f5a25c9f31e"),
    6: ("0x1.a999e6c2b2d19p-55", "0x1.3398d52ec57c3p+12", "8da58d3e15530b5a", "a551d7e1709ca82c"),
    7: ("0x1.8999a2685bd92p-55", "0x1.33a1fc48f38b0p+12", "7d69b1f2954cb5cd", "5e67e500d109fd94"),
    8: ("0x1.833363db7c3e0p-55", "0x1.339a4911e5fcbp+12", "6a26073a7e6f7170", "ac937918af0846f4"),
    9: ("0x1.7999a07d9d281p-55", "0x1.339f4b1edfab9p+12", "f428bfd69ef9011c", "b8b958894e24a896"),
    10: ("0x1.83335a80fda9fp-55", "0x1.3398555c4915fp+12", "b2a75ed46473d755", "12cc1aabf2b88cc0"),
    11: ("0x1.7ccd066918628p-55", "0x1.339a6647318c0p+12", "7ba0101677f7ca36", "4c5707302d410be5"),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("seed", sorted(_PINNED))
def test_benchmark_runs_keep_their_bits(seed, monkeypatch):
    """Each run's residual, time, swaps and metrics, and on the very factors
    the run produced, the blockwise residual equals the oracle's."""
    factored, swaps = [], []
    panel_factor = hpl_driver.panel_factor

    def recording_panel_factor(A, k0, nb):
        factored[:] = [A]
        step = panel_factor(A, k0, nb)
        swaps.extend(step)
        return step

    monkeypatch.setattr(hpl_driver, "panel_factor", recording_panel_factor)
    r = simulate("hpl", 256, N=640, seed=seed)
    got = (
        r.extra["residual"].hex(),
        r.sim_time.hex(),
        _digest(repr(swaps)),
        _digest(r.extra["metrics"].render()),
    )
    assert got == _PINNED[seed]
    A0 = RngStream(seed, "hpl/matrix").uniform(-0.5, 0.5, size=(640, 640))
    assert _assert_equals_oracle(A0, factored[0], swaps).hex() == _PINNED[seed][0]
