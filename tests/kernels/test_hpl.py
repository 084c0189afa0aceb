"""Tests for HPL: grids, the LU core, and the distributed driver."""

import hashlib
import warnings

import numpy as np
import pytest
import scipy.linalg

from repro.errors import KernelError
from repro.harness.runner import simulate
from repro.kernels.hpl import (
    ProcessGrid,
    blocked_lu_inplace,
    default_grid,
    reconstruction_residual,
)
from repro.harness.results import checksum_bytes
from repro.kernels.hpl.hpl import matrix_columns
from repro.kernels.hpl.lu import factor_panel, row_moves, solve_unit_lower
from repro.xrt.backend import get_backend

from tests.kernels.conftest import run_small


# -- grids -------------------------------------------------------------------------


def test_default_grid_nearly_square():
    assert (default_grid(16).P, default_grid(16).Q) == (4, 4)
    assert (default_grid(32).P, default_grid(32).Q) == (4, 8)
    assert (default_grid(1).P, default_grid(1).Q) == (1, 1)
    assert (default_grid(7).P, default_grid(7).Q) == (1, 7)


def test_grid_block_cyclic_ownership():
    g = ProcessGrid(2, 3)
    assert g.owner_of_block(0, 0) == 0
    assert g.owner_of_block(1, 0) == g.place_of(1, 0)
    assert g.owner_of_block(2, 3) == 0  # wraps around
    assert g.coords_of(5) == (1, 2)


def test_grid_row_col_places():
    g = ProcessGrid(2, 2)
    assert g.row_places(0) == [0, 1]
    assert g.col_places(1) == [1, 3]


def test_invalid_grid():
    with pytest.raises(KernelError):
        ProcessGrid(0, 2)


# -- the LU core --------------------------------------------------------------------


@pytest.mark.parametrize("n,nb", [(16, 4), (32, 8), (64, 16), (24, 8)])
def test_blocked_lu_reconstructs(n, nb):
    rng = np.random.default_rng(0)
    A0 = rng.uniform(-0.5, 0.5, size=(n, n))
    A = A0.copy()
    swaps = blocked_lu_inplace(A, nb)
    assert reconstruction_residual(A0, A, swaps) < 1e-13


def test_blocked_lu_matches_lapack_solution():
    """Solving with our factors must match scipy.linalg.solve."""
    rng = np.random.default_rng(3)
    n, nb = 32, 8
    A0 = rng.uniform(-0.5, 0.5, size=(n, n))
    b = rng.uniform(size=n)
    A = A0.copy()
    swaps = blocked_lu_inplace(A, nb)
    pb = b.copy()
    for r1, r2 in swaps:
        pb[[r1, r2]] = pb[[r2, r1]]
    L = np.tril(A, -1) + np.eye(n)
    U = np.triu(A)
    x = scipy.linalg.solve_triangular(U, scipy.linalg.solve_triangular(L, pb, lower=True))
    np.testing.assert_allclose(x, scipy.linalg.solve(A0, b), atol=1e-9)


def test_blocked_lu_pivoting_controls_growth():
    # a matrix that is catastrophically unstable without pivoting
    A0 = np.array([[1e-15, 1.0], [1.0, 1.0]])
    A = A0.copy()
    swaps = blocked_lu_inplace(A, 1)
    assert swaps == [(0, 1)]
    assert reconstruction_residual(A0, A, swaps) < 1e-15


def test_blocked_lu_validation():
    with pytest.raises(KernelError, match="square"):
        blocked_lu_inplace(np.zeros((4, 6)), 2)
    with pytest.raises(KernelError, match="multiple"):
        blocked_lu_inplace(np.zeros((10, 10)), 4)


# -- the NumPy core against LAPACK -----------------------------------------------------


def lapack_blocked_lu(A: np.ndarray, nb: int) -> list:
    """The same blocked LU with each panel factored by LAPACK getrf
    (``scipy.linalg.lu_factor``), its swaps applied to whole rows and the
    panel then overwritten by the factors; the U block row by trsm.  The
    oracle for the pivots."""
    n = A.shape[0]
    swaps = []
    for k0 in range(0, n, nb):
        k1 = k0 + nb
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)  # singular panels
            lu, piv = scipy.linalg.lu_factor(A[k0:, k0:k1], check_finite=False)
        for i, p in enumerate(piv):
            r1, r2 = k0 + i, k0 + int(p)
            if r1 != r2:
                swaps.append((r1, r2))
                A[[r1, r2]] = A[[r2, r1]]
        A[k0:, k0:k1] = lu
        A[k0:k1, k1:] = scipy.linalg.solve_triangular(
            A[k0:k1, k0:k1], A[k0:k1, k1:], lower=True, unit_diagonal=True
        )
        A[k1:, k1:] -= A[k1:, k0:k1] @ A[k0:k1, k1:]
    return swaps


def _assert_matches_lapack(A0: np.ndarray, nb: int) -> None:
    A, want = A0.copy(), A0.copy()
    swaps = blocked_lu_inplace(A, nb)
    assert swaps == lapack_blocked_lu(want, nb)
    np.testing.assert_allclose(A, want, rtol=0, atol=1e-10)


@pytest.mark.parametrize("seed", range(12))
def test_pivots_match_lapack_on_the_benchmark_matrices(seed):
    """simulate("hpl", 256, N=640, seed=s) factors exactly this matrix."""
    A0 = matrix_columns(seed, 640, 0, 640)
    _assert_matches_lapack(A0, 16)


@pytest.mark.parametrize(
    "n,nb", [(16, 4), (32, 8), (64, 16), (24, 8), (64, 8), (96, 8), (128, 16), (256, 32)]
)
def test_pivots_match_lapack(n, nb):
    for seed in range(3):
        _assert_matches_lapack(np.random.default_rng(seed).uniform(-0.5, 0.5, size=(n, n)), nb)


def _factor_quietly(A: np.ndarray, k0: int, nb: int) -> list:
    """One panel step of ``blocked_lu_inplace``: factor a copy of the panel,
    move the whole rows, write the panel back."""
    panel = np.array(A[k0:, k0 : k0 + nb], order="F")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a 0/0 or x/0 would raise here
        swaps = factor_panel(panel, k0)
    dst, src = row_moves(swaps)
    A[dst] = A[src]
    A[k0:, k0 : k0 + nb] = panel
    return swaps


@pytest.mark.parametrize("order", ["C", "F"])
def test_factor_panel_in_any_layout_equals_the_fortran_one(order):
    """Elimination is elementwise, so the layout only changes the strides:
    the same bits and swaps either way."""
    A = np.random.default_rng(7).uniform(-0.5, 0.5, size=(40, 8))
    want = np.array(A, order="F")
    swaps = factor_panel(want, 16)
    got = np.array(A, order=order)
    assert factor_panel(got, 16) == swaps and swaps
    assert all(r1 >= 16 and r2 >= 16 for r1, r2 in swaps)  # global row numbers
    np.testing.assert_array_equal(got, want)


def test_row_moves_apply_the_swaps_in_order():
    swaps = [(0, 3), (1, 3), (2, 2), (3, 5), (4, 5)]
    A = np.arange(6.0)[:, None] * np.ones((1, 3))
    want = A.copy()
    for r1, r2 in swaps:
        want[[r1, r2]] = want[[r2, r1]]
    dst, src = row_moves(swaps)
    A[dst] = A[src]
    np.testing.assert_array_equal(A, want)
    assert list(dst) == sorted(set(dst)) and 2 not in dst  # moved rows only, once each


def test_zero_panel_is_neither_swapped_nor_scaled():
    A = np.random.default_rng(1).uniform(-0.5, 0.5, size=(12, 12))
    A[4:, 4:8] = 0.0
    before = A.copy()
    assert _factor_quietly(A, 4, 4) == []
    np.testing.assert_array_equal(A, before)


def test_zero_column_is_skipped_like_getrf():
    A0 = np.random.default_rng(2).uniform(-0.5, 0.5, size=(12, 12))
    A0[:, 5] = 0.0  # the panel's second column stays zero through elimination
    A = A0.copy()
    swaps = _factor_quietly(A, 4, 4)
    assert all(r1 != 5 for r1, _ in swaps)
    assert np.isfinite(A).all()
    want = A0.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(want[4:, 4:8])
    assert swaps == [(4 + i, 4 + int(p)) for i, p in enumerate(piv) if p != i]
    np.testing.assert_allclose(A[4:, 4:8], lu, rtol=0, atol=1e-12)
    # and the full factorization of the singular matrix still reconstructs it
    A = A0.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        swaps = blocked_lu_inplace(A, 4)
    assert reconstruction_residual(A0, A, swaps) < 1e-13


@pytest.mark.parametrize("n", range(1, 34))
def test_solve_unit_lower_matches_trsm(n):
    rng = np.random.default_rng(n)
    # a pivoted LU's factor: its diagonal and upper triangle must be ignored
    lu, _ = scipy.linalg.lu_factor(rng.uniform(-1.0, 1.0, size=(n, n)))
    for B in (rng.uniform(-1.0, 1.0, size=(n, n)), rng.uniform(-1.0, 1.0, size=n)):
        want = scipy.linalg.solve_triangular(lu, B, lower=True, unit_diagonal=True)
        np.testing.assert_allclose(solve_unit_lower(lu, B), want, rtol=0, atol=1e-12)


# -- the distributed kernel ----------------------------------------------------------


# grids 1x1, 1x2, 1x3, 2x2, 2x3, 2x4 and 4x4
@pytest.mark.parametrize("places", [1, 2, 3, 4, 6, 8, 16])
def test_program_factors_equal_the_blocked_oracle(places):
    """Block columns held at their diagonal owners, factored step by step,
    assemble to ``blocked_lu_inplace``'s factors and swap list, bit for bit
    (the checksum hashes both).  The oracle's matrix is in C order, as the
    owners hold their columns: the BLAS rounds another layout otherwise."""
    N, NB, seed = 96, 8, 3
    A = np.ascontiguousarray(matrix_columns(seed, N, 0, N))
    swaps = blocked_lu_inplace(A, NB)
    want = checksum_bytes(hashlib.sha256(A).digest(), repr(swaps).encode())
    assert simulate("hpl", places, N=N, NB=NB, seed=seed).extra["checksum"] == want


@pytest.mark.parametrize("places", [1, 3, 4, 6])
def test_simulate_and_the_program_report_one_checksum(places):
    n, nb, seed = 64, 8, 7
    sim = simulate("hpl", places, N=n, NB=nb, seed=seed)
    program = get_backend("sim").run("hpl", places, n=n, nb=nb, seed=seed)
    assert sim.extra["checksum"] == program.checksum == "8723182285b9df7c"


@pytest.mark.parametrize("places", [1, 2, 4, 8])
def test_distributed_hpl_correct(places):
    result = run_small("hpl", places, N=64, NB=8, seed=1, modeled_N=None)
    assert result.verified, f"residual {result.extra['residual']}"


def test_distributed_hpl_rectangular_grid():
    from repro.kernels.hpl import ProcessGrid

    result = run_small("hpl", 8, N=64, NB=8, grid=ProcessGrid(2, 4), modeled_N=None)
    assert result.verified


def test_grid_place_mismatch_rejected():
    with pytest.raises(KernelError, match="does not match"):
        run_small("hpl", 4, N=32, NB=8, grid=ProcessGrid(2, 4), modeled_N=None)


def test_n_not_multiple_of_nb_rejected():
    with pytest.raises(KernelError, match="multiple"):
        run_small("hpl", 4, N=30, NB=8, modeled_N=None)


@pytest.mark.parametrize("N,NB", [(64, 0), (0, 16), (-64, 16), (64, -8)])
def test_simulate_rejects_bad_sizes(N, NB):
    with pytest.raises(KernelError, match="positive size that is a multiple of a positive block"):
        simulate("hpl", 4, N=N, NB=NB)


def test_single_place_rate_approaches_dgemm_rate():
    from repro.harness.calibration import DEFAULT_CALIBRATION

    result = run_small("hpl", 1, N=256, NB=32, modeled_N=None)
    solo = DEFAULT_CALIBRATION.dgemm_flops_solo
    # panel and trsm overheads keep it below, but in the right neighborhood
    assert 0.4 * solo < result.per_core < solo


def test_per_core_rate_drops_with_scale_out():
    solo = run_small("hpl", 1, N=128, NB=16, modeled_N=None).per_core
    scaled = run_small("hpl", 16, N=256, NB=16, modeled_N=None).per_core
    assert scaled < solo
