"""Blocked right-looking LU with row-partial pivoting — the numerical core.

The factorization is organized exactly like the distributed algorithm (panel
factorization with pivoting over all rows below the diagonal, row swaps across
the full matrix, triangular solve for the U block row, rank-NB trailing
update); :mod:`repro.kernels.hpl.hpl` replays these steps on the simulated
machine, charging each piece to its owning place.

The host numerics are plain NumPy.  The panel is eliminated column by column
and picks LAPACK getrf's pivots (the first row of largest magnitude; a zero
column is left unswapped and unscaled), so the swap sequence is the one a
LAPACK factorization of the same panel would produce.
"""

from __future__ import annotations

import numpy as np

from repro.errors import KernelError


def check_sizes(n: int, nb: int) -> None:
    """KernelError unless the order ``n`` and block ``nb`` are positive and
    ``n`` is a multiple of ``nb`` — the one size check of every HPL entry."""
    if n < 1 or nb < 1 or n % nb:
        raise KernelError(
            f"HPL needs a positive size that is a multiple of a positive block; "
            f"got N={n}, NB={nb}"
        )


def panel_factor(A: np.ndarray, k0: int, nb: int) -> list[tuple[int, int]]:
    """Factor the panel ``A[k0:, k0:k0+nb]`` in place by right-looking
    elimination with partial pivoting, swapping *whole* matrix rows (left of
    the panel keeps the already-computed L; right of it is the trailing
    matrix).  Returns the global swap list [(r1, r2), ...] in order."""
    swaps = []
    # eliminate in a transposed copy: a panel column is then one contiguous
    # row, and the rank-1 updates stream along rows instead of striding
    T = A[k0:, k0 : k0 + nb].T.copy()
    for c in range(nb):
        col = T[c, c:]
        i = c + int(np.abs(col).argmax())  # the first of the largest |a|
        pivot = col[i - c]
        if pivot == 0.0:  # getrf: a zero column is neither swapped nor scaled
            continue
        if i != c:
            r1, r2 = k0 + c, k0 + i
            swaps.append((r1, r2))
            row = A[r1].copy()  # its stale panel part is overwritten below
            A[r1] = A[r2]
            A[r2] = row
            t = T[:, c].copy()
            T[:, c] = T[:, i]
            T[:, i] = t
        below = col[1:]
        below /= pivot
        T[c + 1 :, c + 1 :] -= np.multiply.outer(T[c + 1 :, c], below)
    A[k0:, k0 : k0 + nb] = T.T
    return swaps


def solve_unit_lower(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``X`` with ``tril(L, -1) + I`` times ``X`` equal to ``B`` (forward
    substitution; the diagonal and upper triangle of ``L`` are not read)."""
    X = np.array(B, dtype=np.float64)
    for i in range(1, L.shape[0]):
        X[i] -= L[i, :i] @ X[:i]
    return X


def update_u_row(A: np.ndarray, k0: int, nb: int) -> None:
    """U block row: ``A[k0:k0+nb, k0+nb:] = L_kk^{-1} @ A[k0:k0+nb, k0+nb:]``."""
    if k0 + nb >= A.shape[1]:
        return
    rhs = A[k0 : k0 + nb, k0 + nb :]
    rhs[:, :] = solve_unit_lower(A[k0 : k0 + nb, k0 : k0 + nb], rhs)


def update_trailing(A: np.ndarray, k0: int, nb: int) -> None:
    """Rank-nb update: ``A[k0+nb:, k0+nb:] -= L_panel @ U_row``."""
    if k0 + nb >= A.shape[0]:
        return
    L_panel = A[k0 + nb :, k0 : k0 + nb]
    U_row = A[k0 : k0 + nb, k0 + nb :]
    A[k0 + nb :, k0 + nb :] -= L_panel @ U_row


def blocked_lu_inplace(A: np.ndarray, nb: int) -> list[tuple[int, int]]:
    """Full blocked LU of ``A`` in place; returns the global swap sequence."""
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise KernelError("matrix must be square")
    check_sizes(n, nb)
    swaps: list[tuple[int, int]] = []
    for k0 in range(0, n, nb):
        swaps.extend(panel_factor(A, k0, nb))
        update_u_row(A, k0, nb)
        update_trailing(A, k0, nb)
    return swaps


#: rows and columns per block of the residual check: its temporaries are two
#: ``n x 128`` strips and two ``128 x 128`` tiles where a whole-matrix check
#: held six ``n x n`` arrays
_RESIDUAL_BLOCK = 128


def reconstruction_residual(A0: np.ndarray, LU: np.ndarray, swaps) -> float:
    """``||P A0 - L U||_inf / (||A0||_inf * N)`` — the correctness metric.

    Formed one tile at a time, a row block of ``L`` (all ``n`` columns) times
    a column block of ``U`` (all ``n`` rows), so each element sums the whole
    product's terms; ``P`` permutes row indices and neither argument is
    written.  Below the block width the one tile is the whole product.  Above
    it the bits are the whole product's where the BLAS rounds a tile as it
    does inside the whole product: OpenBLAS does when ``n`` is a multiple of
    the block width (every size ``simulate`` and the benchmarks run), but a
    remainder tile can take another kernel and round differently, and the
    residual, a maximum of rounding errors, then reads another value of the
    same order.
    """
    n = A0.shape[0]
    perm = np.arange(n)
    for r1, r2 in swaps:
        perm[r1], perm[r2] = perm[r2], perm[r1]
    blocks = [(b0, min(b0 + _RESIDUAL_BLOCK, n)) for b0 in range(0, n, _RESIDUAL_BLOCK)]
    err = 0.0
    for r0, r1 in blocks:
        L = np.tril(LU[r0:r1], r0 - 1)  # strictly below the global diagonal
        L[np.arange(r1 - r0), np.arange(r0, r1)] = 1.0
        rows = perm[r0:r1]
        for c0, c1 in blocks:
            tile = A0[rows, c0:c1]
            tile -= L @ np.triu(LU[:, c0:c1], -c0)
            err = np.maximum(err, np.abs(tile, out=tile).max())  # a NaN propagates
    return float(err / (np.maximum(A0.max(), -A0.min()) * n))
