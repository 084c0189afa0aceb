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


def reconstruction_residual(A0: np.ndarray, LU: np.ndarray, swaps) -> float:
    """``||P A0 - L U||_inf / (||A0||_inf * N)`` — the correctness metric."""
    n = A0.shape[0]
    L = np.tril(LU, -1) + np.eye(n)
    U = np.triu(LU)
    PA = A0.copy()
    for r1, r2 in swaps:
        PA[[r1, r2]] = PA[[r2, r1]]
    err = np.abs(PA - L @ U).max()
    return float(err / (np.abs(A0).max() * n))
