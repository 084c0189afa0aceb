"""Blocked right-looking LU with row-partial pivoting — the numerical core.

The factorization is organized exactly like the distributed algorithm (panel
factorization with pivoting over all rows below the diagonal, row swaps across
the full matrix, triangular solve for the U block row, rank-NB trailing
update); :mod:`repro.kernels.hpl.hpl` runs these steps with each block
column at its owning place, and :func:`blocked_lu_inplace` runs them with
every column at one, the tests' oracle.

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


def factor_panel(panel: np.ndarray, k0: int) -> list[tuple[int, int]]:
    """Factor ``panel``, the rows ``k0`` and below of one block column, in
    place by right-looking elimination with partial pivoting; returns the
    pivot swaps as global row pairs [(r1, r2), ...] in order.  Only the
    panel's rows are swapped; the rest of each row is the caller's (see
    :func:`row_moves`)."""
    swaps = []
    # a panel column is a row of T, contiguous for a Fortran-ordered panel,
    # so the rank-1 updates stream along rows instead of striding
    T = panel.T
    nb = T.shape[0]
    for c in range(nb):
        col = T[c, c:]
        i = c + int(np.abs(col).argmax())  # the first of the largest |a|
        pivot = col[i - c]
        if pivot == 0.0:  # getrf: a zero column is neither swapped nor scaled
            continue
        if i != c:
            swaps.append((k0 + c, k0 + i))
            t = T[:, c].copy()
            T[:, c] = T[:, i]
            T[:, i] = t
        below = col[1:]
        below /= pivot
        T[c + 1 :, c + 1 :] -= np.multiply.outer(T[c + 1 :, c], below)
    return swaps


def row_moves(swaps) -> tuple[np.ndarray, np.ndarray]:
    """The swaps in order as one row move ``(dst, src)``: ``A[dst] = A[src]``
    leaves every row of ``A`` where applying the swaps one by one would."""
    perm: dict = {}
    for r1, r2 in swaps:
        perm[r1], perm[r2] = perm.get(r2, r2), perm.get(r1, r1)
    moved = sorted(r for r, s in perm.items() if r != s)
    return np.array(moved, dtype=np.intp), np.array([perm[r] for r in moved], dtype=np.intp)


def solve_unit_lower(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Overwrite ``B`` with ``X``, where ``tril(L, -1) + I`` times ``X`` equals
    ``B`` (forward substitution in place; the diagonal and upper triangle of
    ``L`` are not read); returns ``B``."""
    for i in range(1, L.shape[0]):
        row = B[i : i + 1]  # ``B[i] -= L[i, :i] @ B[:i]``'s bits, at 3/5 of its call cost
        np.subtract(row, np.dot(L[i, :i], B[:i]), out=row)
    return B


def apply_panel(A: np.ndarray, k0: int, moves: tuple, panel: np.ndarray, jk, j0: int) -> None:
    """Step ``k0``'s update of the columns ``A`` holds (all ``n`` rows of
    each): the step's row ``moves`` in every column, the factored ``panel``
    written to columns ``jk`` on (``None``: ``A`` holds none of it), then the
    U block solve and the rank-nb update of columns ``j0`` on."""
    nb = panel.shape[1]
    dst, src = moves
    A[dst] = A[src]
    if jk is not None:
        A[k0:, jk : jk + nb] = panel
    if j0 < A.shape[1]:
        U = solve_unit_lower(np.ascontiguousarray(panel[:nb]), A[k0 : k0 + nb, j0:])
        A[k0 + nb :, j0:] -= panel[nb:] @ U


def blocked_lu_inplace(A: np.ndarray, nb: int) -> list[tuple[int, int]]:
    """Full blocked LU of ``A`` in place; returns the global swap sequence."""
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise KernelError("matrix must be square")
    check_sizes(n, nb)
    swaps: list[tuple[int, int]] = []
    for k0 in range(0, n, nb):
        # factor a copy of the panel, move the whole rows, write the panel back
        panel = np.array(A[k0:, k0 : k0 + nb], order="F")
        step = factor_panel(panel, k0)
        apply_panel(A, k0, row_moves(step), panel, k0, k0 + nb)
        swaps.extend(step)
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
