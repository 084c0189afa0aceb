"""The whole-matrix HPL residual that ``lu.reconstruction_residual`` replaced —
kept verbatim as the bit-equality oracle for the blockwise one.

It holds ``eye``, ``tril + I``, ``triu``, the permuted copy of ``A0``,
``L @ U`` and their difference, each ``n x n``, at once; the production check
forms the same difference one tile at a time, so the residual must be
*equal*, not close.
"""

import numpy as np


def reconstruction_residual_full(A0: np.ndarray, LU: np.ndarray, swaps) -> float:
    """``||P A0 - L U||_inf / (||A0||_inf * N)`` — the correctness metric."""
    n = A0.shape[0]
    L = np.tril(LU, -1) + np.eye(n)
    U = np.triu(LU)
    PA = A0.copy()
    for r1, r2 in swaps:
        PA[[r1, r2]] = PA[[r2, r1]]
    err = np.abs(PA - L @ U).max()
    return float(err / (np.abs(A0).max() * n))
