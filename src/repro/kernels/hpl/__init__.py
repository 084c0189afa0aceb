"""Global HPL: dense LU factorization with row-partial pivoting."""

from repro.kernels.hpl.grid import ProcessGrid, default_grid
from repro.kernels.hpl.lu import blocked_lu_inplace, reconstruction_residual
from repro.kernels.hpl.hpl import hpl_main

__all__ = [
    "ProcessGrid",
    "default_grid",
    "blocked_lu_inplace",
    "reconstruction_residual",
    "hpl_main",
]
