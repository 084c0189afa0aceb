"""Global RandomAccess (GUPS): remote atomic XOR updates."""

from repro.kernels.randomaccess.hpcc_rng import POLY, hpcc_advance, hpcc_starts
from repro.kernels.randomaccess.ra import ra_main

__all__ = ["POLY", "hpcc_advance", "hpcc_starts", "ra_main"]
