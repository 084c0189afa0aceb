"""Smith-Waterman local sequence alignment."""

from repro.kernels.smithwaterman.sw import (
    random_sequence,
    sw_main,
    sw_score,
    sw_score_reference,
)

__all__ = [
    "random_sequence",
    "sw_main",
    "sw_score",
    "sw_score_reference",
]
