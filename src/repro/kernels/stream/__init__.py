"""EP Stream (Triad): sustainable local memory bandwidth."""

from repro.kernels.stream.stream import stream_main, triad

__all__ = ["stream_main", "triad"]
