"""Global FFT: 1D discrete Fourier transform, transpose algorithm."""

from repro.kernels.fft.fft import fft_input, fft_main, fft_six_step_reference

__all__ = ["fft_input", "fft_main", "fft_six_step_reference"]
