"""The eight application kernels of the paper's evaluation.

HPC Class 2 Challenge benchmarks (Section 5): :mod:`~repro.kernels.hpl`,
:mod:`~repro.kernels.fft`, :mod:`~repro.kernels.randomaccess`,
:mod:`~repro.kernels.stream`.  Unbalanced Tree Search (Section 6):
:mod:`~repro.kernels.uts`.  Other benchmarks (Section 7):
:mod:`~repro.kernels.kmeans`, :mod:`~repro.kernels.smithwaterman`,
:mod:`~repro.kernels.bc`.

Every kernel follows the same convention: a pure local-math core (NumPy)
validated against an independent reference (SciPy/NumPy/NetworkX/plain DP;
SciPy and NetworkX are test oracles only, never imported here), and a
``run_*`` driver that executes the distributed algorithm on an
:class:`~repro.runtime.ApgasRuntime` — real protocol traffic, real (scaled)
data, calibrated compute charges — returning a
:class:`~repro.harness.results.KernelResult`.
"""
