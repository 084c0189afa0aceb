"""The runtime needs NumPy only: SciPy and NetworkX are test oracles.

A fresh interpreter runs every kernel through ``simulate`` and every portable
program on the simulator backend; neither oracle library may have been
imported by the end (each would cost every run its import time and memory).
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROGRAM = """
import sys
import repro.cli
from repro.harness.runner import simulate
from repro.kernels.portable import PORTABLE_KERNELS
from repro.machine import MachineConfig
from repro.xrt.backend import get_backend

TINY = {
    "bc": {"scale": 6},
    "fft": {},
    "hpl": {"N": 32, "NB": 8},
    "kmeans": {"points_per_place": 500, "k": 16},
    "randomaccess": {"table_words_per_place": 1 << 10, "updates_per_place": 256},
    "smithwaterman": {},
    "stream": {"elements_per_place": 1000},
    "uts": {"depth": 5},
}
for kernel, kwargs in sorted(TINY.items()):
    simulate(kernel, 4, config=MachineConfig.small(), **kwargs)
for kernel in PORTABLE_KERNELS:
    get_backend("sim").run(kernel, 2, **({"depth": 5} if kernel == "uts" else {}))
print(sorted(m for m in ("scipy", "networkx") if m in sys.modules))
"""


def test_no_kernel_imports_scipy_or_networkx():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", PROGRAM], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"
