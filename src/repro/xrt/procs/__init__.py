"""repro.xrt.procs — the multi-process execution backend.

One OS process per place, real sockets in between, and the same
generator-activity machinery on top: portable APGAS programs (see
:mod:`repro.kernels.portable`) run here unmodified from how they run on the
discrete-event simulator.  :func:`run_procs_program` is the entry point;
:mod:`repro.xrt.conformance` runs both backends and compares.
"""

from repro.xrt.procs.launcher import DEFAULT_DEADLINE, run_procs_program
from repro.xrt.procs.loop import PlaceLoop
from repro.xrt.procs.runtime import ProcsRuntime

__all__ = [
    "DEFAULT_DEADLINE",
    "PlaceLoop",
    "ProcsRuntime",
    "run_procs_program",
]
