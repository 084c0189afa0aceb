"""MPI transport: the middle option of the X10RT family.

The X10RT API provides a common interface to transports such as IBM's PAMI,
MPI, and TCP/IP sockets (paper Section 3.3).  An MPI library on the same
fabric reaches the hardware collectives through its own tuned algorithms but
exposes no RDMA-registration path to X10's congruent arrays and pays a
thicker per-message software stack than PAMI.
"""

from __future__ import annotations

from repro.xrt.transport import Transport


class MpiTransport(Transport):
    supports_rdma = False
    supports_hw_collectives = True
    name = "mpi"
    software_overhead_factor = 1.5
    #: per-message MPI matching/progress cost
    software_latency_extra = 2.5e-6
