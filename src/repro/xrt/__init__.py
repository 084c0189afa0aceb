"""X10RT — the layered runtime transport (paper Section 3.3).

The X10 runtime adapts to a wide range of interconnects through a layered
structure: the X10 Runtime Transport (X10RT) API provides a common interface
to transports such as IBM's PAMI, MPI, and TCP/IP sockets.  An implementation
is only *required* to provide basic point-to-point primitives; an emulation
layer handles the advanced APIs (collectives, RDMA) when not natively
supported.  The collectives' emulation layer is a program over those
primitives, :class:`repro.runtime.team.MessageTeam`, which runs on both
backends; a place death fails its blocked receives on both.

This package mirrors that structure:

* :class:`~repro.xrt.transport.Transport` — the common API (active messages
  with named handlers);
* :class:`~repro.xrt.pami.PamiTransport` — the Power 775 transport: native
  RDMA, GUPS, and hardware collectives over the Torrent hub;
* :class:`~repro.xrt.sockets.SocketsTransport` — a commodity-cluster
  transport: point-to-point only, higher software overheads, everything else
  emulated;
* :class:`~repro.xrt.rdma.RdmaEngine` — RDMA put/get and the GUPS remote
  atomic update, including the TLB/large-page model;
* :class:`~repro.xrt.collectives.Collectives` — barrier/bcast/allreduce/
  alltoall on the hardware path (analytic Torrent model).
"""

from repro.xrt.serialization import estimate_nbytes
from repro.xrt.transport import Transport
from repro.xrt.pami import PamiTransport
from repro.xrt.mpi import MpiTransport
from repro.xrt.sockets import SocketsTransport
from repro.xrt.rdma import MemRegion, MemoryRegistry, RdmaEngine
from repro.xrt.collectives import CollectiveOp, Collectives

__all__ = [
    "estimate_nbytes",
    "Transport",
    "PamiTransport",
    "MpiTransport",
    "SocketsTransport",
    "MemRegion",
    "MemoryRegistry",
    "RdmaEngine",
    "CollectiveOp",
    "Collectives",
]
