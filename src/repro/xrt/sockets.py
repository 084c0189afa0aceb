"""TCP/IP sockets transport: the commodity-cluster fallback.

X10 code "runs unchanged on commodity clusters" (paper Section 5); this
transport models that: point-to-point only, no RDMA, no hardware collectives,
and a kernel/network-stack software path that is an order of magnitude more
expensive per message than PAMI.
"""

from __future__ import annotations

from repro.xrt.transport import Transport


class SocketsTransport(Transport):
    supports_rdma = False
    supports_hw_collectives = False
    name = "sockets"
    software_overhead_factor = 4.0
    #: per-message kernel/TCP time
    software_latency_extra = 15e-6
