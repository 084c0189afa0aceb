"""Portability: "the X10 code ... runs unchanged on commodity clusters".

The same kernels must produce identical *results* over PAMI, MPI, and TCP/IP
sockets — only the timing differs (paper Section 5: the implementations are
built on a common network stack and run unchanged off the Power 775).
"""

import numpy as np

import functools

from repro.kernels.portable import KERNELS
from repro.machine import MachineConfig
from repro.runtime import ApgasRuntime
from repro.xrt import MpiTransport, PamiTransport, SocketsTransport

TRANSPORTS = [PamiTransport, MpiTransport, SocketsTransport]


def make_rt(transport_cls, places=8):
    return ApgasRuntime(
        places=places, config=MachineConfig.small(), transport_cls=transport_cls
    )


def run_kernel(kernel, transport_cls, places=8, **kw):
    """``simulate``'s run of ``kernel`` (its row of the kernel table), on a
    runtime over ``transport_cls``."""
    rt = make_rt(transport_cls, places)
    row = KERNELS[kernel]
    params = row.modelled(places, rt.config, **kw)
    return row.report(rt.run(functools.partial(row.main, **params)), params, places, rt.now)


def test_kmeans_results_identical_across_transports():
    centroids = {}
    for cls in TRANSPORTS:
        result = run_kernel(
            "kmeans", cls, points_per_place=50, k=8, dim=3, iterations=3,
            actual_points=50, actual_k=8,
        )
        assert result.verified
        centroids[cls.name] = result.extra["centroids"]
    np.testing.assert_array_equal(centroids["pami"], centroids["mpi"])
    np.testing.assert_array_equal(centroids["pami"], centroids["sockets"])


def test_smith_waterman_score_identical_across_transports():
    scores = set()
    for cls in TRANSPORTS:
        result = run_kernel(
            "smithwaterman", cls, short_len=12, long_per_place=50, iterations=1,
            actual_short=12, actual_long=50,
        )
        assert result.verified
        scores.add(result.extra["best_score"])
    assert len(scores) == 1


def test_stream_verifies_on_all_transports():
    for cls in TRANSPORTS:
        result = run_kernel("stream", cls, elements_per_place=4096, iterations=2)
        assert result.verified, cls.name


def test_transport_cost_ordering():
    """PAMI < MPI < sockets on a message-heavy pattern."""

    def elapsed(cls):
        rt = make_rt(cls, places=16)

        def main(ctx):
            with ctx.finish() as f:
                for p in ctx.places():
                    ctx.at_async(p, lambda c: None)
            yield f.wait()

        rt.run(main)
        return rt.now

    pami, mpi, sockets = (elapsed(c) for c in TRANSPORTS)
    assert pami < mpi < sockets


def test_mpi_keeps_hw_collectives_but_not_rdma():
    assert MpiTransport.supports_hw_collectives
    assert not MpiTransport.supports_rdma
