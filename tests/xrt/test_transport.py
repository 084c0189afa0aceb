"""Tests for active-message dispatch over the simulated fabric."""

import pytest

from repro.errors import TransportError
from repro.machine import MachineConfig, Topology
from repro.sim import Engine
from repro.xrt import PamiTransport, SocketsTransport


def make_transport(cls=PamiTransport, places=16):
    eng = Engine()
    cfg = MachineConfig.small()
    return eng, cls(eng, cfg, Topology(cfg, places=places))


def test_handler_runs_at_destination_with_body():
    eng, tr = make_transport()
    seen = []
    tr.register_handler("greet", lambda dst, body: seen.append((dst, body)))
    tr.post_args(0, 9, "greet", {"x": 1})
    eng.run()
    assert seen == [(9, {"x": 1})]


def test_unknown_handler_fails_fast():
    _, tr = make_transport()
    with pytest.raises(TransportError, match="no handler"):
        tr.post_args(0, 1, "nope", None)


def test_duplicate_handler_rejected():
    _, tr = make_transport()
    tr.register_handler("x", lambda d, b: None)
    with pytest.raises(TransportError, match="already registered"):
        tr.register_handler("x", lambda d, b: None)


def test_messages_counted():
    eng, tr = make_transport()
    tr.register_handler("h", lambda d, b: None)
    for i in range(5):
        tr.post_args(0, 4, "h", None)
    eng.run()
    assert tr.obs.metrics.value("xrt.messages", handler="h") == 5


def test_pami_capabilities():
    _, tr = make_transport(PamiTransport)
    assert tr.supports_rdma and tr.supports_hw_collectives


def test_sockets_capabilities_and_cost():
    eng_p, pami = make_transport(PamiTransport)
    eng_s, sockets = make_transport(SocketsTransport)
    assert not sockets.supports_rdma and not sockets.supports_hw_collectives
    pami.register_handler("h", lambda d, b: None)
    sockets.register_handler("h", lambda d, b: None)
    pami.post_args(0, 4, "h", None)
    sockets.post_args(0, 4, "h", None)
    eng_p.run()
    eng_s.run()
    assert eng_s.now > 3 * eng_p.now  # sockets pay a much larger software path
