"""Tests for the event-level transfer model."""

import pytest

from repro.errors import TransportError
from repro.machine import MachineConfig, Network, Topology, TransferKind
from repro.sim import Engine


def make_net(places=64, **cfg_overrides):
    cfg = MachineConfig.small(**cfg_overrides)
    eng = Engine()
    topo = Topology(cfg, places=places)
    return eng, Network(eng, cfg, topo)


def delivery_time(eng, event):
    eng.run()
    assert event.fired
    return eng.now


def test_shm_transfer_is_cheap_and_skips_nic():
    eng, net = make_net()
    ev = net.transfer(0, 1, 1024)  # places 0,1 share octant 0
    t = delivery_time(eng, ev)
    cfg = net.config
    assert t == pytest.approx(cfg.shm_latency + 1024 / cfg.shm_bandwidth)
    assert net.injection(0).reservations == 0


def test_remote_transfer_includes_latency_and_bandwidth():
    eng, net = make_net()
    nbytes = 1 << 20
    ev = net.transfer(0, 4, nbytes)  # octant 0 -> octant 1 (same drawer, LL)
    t = delivery_time(eng, ev)
    cfg = net.config
    lower = cfg.software_latency + nbytes / cfg.ll_bandwidth + cfg.hop_latency
    assert t >= lower
    hub = 2 * nbytes / cfg.octant_injection_bandwidth  # injection + ejection
    assert t < lower + cfg.route_miss_penalty + hub + 3 * cfg.msg_injection_overhead + 1e-6


def test_d_route_crosses_supernode():
    eng, net = make_net()
    ev = net.transfer(0, 63, 4096)  # octant 0 -> octant 15 (supernode 0 -> 3)
    t = delivery_time(eng, ev)
    assert t > 3 * net.config.hop_latency  # pays three hops


def test_small_messages_cost_injection_overhead_not_bandwidth():
    eng, net = make_net()
    n = 50
    events = [net.transfer(0, 4, 16) for _ in range(n)]
    t = delivery_time(eng, events[-1])
    # n back-to-back sends serialize on the source hub's injection engine
    assert t >= n * net.config.msg_injection_overhead


def test_ejection_flood_at_single_destination():
    """Many senders to one place bottleneck on the destination hub.

    This is the paper's motivation for specialized finish: the finish-home
    place's network interface floods.
    """
    eng, net = make_net()
    senders = [p for p in range(4, 64)]  # everyone outside octant 0
    for p in senders:
        net.transfer(p, 0, 16)
    eng.run()
    t = eng.now
    assert t >= len(senders) * net.config.msg_injection_overhead
    assert net.ejection(0).reservations == len(senders)


def test_rdma_has_lower_per_message_cost():
    eng1, net1 = make_net()
    for _ in range(100):
        net1.transfer(0, 4, 16, kind=TransferKind.MSG)
    eng1.run()
    eng2, net2 = make_net()
    for _ in range(100):
        net2.transfer(0, 4, 16, kind=TransferKind.RDMA)
    eng2.run()
    assert eng2.now < eng1.now


def test_gups_charges_per_update_engine_time():
    eng, net = make_net()
    updates = 1000
    ev = net.transfer(0, 4, updates * 16, kind=TransferKind.GUPS)
    t = delivery_time(eng, ev)
    assert t >= updates * net.config.gups_update_overhead


def test_gups_tlb_factor_slows_updates():
    eng1, net1 = make_net()
    net1.transfer(0, 4, 16000, kind=TransferKind.GUPS, tlb_factor=1.0)
    eng1.run()
    eng2, net2 = make_net()
    net2.transfer(0, 4, 16000, kind=TransferKind.GUPS, tlb_factor=4.0)
    eng2.run()
    assert eng2.now > eng1.now


def test_route_cache_penalizes_high_out_degree():
    # tiny cache: talking to many destinations keeps missing
    eng, net = make_net(route_cache_entries=2)
    dst_octants = [1, 2, 3, 1, 2, 3]  # cycle of 3 destinations, cache of 2
    for o in dst_octants:
        net.transfer(0, o * 4, 16)
    eng.run()
    assert net.route_cache(0).misses == 6  # every access misses (LRU thrash)

    eng2, net2 = make_net(route_cache_entries=2)
    for o in [1, 1, 1, 1, 1, 1]:
        net2.transfer(0, o * 4, 16)
    eng2.run()
    assert net2.route_cache(0).misses == 1
    assert eng2.now < eng.now


def test_stats_counters():
    eng, net = make_net()
    net.transfer(0, 4, 100, kind=TransferKind.MSG)
    net.transfer(0, 8, 200, kind=TransferKind.RDMA)
    eng.run()
    metrics = net.obs.metrics
    assert metrics.value("net.messages", kind="msg") == 1
    assert metrics.value("net.messages", kind="rdma") == 1
    assert metrics.total("net.bytes") == 300
    assert metrics.total("net.messages") == 2


def test_negative_size_rejected():
    _, net = make_net()
    with pytest.raises(TransportError):
        net.transfer(0, 4, -1)


def test_links_shared_between_transfers():
    eng, net = make_net()
    nbytes = 10 << 20
    # two concurrent large transfers over the same LL link serialize
    net.transfer(0, 4, nbytes)
    net.transfer(1, 5, nbytes)
    eng.run()
    assert eng.now >= 2 * nbytes / net.config.ll_bandwidth


def test_disjoint_links_run_in_parallel():
    eng, net = make_net()
    nbytes = 10 << 20
    net.transfer(0, 4, nbytes)  # octant 0 -> 1
    net.transfer(8, 12, nbytes)  # octant 2 -> 3
    eng.run()
    # well under the ~2x link time that serialized transfers would take
    assert eng.now < 1.8 * nbytes / net.config.ll_bandwidth
