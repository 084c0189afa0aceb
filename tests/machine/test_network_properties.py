"""Property-based tests for the transfer model's physical invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import MachineConfig, Network, Topology, TransferKind
from repro.machine.routing import resolve
from repro.sim import Engine

PLACES = 64
CFG = MachineConfig.small()

transfer_strategy = st.lists(
    st.tuples(
        st.integers(0, PLACES - 1),  # src
        st.integers(0, PLACES - 1),  # dst
        st.integers(1, 1 << 20),  # nbytes
        st.sampled_from(list(TransferKind)),
    ),
    min_size=1,
    max_size=30,
)


def run_transfers(transfers):
    eng = Engine()
    topo = Topology(CFG, places=PLACES)
    net = Network(eng, CFG, topo)
    deliveries = []
    for src, dst, nbytes, kind in transfers:
        started_at = eng.now
        event = net.transfer(src, dst, nbytes, kind)
        event.add_callback(lambda _e, t0=started_at: deliveries.append((t0, eng.now)))
    eng.run()
    return net, deliveries


@given(transfer_strategy)
@settings(max_examples=50, deadline=None)
def test_every_transfer_delivers_and_time_is_positive(transfers):
    net, deliveries = run_transfers(transfers)
    assert len(deliveries) == len(transfers)
    for t0, t1 in deliveries:
        assert t1 >= t0


@given(transfer_strategy)
@settings(max_examples=50, deadline=None)
def test_latency_lower_bounds(transfers):
    """No transfer can beat the physics: software latency + wire time."""
    topo = Topology(CFG, places=PLACES)
    for src, dst, nbytes, kind in transfers:
        eng = Engine()
        net = Network(eng, CFG, topo)
        net.transfer(src, dst, nbytes, kind)
        eng.run()
        route = resolve(topo, topo.octant_of(src), topo.octant_of(dst))
        if route.hops == 0:
            lower = CFG.shm_latency
        else:
            lower = route.hops * CFG.hop_latency
        assert eng.now >= lower


@given(transfer_strategy)
@settings(max_examples=50, deadline=None)
def test_stats_account_every_transfer(transfers):
    net, _ = run_transfers(transfers)
    metrics = net.obs.metrics
    assert metrics.total("net.messages") == len(transfers)
    assert metrics.total("net.bytes") == sum(t[2] for t in transfers)
    by_kind = {k.value: 0 for k in TransferKind}
    for _, _, _, kind in transfers:
        by_kind[kind.value] += 1
    assert metrics.by_label("net.messages", "kind") == by_kind


@given(transfer_strategy)
@settings(max_examples=30, deadline=None)
def test_serialization_never_loses_time(transfers):
    """Doing the same transfers one-at-a-time can never be faster overall
    than issuing them concurrently (resources only serialize, never help)."""
    _, concurrent = run_transfers(transfers)
    concurrent_end = max(t1 for _, t1 in concurrent)

    serial_total = 0.0
    topo = Topology(CFG, places=PLACES)
    for src, dst, nbytes, kind in transfers:
        eng = Engine()
        net = Network(eng, CFG, topo)
        net.transfer(src, dst, nbytes, kind)
        eng.run()
        serial_total += eng.now
    assert concurrent_end <= serial_total + 1e-12