"""Tests for RandomAccess and the HPCC random stream."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelError
from repro.kernels.randomaccess import hpcc_advance, hpcc_starts, run_randomaccess
from repro.kernels.randomaccess.hpcc_rng import _PERIOD, _step, stream_slice, stream_slice_fast

from tests.kernels.conftest import make_rt


# -- the HPCC stream ------------------------------------------------------------


def test_starts_zero_is_one():
    assert hpcc_starts(0) == 1


def test_starts_matches_brute_force():
    a = np.uint64(1)
    for n in range(1, 300):
        a = _step(a)
        assert hpcc_starts(n) == a, f"divergence at n={n}"


def test_starts_large_jump_consistent():
    # starts(n+1) == step(starts(n)) even for big n
    n = 123_456_789
    assert hpcc_starts(n + 1) == _step(hpcc_starts(n))


def test_advance_vectorized_matches_scalar():
    states = np.array([1, 2, 0x8000000000000000, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    advanced = hpcc_advance(states)
    for s, out in zip(states, advanced):
        assert out == _step(np.uint64(s))


def test_stream_slice_fast_equals_slow():
    slow = stream_slice(10, 200)
    fast = stream_slice_fast(10, 200, batch=7)
    np.testing.assert_array_equal(slow, fast)


def test_starts_jumps_a_whole_array_at_once():
    ns = [0, 1, 64, 123_456_789, _PERIOD - 1, _PERIOD, _PERIOD + 5, 2**63 + 1]
    jumped = hpcc_starts(np.array(ns, dtype=object))
    assert jumped.dtype == np.uint64
    assert [int(x) for x in jumped] == [int(hpcc_starts(n)) for n in ns]
    assert hpcc_starts(_PERIOD) == 1 and type(hpcc_starts(7)) is np.uint64


_starts = st.one_of(
    st.integers(0, 5000),
    st.integers(0, _PERIOD),
    st.integers(_PERIOD - 300, _PERIOD + 300),  # the lanes straddle the wrap-around
)


@given(_starts, st.integers(0, 300), st.one_of(st.none(), st.integers(1, 400)))
@settings(max_examples=120, deadline=None)
def test_stream_slice_fast_equals_slow_for_any_lane_split(start, count, batch):
    """Covers count < batch, count % lanes != 0, count 0/1 and the default
    (square-root) lane count."""
    fast = stream_slice_fast(start, count) if batch is None else stream_slice_fast(start, count, batch)
    assert fast.dtype == np.uint64
    np.testing.assert_array_equal(fast, stream_slice(start, count))


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 17, 4096, 4097])
def test_stream_slice_fast_default_lanes_equal_one_lane(count):
    np.testing.assert_array_equal(stream_slice_fast(12_345, count), stream_slice_fast(12_345, count, batch=1))


def test_stream_slices_are_contiguous():
    a = stream_slice_fast(0, 100)
    b = stream_slice_fast(100, 50)
    combined = stream_slice_fast(0, 150)
    np.testing.assert_array_equal(np.concatenate([a, b]), combined)


# -- the kernel --------------------------------------------------------------------


def test_double_run_returns_table_to_initial():
    """HPCC verification: XOR-ing the same stream twice is the identity."""
    rt = make_rt(places=4)
    result = run_randomaccess(rt, table_words_per_place=256, updates_per_place=512)
    assert result.verified
    assert result.extra["errors"] == 0


def test_updates_touch_remote_places():
    rt = make_rt(places=8)
    run_randomaccess(rt, table_words_per_place=128, updates_per_place=256, verify=False)
    metrics = rt.obs.metrics
    assert metrics.value("net.messages", kind="gups") > 0
    # half of the table sits on the other octant
    assert metrics.total("net.link_messages") > metrics.value("net.link_messages", link="shm")


def test_non_power_of_two_table_rejected():
    rt = make_rt()
    with pytest.raises(KernelError, match="power of two"):
        run_randomaccess(rt, table_words_per_place=100)


def test_sockets_transport_rejected():
    from repro.machine import MachineConfig
    from repro.runtime import ApgasRuntime
    from repro.xrt import SocketsTransport

    rt = ApgasRuntime(places=4, config=MachineConfig.small(), transport_cls=SocketsTransport)
    with pytest.raises(KernelError, match="RDMA"):
        run_randomaccess(rt, table_words_per_place=64)


def test_model_only_mode_skips_verification():
    rt = make_rt(places=4)
    result = run_randomaccess(
        rt, table_words_per_place=1 << 20, updates_per_place=4096, materialize=False
    )
    assert result.verified is None
    assert result.value > 0


def test_small_pages_much_slower():
    """Paper: large pages are essential for RandomAccess."""

    def gups(large_pages):
        rt = make_rt(places=16)  # four octants: most updates cross the network
        r = run_randomaccess(
            rt,
            table_words_per_place=1 << 25,  # 256 MB: far more 64 KB pages than TLB entries
            updates_per_place=4096,
            materialize=False,
            large_pages=large_pages,
        )
        return r.value

    assert gups(True) > 3 * gups(False)


def test_gups_per_host_reported():
    rt = make_rt(places=8)  # two octants in the small machine
    result = run_randomaccess(rt, table_words_per_place=128, updates_per_place=512, verify=False)
    assert result.extra["hosts"] == 2
    assert result.per_core == pytest.approx(result.value / 2)
