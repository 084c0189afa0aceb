"""Tests for UTS: RNGs, interval queues, and the distributed traversal."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelError
from repro.glb import GlbConfig
from repro.kernels.uts import (
    SplitMixRng,
    UtsBag,
    UtsParams,
    make_rng,
    run_uts,
    sequential_count,
)

from tests.kernels.conftest import make_rt


# -- RNGs ---------------------------------------------------------------------------


def test_splitmix_children_deterministic():
    rng = SplitMixRng()
    root = rng.root_state(19)
    a = rng.child_states(root, 0, 5)
    b = rng.child_states(root, 0, 5)
    np.testing.assert_array_equal(a, b)


def test_splitmix_child_ranges_compose():
    rng = SplitMixRng()
    root = rng.root_state(19)
    whole = rng.child_states(root, 0, 10)
    first = rng.child_states(root, 0, 4)
    rest = rng.child_states(root, 4, 10)
    np.testing.assert_array_equal(whole, np.concatenate([first, rest]))


def test_sha1_child_ranges_compose():
    rng = make_rng("sha1")
    root = rng.root_state(19)
    whole = rng.child_states(root, 0, 6)
    assert whole == rng.child_states(root, 0, 3) + rng.child_states(root, 3, 6)


def test_unknown_rng_mode_rejected():
    with pytest.raises(ValueError, match="unknown UTS rng"):
        make_rng("mersenne")


@pytest.mark.parametrize("mode", ["splitmix", "sha1"])
def test_branching_mean_approximates_b0(mode):
    """The geometric law must have expected value ~= b0 for both RNGs."""
    rng = make_rng(mode)
    b0 = 4.0
    q = b0 / (b0 + 1.0)
    root = rng.root_state(7)
    states = rng.child_states(root, 0, 4000)
    counts = rng.num_children(states, q)
    assert counts.min() >= 0
    assert abs(counts.mean() - b0) < 0.35
    # the long tail exists: some nodes have far more than b0 children
    assert counts.max() > 3 * b0


# -- the interval queue -----------------------------------------------------------------


def drain(bag, chunk=1000):
    total = 0
    while not bag.is_empty():
        total += bag.process(chunk)
    return total


@pytest.mark.parametrize("mode", ["splitmix", "sha1"])
def test_bag_count_matches_sequential_oracle(mode):
    params = UtsParams(b0=3.0, depth=5, seed=19, rng_mode=mode)
    assert drain(UtsBag.root(params)) == sequential_count(params)


def test_count_invariant_under_chunk_size():
    params = UtsParams(b0=4.0, depth=5, seed=19)
    counts = {drain(UtsBag.root(params), chunk) for chunk in (1, 7, 100, 100_000)}
    assert len(counts) == 1


def test_count_invariant_under_stealing_pattern():
    """Splitting bags in any interleaving must conserve the node count."""
    params = UtsParams(b0=4.0, depth=5, seed=19)
    expected = sequential_count(params)
    bag = UtsBag.root(params)
    thieves = []
    total = 0
    for _ in range(50):
        total += bag.process(97)
        loot = bag.split()
        if loot is not None:
            thieves.append(loot)
    total += drain(bag)
    for loot in thieves:
        total += drain(loot)
    assert total == expected


def test_split_every_interval_takes_from_each():
    params = UtsParams(b0=4.0, depth=8, seed=19)
    bag = UtsBag.root(params)
    bag.process(500)  # build up a deep interval stack
    pending_before = bag.pending_lower_bound
    depths_before = {dep for _, dep, _, _ in bag.intervals}
    loot = bag.split()
    assert loot is not None
    # conservation: nothing lost, nothing duplicated
    assert bag.pending_lower_bound + loot.pending_lower_bound == pending_before
    # the thief receives fragments across tree depths, not just leaf crumbs
    loot_depths = {dep for _, dep, _, _ in loot.intervals}
    assert len(loot_depths & depths_before) >= min(2, len(depths_before))
    # singletons (big shallow subtrees) change hands rather than being hoarded
    assert any(hi - lo == 1 for _, _, lo, hi in loot.intervals)


def test_split_one_interval_original_mode():
    params = UtsParams(b0=4.0, depth=8, seed=19)
    bag = UtsBag.root(params, steal_all_intervals=False)
    bag.process(500)
    loot = bag.split()
    assert loot is not None
    assert len(loot.intervals) == 1


def test_serialized_size_grows_with_intervals():
    params = UtsParams(b0=4.0, depth=8, seed=19)
    bag = UtsBag.root(params)
    small = bag.serialized_nbytes
    bag.process(500)
    assert bag.serialized_nbytes > small


def test_invalid_params_rejected():
    with pytest.raises(KernelError):
        UtsParams(b0=1.0, depth=5)
    with pytest.raises(KernelError):
        UtsParams(b0=4.0, depth=0)


@given(st.integers(min_value=0, max_value=2**31), st.integers(2, 5))
@settings(max_examples=15, deadline=None)
def test_tree_size_invariant_random_seeds(seed, depth):
    params = UtsParams(b0=2.5, depth=depth, seed=seed)
    assert drain(UtsBag.root(params)) == sequential_count(params)


# -- the distributed kernel ---------------------------------------------------------------


def test_distributed_traversal_counts_every_node():
    params = UtsParams(b0=4.0, depth=6, seed=19)
    expected = sequential_count(params)
    rt = make_rt(places=16)
    result = run_uts(rt, depth=6, glb_config=GlbConfig(chunk_items=256))
    assert result.extra["nodes"] == expected


def test_distributed_count_invariant_across_place_counts():
    params = UtsParams(b0=4.0, depth=6, seed=19)
    expected = sequential_count(params)
    for places in (1, 4, 32):
        rt = make_rt(places=places)
        result = run_uts(rt, depth=6, glb_config=GlbConfig(chunk_items=256))
        assert result.extra["nodes"] == expected, f"places={places}"


def test_single_place_rate_matches_calibration():
    rt = make_rt(places=1)
    result = run_uts(rt, depth=6)
    from repro.harness.calibration import DEFAULT_CALIBRATION

    assert result.per_core == pytest.approx(
        DEFAULT_CALIBRATION.uts_nodes_per_sec, rel=0.02
    )


def test_parallel_efficiency_high():
    """Paper: 98% parallel efficiency at scale on geometric trees.

    time_dilation=100 reproduces the paper's work-to-latency regime (their
    runs last 90-200 s; see the build_uts docstring).
    """
    rt = make_rt(places=64)
    result = run_uts(
        rt, depth=9, glb_config=GlbConfig(chunk_items=64), time_dilation=100
    )
    assert result.extra["efficiency"] > 0.9


def test_refined_split_beats_original_at_scale():
    """Paper Section 6: interval-fragment stealing makes a tremendous
    difference for shallow trees."""

    def efficiency(steal_all):
        rt = make_rt(places=64)
        r = run_uts(
            rt, depth=9, glb_config=GlbConfig(chunk_items=64),
            steal_all_intervals=steal_all, time_dilation=100,
        )
        return r.extra["efficiency"]

    assert efficiency(True) > efficiency(False) + 0.05


def test_sha1_mode_runs_distributed():
    rt = make_rt(places=4)
    result = run_uts(rt, depth=4, rng_mode="sha1", glb_config=GlbConfig(chunk_items=64))
    params = UtsParams(b0=4.0, depth=4, seed=19, rng_mode="sha1")
    assert result.extra["nodes"] == sequential_count(params)
