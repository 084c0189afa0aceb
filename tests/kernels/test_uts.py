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
from repro.kernels.uts.rng import _GAMMA, _MASK, _MIX1, _MIX2, _thresholds

from tests.kernels.conftest import make_rt
from tests.kernels.uts_oracle import int_intervals, process_oracle


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


@pytest.mark.parametrize("mode", ["splitmix", "sha1"])
def test_children_are_the_array_forms_pairwise(mode):
    """``children`` is ``child_states`` zipped with ``num_children``, as
    plain Python values, on a range far wider than any sibling interval."""
    rng = make_rng(mode)
    root = rng.root_state(19)
    states = rng.child_states(root, 3, 3000)
    pairs = rng.children(root, 3, 3000, 0.8)
    assert pairs == list(zip(list(states), rng.num_children(states, 0.8).tolist()))
    assert {type(v) for pair in pairs for v in pair} <= {int, bytes}


# -- the threshold table behind SplitMixRng.children ----------------------------------

_DRAW_MAX = 2**53 - 1


def _lookup(table, draws):
    """``children``'s ``len(t) - bisect_right(t, m)`` on a whole array."""
    return len(table) - np.searchsorted(np.asarray(table, dtype=np.uint64), draws, side="right")


@pytest.mark.parametrize("b0", [1.3, 2.0, 3.0, 4.0, 8.0])
def test_threshold_table_is_the_geometric_law(b0):
    q = UtsParams(b0=b0).q
    table = _thresholds(q)
    law = SplitMixRng.num_children
    # a million states over the whole 64-bit range
    states = np.random.default_rng(int(b0 * 10)).integers(0, 2**64, 1_000_000, dtype=np.uint64)
    np.testing.assert_array_equal(_lookup(table, states >> np.uint64(11)), law(states, q))
    # every draw within 2,000 of a threshold (where a wrong table is wrong),
    # and the ends of the domain
    around = np.arange(-2000, 2001)
    draws = (np.asarray(table, dtype=np.int64)[:, None] + around).ravel()
    draws = np.unique(np.clip(np.append(draws, [0, 1, _DRAW_MAX]), 0, _DRAW_MAX)).astype(np.uint64)
    np.testing.assert_array_equal(_lookup(table, draws), law(draws << np.uint64(11), q))
    # one entry per branching factor the smallest draw can give
    assert len(table) == law([0], q)[0] == law([1 << 11], q)[0]
    # ascending, and tied only where the law itself skips a factor (the few
    # smallest draws are further apart in log than one step of the law)
    steps = np.diff(np.asarray(table, dtype=np.int64))
    assert (steps >= 0).all()
    (tied,) = np.nonzero(steps == 0)
    at = np.asarray(table, dtype=np.uint64)[tied]
    skipped = law((at - np.uint64(1)) << np.uint64(11), q) - law(at << np.uint64(11), q)
    assert (skipped >= 2).all()


def _unshift(z, s):
    """Inverse of ``z ^= z >> s`` on 64 bits."""
    out = z
    for _ in range(64 // s):
        out = z ^ (out >> s)
    return out


def _parent_of(state):
    """A parent whose child 0 is ``state``: the SplitMix mix is a bijection."""
    z = _unshift(state, 31)
    z = _unshift((z * pow(_MIX2, -1, 2**64)) & _MASK, 27)
    z = _unshift((z * pow(_MIX1, -1, 2**64)) & _MASK, 30)
    return (z - _GAMMA) & _MASK


@pytest.mark.parametrize("b0", [2.0, 4.0, 8.0])
def test_children_draws_the_law_on_both_sides_of_every_threshold(b0):
    """The scalar lookup itself, not a vectorised copy of it: child states are
    steered onto the draws where the branching factor changes, which no random
    state hits (164 draws out of 2**53)."""
    q = UtsParams(b0=b0).q
    rng = SplitMixRng()
    draws = {max(0, min(_DRAW_MAX, t + d)) for t in _thresholds(q) for d in (-2, -1, 0, 1, 2)}
    states = [(m << 11) | low for m in sorted(draws | {0, 1, _DRAW_MAX}) for low in (0, 0x7FF)]
    got = [rng.children(_parent_of(st), 0, 1, q) for st in states]
    assert got == [[pair] for pair in zip(states, rng.num_children(states, q).tolist())]
    assert len({n for (_, n), in got}) > len(_thresholds(q)) // 2  # most factors drawn


def test_threshold_table_is_small_and_built_once_per_q():
    q = UtsParams(b0=4.0).q
    assert len(_thresholds(q)) == 164
    assert len(_thresholds(UtsParams(b0=1024.0).q)) == 37_636  # the largest accepted
    assert _thresholds(q) is _thresholds(UtsParams(b0=4.0, depth=3).q)
    assert all(type(t) is int for t in _thresholds(q))


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


@pytest.mark.parametrize("b0", [1e18, float(2**53), 1025.0, float("inf"), float("nan"), -4.0])
def test_b0_without_a_usable_geometric_law_is_rejected(b0):
    """From ``b0`` ~ 2**53 ``q`` rounds to 1.0 and ``log(q)`` to 0 (once: an
    empty tree behind a NumPy warning); the limit sits far below that, where
    the threshold table is still a few thousand integers."""
    with pytest.raises(KernelError, match="b0.*" + repr(b0).replace("+", r"\+")):
        UtsParams(b0=b0)


def test_unknown_rng_mode_rejected_at_construction():
    """Not later, inside ``make_rng`` (on procs: inside every place process)."""
    with pytest.raises(KernelError, match="mersenne"):
        UtsParams(rng_mode="mersenne")


# -- the integer traversal against the array one it replaced ------------------------------


def _assert_same(bag, ref, got=None, want=None):
    assert got == want
    assert bag.intervals == int_intervals(ref)
    assert bag._bootstrap == ref._bootstrap
    assert all(type(st) is int for st, _, _, _ in bag.intervals)


@pytest.mark.parametrize("depth", [5, 6, 7, 8])
@pytest.mark.parametrize("b0", [2.0, 3.0, 4.0, 8.0])
def test_process_equals_the_array_oracle_after_every_call(b0, depth):
    """Not the final count: the interval list, which is what split, loot and
    steal order (and so every event count and golden trace) are made of."""
    params = UtsParams(b0=b0, depth=depth, seed=19)
    for chunk in (1, 7, 64, 512, 4096):
        bag, ref = UtsBag.root(params), UtsBag.root(params)
        _assert_same(bag, ref)
        visited = 0
        for _ in range(200):  # a prefix of the big trees, all of the small
            got = bag.process(chunk)
            _assert_same(bag, ref, got, process_oracle(ref, chunk))
            visited += got
            if bag.is_empty() or visited > 12_000:
                break


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["process", "process", "split", "merge"]),
        st.integers(0, 7),
        st.integers(0, 7),
        st.sampled_from([1, 7, 64, 512, 4096]),
    ),
    min_size=1,
    max_size=60,
)


@given(_OPS, st.sampled_from([2.0, 3.0, 4.0, 8.0]), st.integers(5, 8), st.booleans())
@settings(max_examples=40, deadline=None)
def test_any_interleaving_of_process_split_merge_equals_the_oracle(ops, b0, depth, refined):
    params = UtsParams(b0=b0, depth=depth, seed=74)
    bags = [UtsBag.root(params, steal_all_intervals=refined)]
    refs = [UtsBag.root(params, steal_all_intervals=refined)]
    for op, i, j, chunk in ops:
        i, j = i % len(bags), j % len(bags)
        if op == "process":
            _assert_same(bags[i], refs[i], bags[i].process(chunk), process_oracle(refs[i], chunk))
        elif op == "split":
            loot, ref_loot = bags[i].split(), refs[i].split()
            assert (loot is None) == (ref_loot is None)
            if loot is not None:
                bags.append(loot)
                refs.append(ref_loot)
        elif i != j:
            bags[i].merge(bags.pop(j))
            refs[i].merge(refs.pop(j))
        for bag, ref in zip(bags, refs):
            _assert_same(bag, ref)


@pytest.mark.parametrize("seed,nodes", [(19, 205_011), (74, 208_390), (341, 214_834)])
def test_depth_nine_trees_keep_their_committed_sizes(seed, nodes):
    """The counts ``benchmarks/e2e/workloads.py`` pins its inputs on."""
    assert drain(UtsBag.root(UtsParams(b0=4.0, depth=9, seed=seed)), 64) == nodes


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
