"""Tests for Smith-Waterman."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelError
from repro.kernels.smithwaterman import (
    sw_score,
    sw_score_reference,
)
from repro.kernels.smithwaterman.sw import safe_overlap

from tests.kernels.conftest import run_small

seq = st.lists(st.integers(0, 3), min_size=0, max_size=40).map(
    lambda xs: np.array(xs, dtype=np.int8)
)


def test_identical_sequences_score_full_match():
    a = np.array([0, 1, 2, 3], dtype=np.int8)
    assert sw_score(a, a) == 8  # 4 matches x 2


def test_empty_sequence_scores_zero():
    a = np.array([], dtype=np.int8)
    b = np.array([1, 2], dtype=np.int8)
    assert sw_score(a, b) == 0
    assert sw_score(b, a) == 0


def test_disjoint_alphabets_score_zero():
    a = np.zeros(5, dtype=np.int8)
    b = np.ones(5, dtype=np.int8)
    assert sw_score(a, b) == 0


def test_local_alignment_ignores_flanks():
    # the motif is buried in noise on both sides
    motif = np.array([0, 1, 2, 3, 0, 1], dtype=np.int8)
    b = np.concatenate([np.full(10, 3, np.int8), motif, np.full(10, 2, np.int8)])
    assert sw_score(motif, b) == 12


def test_gap_handling():
    a = np.array([0, 1, 2, 3], dtype=np.int8)
    b = np.array([0, 1, 3, 2, 3], dtype=np.int8)  # insertion of 3
    # align 0,1,2,3 against 0,1,(3),2,3 -> 4 matches - 1 gap = 8 - 1 = 7
    assert sw_score(a, b) == 7


@given(seq, seq)
@settings(max_examples=60, deadline=None)
def test_vectorized_matches_reference(a, b):
    assert sw_score(a, b) == sw_score_reference(a, b)


@given(seq, seq, st.integers(1, 5), st.integers(-4, 0), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_row_scan_matches_reference_for_any_scoring(a, b, match, mismatch, gap):
    """The prefix-max row scan is exact integer arithmetic: equal to the loop
    DP for every scoring, with either sequence the longer one."""
    expected = sw_score_reference(a, b, match, mismatch, gap)
    assert sw_score(a, b, match, mismatch, gap) == expected
    assert sw_score(b, a, match, mismatch, gap) == expected


@pytest.mark.parametrize("m,n", [(0, 0), (0, 1), (1, 0), (1, 1), (1, 9), (9, 1), (70, 13), (13, 70)])
def test_row_scan_matches_reference_at_edge_lengths(m, n):
    rng = np.random.default_rng(m * 100 + n)
    a = rng.integers(0, 4, size=m).astype(np.int8)
    b = rng.integers(0, 4, size=n).astype(np.int8)
    for scoring in [(2, -1, 1), (3, -2, 2), (1, -1, 0), (5, -4, 3)]:
        score = sw_score(a, b, *scoring)
        assert score == sw_score_reference(a, b, *scoring)
        assert type(score) is int


@given(seq, seq)
@settings(max_examples=40, deadline=None)
def test_symmetry(a, b):
    assert sw_score(a, b) == sw_score(b, a)


def test_distributed_matches_whole_sequence_dp():
    places, m, frag = 4, 12, 60
    result = run_small(
        "smithwaterman", places, short_len=m, long_per_place=frag, iterations=1,
        actual_short=m, actual_long=frag, seed=3,
    )
    assert result.verified
    short = result.extra["short"]
    long_seq = result.extra["long"]
    assert result.extra["best_score"] == sw_score(short, long_seq)


@pytest.mark.parametrize("seed", [0, 1, 2, 5])
def test_fragment_decomposition_exact_across_seeds(seed):
    places = 8
    result = run_small(
        "smithwaterman", places, short_len=10, long_per_place=40, iterations=1,
        actual_short=10, actual_long=40, seed=seed,
    )
    assert result.extra["best_score"] == sw_score(result.extra["short"], result.extra["long"])


def test_safe_overlap_formula():
    # match=2, gap=1: alignments span < m + 2m on the long side
    assert safe_overlap(10) == 30


def test_run_time_increases_from_one_place_to_full_octant():
    """Paper: 8.61 s at one place vs 12.68 s with 32 places (bus contention)."""
    t1 = run_small("smithwaterman", 1, iterations=1).value
    t4 = run_small("smithwaterman", 4, iterations=1).value  # full small octant
    assert t4 > t1 * 1.2


def test_scaling_out_loses_little():
    """Paper: 12.68 s at one host -> 12.87 s at 1,470 hosts (2% loss)."""
    t_host = run_small("smithwaterman", 4, iterations=1).value
    t_many = run_small("smithwaterman", 64, iterations=1).value
    assert t_many / t_host < 1.1


def test_invalid_parameters_rejected():
    with pytest.raises(KernelError):
        run_small("smithwaterman", 8, short_len=0)
