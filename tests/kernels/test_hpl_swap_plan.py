"""HPL's swap plan: each place walks only its own row swaps.

The walk every place once made over every swap of a step is kept here as the
oracle.  :func:`swap_plan` must hand each process row exactly the entries that
walk acted on, in the same order, and a run driven by the oracle must be
bit-identical to one driven by the plan.
"""

import random

import pytest

from repro.harness.runner import simulate
from repro.kernels.hpl import hpl as hpl_module
from repro.kernels.hpl.hpl import owned_blocks_after, swap_plan


def walk_oracle(swaps: list, nb: int, P: int) -> dict:
    """The per-swap walk, made once per process row ``pi``."""
    plan: dict = {}
    for pi in range(P):
        mine = []
        for r1, r2 in swaps:
            pr1, pr2 = (r1 // nb) % P, (r2 // nb) % P
            if pr1 == pr2:
                if pi == pr1:  # local swap: memory traffic only
                    mine.append(None)
            elif pi in (pr1, pr2):
                mine.append(pr2 if pi == pr1 else pr1)
        if mine:
            plan[pi] = mine
    return plan


def _random_swaps(rng: random.Random, n: int, count: int) -> list:
    """Pivot swaps as ``factor_panel`` makes them: row ``r1`` with a row at
    or below it, the row itself included (a same-row swap)."""
    swaps = []
    for _ in range(count):
        r1 = rng.randrange(n)
        r2 = r1 if rng.random() < 0.2 else rng.randrange(r1, n)
        swaps.append((r1, r2))
    return swaps


@pytest.mark.parametrize("P", [1, 2, 3, 4, 16])
def test_swap_plan_equals_the_per_swap_walk(P):
    rng = random.Random(P)
    for trial in range(60):
        nb = rng.choice([1, 2, 4, 8, 16])
        swaps = _random_swaps(rng, nb * rng.randint(1, 3 * P), rng.randint(0, 40))
        assert swap_plan(swaps, nb, P) == walk_oracle(swaps, nb, P), (P, nb, swaps)


def test_owned_block_count_equals_the_generator():
    for nblk in range(41):
        for k in range(nblk):
            for mod in range(1, 9):
                for mine in range(mod):
                    want = sum(1 for b in range(k + 1, nblk) if b % mod == mine)
                    assert owned_blocks_after(k, nblk, mod, mine) == want, (k, nblk, mod, mine)


def _run(places: int):
    r = simulate("hpl", places, seed=0)
    return r.sim_time, r.value, r.extra["residual"], r.extra["metrics"].render()


# 1 place has no teams (the diagonal owner's own plan); 12 places is the
# non-square 3x4 grid
@pytest.mark.parametrize("places", [1, 3, 12, 16])
def test_run_with_the_plan_is_bit_identical_to_the_walk(places, monkeypatch):
    planned = _run(places)
    monkeypatch.setattr(hpl_module, "swap_plan", walk_oracle)
    assert _run(places) == planned
