"""Ablation: congruent allocation with large pages vs small pages.

Paper Section 3.3: the Torrent is very sensitive to TLB misses, so registered
segments must be backed by large pages — essential for RandomAccess.
"""

from repro.harness.reporting import render_table
from repro.harness.runner import simulate

from benchmarks._util import run_once

PLACES = 128


def _run(large_pages):
    return simulate(
        "randomaccess",
        PLACES,
        table_words_per_place=1 << 28,  # 2 GB per place
        updates_per_place=4096,
        large_pages=large_pages,
        model_updates_factor=(4 << 28) / 4096,
    )


def bench_large_pages_for_randomaccess(benchmark):
    def run_both():
        return _run(True), _run(False)

    large, small = run_once(benchmark, run_both)
    print()
    print(
        render_table(
            ["pages", "Gup/s per host"],
            [
                ("large (16 MB)", large.per_core / 1e9),
                ("small (64 KB)", small.per_core / 1e9),
            ],
        )
    )
    # large pages are *essential*: an order of magnitude, not a few percent
    assert large.per_core > 10 * small.per_core
