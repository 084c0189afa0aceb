"""The paper-figure benchmark files (their shared helpers live in ``_util.py``).

Every ``bench_fig1_*`` file regenerates one panel of the paper's Figure 1;
``bench_table1``/``bench_table2`` regenerate the two tables; the
``bench_ablation_*`` files exercise the design choices DESIGN.md calls out.
Each benchmark prints the regenerated rows next to the paper's values — run
with ``-s`` to see them — and asserts the reproduction tolerances.
"""
