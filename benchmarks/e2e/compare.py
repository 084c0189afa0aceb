"""``--compare A.json B.json``: B against A, one row per workload and metric.

Both files come from ``--out`` (which pools every run made into the file, so
an alternated parent/change pair set is two files).  Each row gives both
medians with their quartiles, the ratio B/A, and a verdict against the bound
``BENCHMARK.json`` fixes for the metric:

* ``worse`` — B's median is worse than A's by more than the bound and by more
  than either side's own spread (distance between quartiles over median);
* ``unresolved`` — not worse, but a side's spread is wider than the bound, so
  "unchanged" cannot be claimed either;
* ``within bound`` — otherwise.

On the simulator clock every exact-repeat count and ``sim_time_s`` must be
identical; any difference is listed.  Exit status is non-zero on ``worse`` or
when B failed a larger share of its operations than A.
"""

from __future__ import annotations

import json

from benchmarks.e2e.driver import END_TO_END, quartiles
from benchmarks.e2e.workloads import EXACT, WORKLOADS


def _verdict(metric: dict, a: tuple, b: tuple) -> str:
    (a1, am, a3), (b1, bm, b3) = a, b
    change = (bm - am) / am if metric["better"] == "lower" else (am - bm) / am
    spread = max((a3 - a1) / am, (b3 - b1) / bm)
    if change > metric["bound"] and change > spread:
        return "worse"
    if spread > metric["bound"]:
        return "unresolved"
    return "within bound"


def compare_files(a_path: str, b_path: str) -> int:
    with open(a_path) as fa, open(b_path) as fb:
        a_file, b_file = json.load(fa), json.load(fb)
    a_all, b_all = a_file["workloads"], b_file["workloads"]
    same_inputs = a_file["seed"] == b_file["seed"]
    if not same_inputs:
        print("seeds differ: exact counts are not compared")
    bad = False
    print(f"A = {a_path}\nB = {b_path}\n")
    print(f"{'workload':<22}{'metric':<13}{'A median [q1, q3] n':<40}"
          f"{'B median [q1, q3] n':<40}{'B/A':>7}  verdict")
    for name in WORKLOADS:
        if name not in a_all or name not in b_all:
            continue
        a, b = a_all[name], b_all[name]
        for metric, spec in END_TO_END.items():
            qa, qb = quartiles(a["samples"][metric]), quartiles(b["samples"][metric])
            verdict = _verdict(spec, qa, qb)
            bad |= verdict == "worse"

            def cell(q, n):
                return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}] n={n}"

            print(f"{name:<22}{metric:<13}{cell(qa, len(a['samples'][metric])):<40}"
                  f"{cell(qb, len(b['samples'][metric])):<40}{qb[1] / qa[1]:>7.3f}  {verdict}")
        if WORKLOADS[name].exact and same_inputs:
            for key in EXACT:
                va, vb = a["per_layer"].get(key, 0), b["per_layer"].get(key, 0)
                if va != vb:
                    print(f"{name:<22}{key}: exact count differs: A {va!r}, B {vb!r}")
        share_a, share_b = a["failed"] / a["attempted"], b["failed"] / b["attempted"]
        if share_b > share_a:
            bad = True
            print(f"{name:<22}failed share rose: A {a['failed']}/{a['attempted']}, "
                  f"B {b['failed']}/{b['attempted']}")
    return 1 if bad else 0
