"""``--selftest``: tiny sizes of all seven workloads and every probe, with checks.

Also runnable as ``python -m pytest benchmarks/e2e/selftest.py`` (tier-1 does
not collect it: ``testpaths`` is ``tests``).  It checks the benchmark, not
the repository: names, coverage of the layer map, that every metric
``BENCHMARK.json`` promises is really produced, and that a wrong reference
is reported as a failed operation.
"""

from __future__ import annotations

import json
import math
import re
import sys
import traceback

from benchmarks.e2e import driver
from benchmarks.e2e.layers import LAYERS, repro_layer

_SRC = driver.ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: numbers children report only so the driver can derive a rate from them
_HELPERS = {"uts.nodes"}


def test_names_and_interactions():
    spec = driver.SPEC
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + driver.WORKLOADS
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert _NAME.fullmatch(name), name
    assert {f"layer.{layer}.{part}" for layer in LAYERS for part in ("self_s", "calls")} <= set(
        driver.PER_LAYER)
    interactions = json.loads((driver.HERE / "interactions.json").read_text())
    assert set(interactions) == set(driver.PER_LAYER), (
        set(interactions) ^ set(driver.PER_LAYER))


def test_input_tables_hold_one_entry_per_variant():
    from benchmarks.e2e import workloads

    for table in (workloads.UTS_TREES_512, workloads.UTS_CHAOS_128, workloads.SERVE_SEEDS):
        assert len(table) == len(set(table)) == workloads.VARIANTS


def test_layer_map_covers_every_repro_module():
    package = _SRC / "repro"
    unmapped = [
        str(path.relative_to(package)) for path in package.rglob("*.py")
        if repro_layer(path.relative_to(package).as_posix()) is None
    ]
    assert not unmapped, unmapped


def test_tiny_suite_emits_every_metric():
    results = driver.measure(driver.WORKLOADS, seed=0, seconds=0.0, rounds=1,
                             layers=True, tiny=True)
    produced = set()
    for name, samples in results.items():
        assert samples.failed == 0, (name, samples.failures)
        assert samples.attempted >= 1
        for traced in (False, True):
            line = json.loads(driver.contract_line(samples, traced))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True
            want = driver.PER_LAYER if traced else driver.END_TO_END
            assert set(line["metrics"]) == set(want), name
            for metric, entry in line["metrics"].items():
                assert math.isfinite(entry["value"]), (name, metric)
                assert entry["unit"] == want[metric]["unit"]
        assert all(v > 0 for v in samples.end_to_end().values()), name
        produced |= {metric for metric, value in samples.per_layer().items() if value}
        unknown = set(samples.layers) - set(driver.PER_LAYER) - _HELPERS
        assert not unknown, (name, unknown)
    # frames are only dropped, and jobs only rejected, when something is wrong
    never = {"procs.frames_dropped", "serve.jobs_rejected"}
    quiet = {m for m in driver.PER_LAYER if m not in produced} - never
    # a layer no tiny workload happens to enter may read 0; a metric outside
    # the layer table that no workload produces is a misspelt name
    assert all(m.startswith("layer.") for m in quiet), quiet


def test_wrong_reference_is_a_failed_operation():
    from benchmarks.e2e.workloads import WORKLOADS

    workload = WORKLOADS["procs_bulk_2"]
    inputs = workload.setup(0, True)
    assert not workload.run(inputs).failures
    inputs["refs"]["fft"]["checksum"] = "0" * 16
    outcome = workload.run(inputs)
    assert len(outcome.failures) == 1 and "fft: checksum" in outcome.failures[0], outcome.failures
    assert outcome.attempted == 1 + len(inputs["kernels"])


def run_selftest() -> int:
    failed = 0
    for name, test in list(globals().items()):
        if not name.startswith("test_"):
            continue
        try:
            test()
        except Exception:
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
        else:
            print(f"ok   {name}")
    return 1 if failed else 0
