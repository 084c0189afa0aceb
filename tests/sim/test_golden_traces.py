"""The golden trace corpus: canonical run digests, committed.

Every kernel's canonical trace digest, result, checksum, control-message
counts, executed-event count, and metrics digest at a small place count are
committed under ``tests/sim/golden_traces/`` — a regression that changes event
order, modeled time, protocol traffic, or results anywhere in the stack shows
up as a golden diff.  This corpus is the event core's behavioural reference:
a change to how events get onto or off the clock must leave every file here
byte-identical.  The eight single-octant entries send shared-memory messages
only; the ``@64`` entries run on ``MachineConfig.small()`` and pin the route
cache and the LL/LR/D link reservations too, and the two ``uts@64+`` entries
pin the resilient transport under drops, duplicates, delays, reorders and a
place kill.

Intentional changes regenerate the corpus with::

    pytest tests/sim/test_golden_traces.py --write-golden

and the resulting file diff *is* the review artifact: it names exactly which
kernels' behavior moved, and in which fields.
"""

import json
from pathlib import Path

import pytest

from repro.harness.runner import simulate
from repro.machine.config import MachineConfig

from ._diff import CHAOS_CASES, CROSS_OCTANT_PLACES, KERNEL_PLACES, golden_form, run_fingerprint

GOLDEN_DIR = Path(__file__).parent / "golden_traces"

#: (golden name, kernel, places, machine config, simulate keywords); a None
#: config is the full 32-core-per-octant machine
CASES = (
    [pytest.param(f"{k}@{p}", k, p, None, {}, id=k) for k, p in sorted(KERNEL_PLACES.items())]
    + [
        pytest.param(f"{k}@{p}", k, p, MachineConfig.small(), {}, id=f"{k}@{p}-small")
        for k, p in sorted(CROSS_OCTANT_PLACES.items())
    ]
    + [
        pytest.param(name, k, p, MachineConfig.small(), kw, id=name)
        for name, (k, p, kw) in sorted(CHAOS_CASES.items())
    ]
)


@pytest.mark.parametrize("name, kernel, places, config, kwargs", CASES)
def test_kernel_matches_golden(name, kernel, places, config, kwargs, request):
    fp = golden_form(run_fingerprint(kernel, places, config, **kwargs))
    path = GOLDEN_DIR / f"{name}.json"

    if request.config.getoption("--write-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(fp, indent=2, sort_keys=True) + "\n")
        return

    assert path.exists(), (
        f"no golden for {name}; regenerate the corpus with "
        "`pytest tests/sim/test_golden_traces.py --write-golden`"
    )
    golden = json.loads(path.read_text())
    for key in golden:
        assert fp.get(key) == golden[key], (
            f"{name}: {key} diverged from the committed golden "
            "(intentional? regenerate with --write-golden)"
        )


def test_corpus_has_no_strays():
    """Every committed golden corresponds to a case still in the matrix."""
    expected = {
        f"{k}@{p}.json" for k, p in (*KERNEL_PLACES.items(), *CROSS_OCTANT_PLACES.items())
    } | {f"{name}.json" for name in CHAOS_CASES}
    actual = {p.name for p in GOLDEN_DIR.glob("*.json")}
    assert actual == expected


def test_untraced_chaos_run_matches_the_traced_one():
    """The benchmark times untraced runs and the golden is traced: tracing
    must not move a single event, instant of simulated time or counter on
    the resilient transport's path."""
    kernel, places, kwargs = CHAOS_CASES["uts@64+chaos"]
    config = MachineConfig.small()
    traced = run_fingerprint(kernel, places, config, **kwargs)
    plain = simulate(kernel, places, config=config, **kwargs)
    metrics = plain.extra["metrics"]
    assert metrics.total("sim.events_executed") == traced["events_executed"]
    assert plain.sim_time.hex() == traced["sim_time"]
    assert metrics.render() == traced["metrics"]
