"""The golden trace corpus: canonical run digests, committed.

Every kernel's canonical trace digest, result, checksum, control-message
counts, executed-event count, and metrics digest at a small place count are
committed under ``tests/sim/golden_traces/`` — a regression that changes event
order, modeled time, protocol traffic, or results anywhere in the stack shows
up as a golden diff.  This corpus is the event core's behavioural reference:
a change to how events get onto or off the clock must leave every file here
byte-identical.  The eight single-octant entries send shared-memory messages
only; the two ``@64`` entries run on ``MachineConfig.small()`` and pin the
route cache and the LL/LR/D link reservations too.

Intentional changes regenerate the corpus with::

    pytest tests/sim/test_golden_traces.py --write-golden

and the resulting file diff *is* the review artifact: it names exactly which
kernels' behavior moved, and in which fields.
"""

import json
from pathlib import Path

import pytest

from repro.machine.config import MachineConfig

from ._diff import CROSS_OCTANT_PLACES, KERNEL_PLACES, golden_form, run_fingerprint

GOLDEN_DIR = Path(__file__).parent / "golden_traces"

#: (kernel, places, machine config); None is the full 32-core-per-octant machine
CASES = [pytest.param(k, p, None, id=k) for k, p in sorted(KERNEL_PLACES.items())] + [
    pytest.param(k, p, MachineConfig.small(), id=f"{k}@{p}-small")
    for k, p in sorted(CROSS_OCTANT_PLACES.items())
]


def _golden_path(kernel: str, places: int) -> Path:
    return GOLDEN_DIR / f"{kernel}@{places}.json"


@pytest.mark.parametrize("kernel, places, config", CASES)
def test_kernel_matches_golden(kernel, places, config, request):
    fp = golden_form(run_fingerprint(kernel, places, config))
    path = _golden_path(kernel, places)

    if request.config.getoption("--write-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(fp, indent=2, sort_keys=True) + "\n")
        return

    assert path.exists(), (
        f"no golden for {kernel}@{places}; regenerate the corpus with "
        "`pytest tests/sim/test_golden_traces.py --write-golden`"
    )
    golden = json.loads(path.read_text())
    for key in golden:
        assert fp.get(key) == golden[key], (
            f"{kernel}@{places}: {key} diverged from the committed golden "
            "(intentional? regenerate with --write-golden)"
        )


def test_corpus_has_no_strays():
    """Every committed golden corresponds to a kernel still in the matrix."""
    expected = {
        f"{k}@{p}.json" for k, p in (*KERNEL_PLACES.items(), *CROSS_OCTANT_PLACES.items())
    }
    actual = {p.name for p in GOLDEN_DIR.glob("*.json")}
    assert actual == expected
