"""Resilient store, checkpoint/restore epochs, and elastic place recovery.

The paper's finish protocols assume places never die; this package adds the
Resilient-APGAS follow-on story: application state is checkpointed so a chaos
``kill`` costs one epoch of re-execution instead of the whole run — with the
bit-identical answer the chaos suite already demands.

Three pieces:

:class:`ResilientStore`
    Versioned key/value snapshots written to ``k=2`` replica places with
    quorum reads and exactly-once versioned writes over the resilient
    transport.
:func:`run_resilient_epochs`
    The epoch coordinator, on both backends: place 0 cuts globally
    consistent epochs at ``finish`` boundaries (tolerant FINISH_DENSE waves),
    commits the members' checkpoint blobs only when the full set arrived,
    and heals a death by revive, restore and retry.
:class:`GlbResilience`
    The GLB variant: task-bag fragments are checkpointed at steal boundaries
    and a loot ledger keeps in-flight steals exactly-once across deaths, so a
    killed worker's subtree is re-executed from its last fragment instead of
    being written off.
"""

from repro.errors import KernelError
from repro.resilient.checkpoint import run_resilient_epochs
from repro.resilient.glb import GlbResilience
from repro.resilient.store import ResilientStore

#: kernels with checkpoint/restore hooks (``--resilient``), on every backend
RESILIENT_KERNELS = frozenset({"kmeans", "stream", "uts"})


def require_resilient(kernel: str) -> None:
    """Refuse ``--resilient`` for a kernel without checkpoint/restore hooks."""
    if kernel not in RESILIENT_KERNELS:
        raise KernelError(
            f"kernel {kernel!r} has no checkpoint/restore hooks; "
            f"--resilient supports {sorted(RESILIENT_KERNELS)}"
        )


__all__ = [
    "GlbResilience",
    "RESILIENT_KERNELS",
    "ResilientStore",
    "require_resilient",
    "run_resilient_epochs",
]
