"""Checkpoint/restore epochs and elastic place recovery.

The paper's finish protocols assume places never die; this package adds the
Resilient-APGAS follow-on story: application state is checkpointed so a chaos
``kill`` costs one epoch of re-execution instead of the whole run — with the
bit-identical answer the chaos suite already demands.

Two pieces:

:func:`run_resilient_epochs`
    The epoch coordinator, on both backends: place 0 cuts globally
    consistent epochs at ``finish`` boundaries (tolerant FINISH_DENSE waves),
    commits the members' checkpoint blobs only when the full set arrived,
    and heals a death by revive, restore and retry.  UTS is a single epoch,
    retried from scratch.
:data:`RESILIENT_KERNELS`
    The kernels whose drivers wire their state into the coordinator.
"""

from repro.errors import KernelError
from repro.resilient.checkpoint import run_resilient_epochs

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
    "RESILIENT_KERNELS",
    "require_resilient",
    "run_resilient_epochs",
]
