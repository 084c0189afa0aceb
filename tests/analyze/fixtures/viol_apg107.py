"""Seeded violations for APG107 (resilient-without-hooks): kernels taking a
``resilient`` switch without ever touching the checkpoint machinery, plus
clean variants (direct wiring, helper delegation, flag forwarding)."""

from repro.resilient import run_resilient_epochs


def run_fake_kernel(rt, n, resilient=False):  # APG107 expected here
    total = 0
    for place in range(rt.n_places):
        total += n
    return total


def run_other_kernel(rt, *, resilient: bool):  # APG107 expected here
    return rt.n_places


def run_wired_kernel(rt, n, resilient=False):
    if resilient:
        return run_resilient_epochs
    return n


def _make_resilient_main(rt):
    return run_resilient_epochs


def run_delegating_kernel(rt, resilient=False):
    if resilient:
        return _make_resilient_main(rt)
    return rt


def dispatch(kernel, rt, resilient=False):
    return kernel(rt, resilient=resilient)


def takes_machinery_not_a_switch(rt, resilient=None):
    # a machinery-carrying parameter (no bool annotation/default) is exempt
    return resilient
