"""Shared kernel-test helpers."""

from repro.machine import MachineConfig
from repro.runtime import ApgasRuntime


def make_rt(places=8, **overrides):
    return ApgasRuntime(places=places, config=MachineConfig.small(**overrides))


def run_small(kernel, places=8, **kwargs):
    """``simulate(kernel, places, **kwargs)`` on ``make_rt``'s small machine."""
    from repro.harness.runner import simulate

    return simulate(kernel, places, config=MachineConfig.small(), **kwargs)
