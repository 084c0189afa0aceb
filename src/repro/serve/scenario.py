"""Serving scenario specifications.

A scenario describes one serving run declaratively: the machine size, the
arrival window, and a set of *tenants*, each with a Poisson arrival rate, a
fair-share weight, a priority class, an admission quota, and a kernel mix.
Scenarios load from JSON (``repro serve scenario.json``) or build directly
from keyword arguments; every malformed field raises :class:`ServeError`
(the CLI maps it to exit code 2).

The spec is pure data — parsing draws no random numbers and touches no
runtime state — so a scenario plus its seed fully determines the traffic
(see :mod:`repro.serve.traffic`) and, downstream, the whole run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ServeError
from repro.serve.jobs import KERNEL_PROFILES, SERVABLE_KERNELS, accepted_params


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's traffic contract and scheduling class."""

    name: str
    #: mean job arrivals per simulated second (open-loop Poisson)
    rate: float
    #: kernel name -> mixture weight (normalized at traffic generation)
    kernel_mix: dict
    #: fair-share weight: service is metered as places-allocated / weight
    weight: float = 1.0
    #: priority class; lower runs first (strictly before fair share)
    priority: int = 1
    #: max places this tenant may hold concurrently (None: the whole pool)
    quota_places: Optional[int] = None
    #: admission control: arrivals beyond this queue depth are rejected
    max_queued: Optional[int] = None
    #: hard cap on the number of arrivals generated (None: duration-limited)
    max_jobs: Optional[int] = None


@dataclass(frozen=True)
class ScenarioSpec:
    """A full serving scenario: machine, window, tenants, kernel footprints."""

    tenants: tuple
    seed: int = 0
    places: int = 16
    #: length of the arrival window in simulated seconds (jobs admitted
    #: before the cutoff still run to completion)
    duration: float = 0.05
    #: per-kernel footprint overrides: kernel -> {places_min, places_max, params}
    kernels: dict = field(default_factory=dict)
    #: optional fault-injection spec (see repro.chaos.ChaosSpec.parse)
    chaos: Optional[str] = None
    name: str = "scenario"

    def footprint(self, kernel: str):
        """(places_min, places_max, params) for one kernel in this scenario."""
        profile = KERNEL_PROFILES[kernel]
        override = self.kernels.get(kernel, {})
        lo = int(override.get("places_min", profile.places_min))
        hi = int(override.get("places_max", profile.places_max))
        params = profile.merged(override.get("params", {}))
        return lo, hi, params


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ServeError(msg)


def _number(d: dict, key: str, default, where: str, minimum=None, strict=False):
    value = d.get(key, default)
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{where}: {key!r} must be a number, got {value!r}",
    )
    if minimum is not None:
        ok = value > minimum if strict else value >= minimum
        bound = f"> {minimum}" if strict else f">= {minimum}"
        _require(ok, f"{where}: {key!r} must be {bound}, got {value!r}")
    return value


def _parse_tenant(d: dict, index: int) -> TenantSpec:
    where = f"tenant #{index}"
    _require(isinstance(d, dict), f"{where}: must be an object, got {d!r}")
    name = d.get("name")
    _require(
        isinstance(name, str) and name != "", f"{where}: 'name' must be a non-empty string"
    )
    where = f"tenant {name!r}"
    rate = _number(d, "rate", None, where, minimum=0, strict=True)
    mix = d.get("kernel_mix")
    _require(
        isinstance(mix, dict) and len(mix) > 0,
        f"{where}: 'kernel_mix' must be a non-empty object of kernel -> weight",
    )
    for kernel, w in mix.items():
        _require(
            kernel in SERVABLE_KERNELS,
            f"{where}: unknown kernel {kernel!r} in kernel_mix; "
            f"servable kernels are {list(SERVABLE_KERNELS)}",
        )
        _require(
            isinstance(w, (int, float)) and not isinstance(w, bool) and w > 0,
            f"{where}: kernel_mix[{kernel!r}] must be a positive number, got {w!r}",
        )
    weight = _number(d, "weight", 1.0, where, minimum=0, strict=True)
    priority = d.get("priority", 1)
    _require(
        isinstance(priority, int) and not isinstance(priority, bool),
        f"{where}: 'priority' must be an integer, got {priority!r}",
    )
    quota = d.get("quota_places")
    if quota is not None:
        quota = int(_number(d, "quota_places", None, where, minimum=1))
    max_queued = d.get("max_queued")
    if max_queued is not None:
        max_queued = int(_number(d, "max_queued", None, where, minimum=0))
    max_jobs = d.get("max_jobs")
    if max_jobs is not None:
        max_jobs = int(_number(d, "max_jobs", None, where, minimum=0))
    return TenantSpec(
        name=name,
        rate=float(rate),
        kernel_mix=dict(mix),
        weight=float(weight),
        priority=priority,
        quota_places=quota,
        max_queued=max_queued,
        max_jobs=max_jobs,
    )


def parse_scenario(d: dict, name: str = "scenario") -> ScenarioSpec:
    """Validate a scenario dict (e.g. parsed JSON) into a :class:`ScenarioSpec`."""
    _require(isinstance(d, dict), f"scenario must be a JSON object, got {type(d).__name__}")
    seed = int(_number(d, "seed", 0, "scenario", minimum=0))
    places = int(_number(d, "places", 16, "scenario", minimum=0))
    _require(
        places >= 3,
        f"scenario: 'places' must be >= 3 (one control place plus a pool), got {places}",
    )
    duration = float(_number(d, "duration", 0.05, "scenario", minimum=0, strict=True))
    tenants_raw = d.get("tenants")
    _require(
        isinstance(tenants_raw, list) and len(tenants_raw) > 0,
        "scenario: 'tenants' must be a non-empty list",
    )
    tenants = tuple(_parse_tenant(t, i) for i, t in enumerate(tenants_raw))
    names = [t.name for t in tenants]
    _require(len(set(names)) == len(names), f"scenario: duplicate tenant names in {names}")
    kernels = d.get("kernels", {})
    _require(isinstance(kernels, dict), "scenario: 'kernels' must be an object")
    pool = places - 1  # place 0 is the scheduler's control place
    for kernel, override in kernels.items():
        _require(
            kernel in SERVABLE_KERNELS,
            f"scenario: unknown kernel {kernel!r} in 'kernels'; "
            f"servable kernels are {list(SERVABLE_KERNELS)}",
        )
        _require(
            isinstance(override, dict),
            f"scenario: kernels[{kernel!r}] must be an object",
        )
        params = override.get("params", {})
        _require(
            isinstance(params, dict),
            f"scenario: kernels[{kernel!r}]['params'] must be an object",
        )
        accepted = accepted_params(kernel)
        unknown = sorted(set(params) - set(accepted))
        _require(
            not unknown,
            f"scenario: unknown parameter(s) {unknown} in kernels[{kernel!r}]['params']; "
            f"accepted: {accepted}",
        )
    chaos = d.get("chaos")
    _require(
        chaos is None or isinstance(chaos, str),
        f"scenario: 'chaos' must be a spec string, got {chaos!r}",
    )
    spec = ScenarioSpec(
        tenants=tenants,
        seed=seed,
        places=places,
        duration=duration,
        kernels={k: dict(v) for k, v in kernels.items()},
        chaos=chaos,
        name=name,
    )
    # footprints must fit the pool once overrides are folded in
    for kernel in SERVABLE_KERNELS:
        lo, hi, _ = spec.footprint(kernel)
        _require(lo >= 1, f"scenario: {kernel} places_min must be >= 1, got {lo}")
        _require(
            hi >= lo, f"scenario: {kernel} places_max {hi} is below places_min {lo}"
        )
        _require(
            lo <= pool,
            f"scenario: {kernel} needs {lo} places but the pool has only {pool} "
            f"(place 0 is reserved for the scheduler)",
        )
    return spec


def load_scenario(path: str) -> ScenarioSpec:
    """Load and validate a scenario JSON file."""
    if not os.path.exists(path):
        raise ServeError(f"scenario file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ServeError(f"unreadable scenario {path}: {exc}") from exc
    return parse_scenario(data, name=os.path.splitext(os.path.basename(path))[0])


def quick_scenario(
    places: int = 16,
    seed: int = 0,
    duration: float = 0.05,
    chaos: Optional[str] = None,
) -> ScenarioSpec:
    """The built-in two-tenant demo used by ``repro serve`` without a file."""
    return parse_scenario(
        {
            "seed": seed,
            "places": places,
            "duration": duration,
            "chaos": chaos,
            "tenants": [
                {
                    "name": "batch",
                    "rate": 400.0,
                    "weight": 1.0,
                    "priority": 2,
                    "quota_places": max(2, (places - 1) // 2),
                    "kernel_mix": {"uts": 0.5, "kmeans": 0.5},
                },
                {
                    "name": "interactive",
                    "rate": 600.0,
                    "weight": 2.0,
                    "priority": 1,
                    "quota_places": max(2, (places - 1) // 2),
                    "kernel_mix": {"stream": 0.6, "smithwaterman": 0.4},
                },
            ],
        },
        name="quick",
    )
