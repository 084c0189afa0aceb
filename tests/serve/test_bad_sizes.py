"""A scenario whose kernel parameters name a negative actual size aborts its
jobs cleanly (``KernelError``), as a negative modeled size (``short_len``)
already did."""

import pytest

from repro.serve import parse_scenario, run_scenario


def scenario(kernel: str, params: dict):
    return parse_scenario({
        "seed": 5,
        "places": 4,
        "duration": 0.005,
        "tenants": [{"name": "t", "rate": 400.0, "kernel_mix": {kernel: 1.0}}],
        "kernels": {kernel: {"places_min": 2, "places_max": 2, "params": params}},
    })


@pytest.mark.parametrize(
    "kernel,params",
    [
        ("smithwaterman", {"actual_short": -3}),
        ("smithwaterman", {"actual_long": -3}),
        ("kmeans", {"actual_points": -3}),
        ("kmeans", {"actual_k": -3}),
    ],
    ids=["sw-actual_short", "sw-actual_long", "kmeans-actual_points", "kmeans-actual_k"],
)
def test_negative_size_aborts_every_job(kernel, params):
    _report, result, _rt = run_scenario(scenario(kernel, params))
    assert result.jobs
    assert all(job.status == "aborted" for job in result.jobs)
    assert all("must be positive" in job.error for job in result.jobs)
