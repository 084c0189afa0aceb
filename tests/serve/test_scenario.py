"""Scenario spec parsing and validation."""

import json

import pytest

from repro.errors import ReproError, ServeError
from repro.serve import load_scenario, parse_scenario, quick_scenario

MINIMAL = {
    "tenants": [
        {"name": "a", "rate": 100.0, "kernel_mix": {"stream": 1.0}},
    ]
}


def test_minimal_scenario_defaults():
    spec = parse_scenario(MINIMAL)
    assert spec.seed == 0
    assert spec.places == 16
    assert spec.duration > 0
    assert len(spec.tenants) == 1
    t = spec.tenants[0]
    assert t.weight == 1.0 and t.priority == 1
    assert t.quota_places is None and t.max_queued is None


def test_footprint_merges_overrides():
    d = dict(MINIMAL)
    d["kernels"] = {"stream": {"places_min": 3, "params": {"iterations": 7}}}
    spec = parse_scenario(d)
    lo, hi, params = spec.footprint("stream")
    assert lo == 3
    assert hi >= lo
    assert params["iterations"] == 7
    # untouched kernels keep catalog defaults
    lo2, hi2, _ = spec.footprint("uts")
    assert (lo2, hi2) == (2, 4)


def test_serve_error_is_repro_error():
    assert issubclass(ServeError, ReproError)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("tenants"),
        lambda d: d.update(tenants=[]),
        lambda d: d.update(tenants="nope"),
        lambda d: d.update(places=2),
        lambda d: d.update(places="many"),
        lambda d: d.update(duration=0),
        lambda d: d.update(duration=-1.0),
        lambda d: d.update(seed=-1),
        lambda d: d.update(chaos=7),
        lambda d: d.update(kernels="nope"),
        lambda d: d.update(kernels={"nosuch": {}}),
        lambda d: d.update(kernels={"stream": {"places_min": 0}}),
        lambda d: d.update(kernels={"stream": {"places_min": 4, "places_max": 2}}),
        lambda d: d.update(kernels={"stream": {"places_min": 99}}),
        lambda d: d.update(kernels={"stream": {"params": "nope"}}),
        lambda d: d["tenants"].append({"name": "a", "rate": 1.0, "kernel_mix": {"uts": 1}}),
        lambda d: d["tenants"][0].pop("name"),
        lambda d: d["tenants"][0].update(name=""),
        lambda d: d["tenants"][0].pop("rate"),
        lambda d: d["tenants"][0].update(rate=0),
        lambda d: d["tenants"][0].update(rate="fast"),
        lambda d: d["tenants"][0].pop("kernel_mix"),
        lambda d: d["tenants"][0].update(kernel_mix={}),
        lambda d: d["tenants"][0].update(kernel_mix={"nosuch": 1.0}),
        lambda d: d["tenants"][0].update(kernel_mix={"stream": 0}),
        lambda d: d["tenants"][0].update(kernel_mix={"stream": True}),
        lambda d: d["tenants"][0].update(weight=0),
        lambda d: d["tenants"][0].update(priority="high"),
        lambda d: d["tenants"][0].update(quota_places=0),
        lambda d: d["tenants"][0].update(max_queued=-1),
    ],
)
def test_malformed_scenarios_raise(mutate):
    d = json.loads(json.dumps(MINIMAL))  # deep copy
    mutate(d)
    with pytest.raises(ServeError):
        parse_scenario(d)


@pytest.mark.parametrize("kernel, accepted_key", [("stream", "iterations"), ("uts", "depth")])
def test_unknown_kernel_param_rejected_at_parse_time(kernel, accepted_key):
    """An unknown parameter is a ServeError naming the accepted ones, not a
    TypeError from the kernel once a job of it runs."""
    d = json.loads(json.dumps(MINIMAL))
    d["kernels"] = {kernel: {"params": {"bogus": 3}}}
    with pytest.raises(ServeError, match=r"unknown parameter\(s\) \['bogus'\]") as err:
        parse_scenario(d)
    assert f"'{accepted_key}'" in str(err.value)


def test_every_profile_parameter_is_accepted():
    from repro.serve.jobs import KERNEL_PROFILES, accepted_params

    for kernel, profile in KERNEL_PROFILES.items():
        assert set(profile.params) <= set(accepted_params(kernel)), kernel


def test_non_object_scenario_raises():
    with pytest.raises(ServeError):
        parse_scenario([1, 2, 3])


def test_load_missing_file_raises():
    with pytest.raises(ServeError, match="not found"):
        load_scenario("/no/such/scenario.json")


def test_load_invalid_json_raises(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ServeError, match="unreadable"):
        load_scenario(str(p))


def test_load_names_scenario_after_file(tmp_path):
    p = tmp_path / "myscenario.json"
    p.write_text(json.dumps(MINIMAL))
    spec = load_scenario(str(p))
    assert spec.name == "myscenario"


def test_example_scenario_parses():
    spec = load_scenario("examples/serve_scenario.json")
    assert len(spec.tenants) == 2
    kernels = set()
    for t in spec.tenants:
        kernels |= set(t.kernel_mix)
    assert len(kernels) >= 3  # the worked scenario spans at least 3 kernel types


def test_quick_scenario_is_valid():
    spec = quick_scenario(places=8, seed=3)
    assert spec.places == 8 and spec.seed == 3
    assert len(spec.tenants) == 2
