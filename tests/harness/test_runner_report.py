"""Tests for the simulation runner defaults and the report generator."""

import io

import pytest

from repro.harness.report import PANEL_ORDER, generate
from repro.harness.runner import PORTABLE_KERNELS, make_runtime, simulate
from repro.machine import MachineConfig


def test_kernel_registry_is_complete():
    assert PORTABLE_KERNELS == sorted(
        ["stream", "randomaccess", "fft", "hpl", "uts", "kmeans", "smithwaterman", "bc"]
    )
    assert PANEL_ORDER and set(PANEL_ORDER) == set(PORTABLE_KERNELS)


def test_make_runtime_applies_overrides():
    rt = make_runtime(4, config=MachineConfig.small(), jitter_fraction=0.01)
    assert rt.config.jitter_fraction == 0.01
    assert rt.n_places == 4


def test_simulate_accepts_kernel_kwargs():
    result = simulate("stream", 4, config=MachineConfig.small(), iterations=2,
                      elements_per_place=1000)
    assert result.extra["iterations"] == 2


def test_simulate_hpl_modeled_n_scales_with_hosts():
    small = simulate("hpl", 1, config=MachineConfig.small())
    # modeled_N derives from host count; one place -> one host sizing
    assert small.value > 0
    assert small.verified


@pytest.mark.parametrize("kernel", ["stream", "kmeans"])
def test_simulate_results_carry_units(kernel):
    result = simulate(kernel, 2, config=MachineConfig.small())
    assert result.unit in {"B/s", "s"}
    assert result.places == 2


def test_report_generator_model_only_smoke(monkeypatch):
    """The report must render every panel; patch out the slow sim rows."""
    import repro.harness.report as report_mod

    original = report_mod.figure1_panel
    monkeypatch.setattr(
        report_mod, "figure1_panel", lambda k: original(k, include_sim=False)
    )
    out = io.StringIO()
    generate(out)
    text = out.getvalue()
    for kernel in PANEL_ORDER:
        assert f"Figure 1 / {kernel}" in text
    assert "Table 1" in text and "Table 2" in text
