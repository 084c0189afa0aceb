"""Tests for table/figure regeneration and reporting."""

import pytest

from repro.harness import paper_data
from repro.harness.figures import MODEL_PLACES, SIM_PLACES, figure1_panel, render_panel
from repro.harness.reporting import render_table, si
from repro.harness.runner import PORTABLE_KERNELS, simulate
from repro.harness.tables import render_table1, render_table2, table1, table2


def test_all_eight_kernels_have_figure_definitions():
    assert set(SIM_PLACES) == set(MODEL_PLACES) == set(PORTABLE_KERNELS)
    assert set(paper_data.FIGURE1) == set(PORTABLE_KERNELS)


def test_table1_matches_paper_within_tolerance():
    data = table1()
    for row in data["rows"]:
        assert row["relative"] == pytest.approx(row["paper_relative"], abs=0.04), row[
            "benchmark"
        ]


def test_table2_matches_paper_within_tolerance():
    data = table2()
    for row in data["rows"]:
        assert row["efficiency"] == pytest.approx(
            row["paper_efficiency"], abs=0.04
        ), row["benchmark"]


def test_table_renderers_produce_text():
    t1 = render_table1(table1())
    t2 = render_table2(table2())
    assert "hpl" in t1 and "Class 1" in t1
    assert "bc" in t2 and "efficiency" in t2


def test_figure_panel_small(monkeypatch):
    panel = figure1_panel("stream", sim_places=[1, 32])
    text = render_panel(panel)
    assert "stream" in text
    assert "paper anchors" in text
    sources = {row[3] for row in panel["rows"]}
    assert sources == {"sim", "model"}


def test_figure_panel_model_only():
    panel = figure1_panel("hpl", include_sim=False)
    assert all(row[3] == "model" for row in panel["rows"])


def test_unknown_kernel_rejected():
    from repro.errors import KernelError

    with pytest.raises(KernelError, match="unknown kernel"):
        simulate("linpack", 4)


def test_render_table_alignment():
    text = render_table(["name", "value"], [("a", 1.0), ("long-name", 123456.0)])
    lines = text.splitlines()
    assert len({len(line) for line in lines}) == 1  # all rows same width


def test_si_formatting():
    assert si(5.964e11, "nodes/s") == "596.400 Gnodes/s"
    assert si(1.7e15, "flop/s") == "1.700 Pflop/s"
    assert si(0.5, "s") == "0.500 s"
