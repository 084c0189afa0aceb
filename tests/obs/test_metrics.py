"""Tests for the metrics registry (repro.obs.metrics)."""

import pytest

from repro.obs import MetricsRegistry, ObsError


def test_counter_get_or_create_identity():
    m = MetricsRegistry()
    a = m.counter("x.messages", kind="msg")
    b = m.counter("x.messages", kind="msg")
    assert a is b
    a.inc()
    b.inc(4)
    assert m.value("x.messages", kind="msg") == 5


def test_labels_distinguish_instruments():
    m = MetricsRegistry()
    m.counter("n.msgs", kind="msg").inc(3)
    m.counter("n.msgs", kind="rdma").inc(2)
    assert m.value("n.msgs", kind="msg") == 3
    assert m.value("n.msgs", kind="rdma") == 2
    assert m.total("n.msgs") == 5
    assert m.by_label("n.msgs", "kind") == {"msg": 3, "rdma": 2}


def test_counter_rejects_decrease():
    m = MetricsRegistry()
    with pytest.raises(ObsError):
        m.counter("c").inc(-1)


def test_type_clash_rejected():
    m = MetricsRegistry()
    m.counter("thing")
    with pytest.raises(ObsError):
        m.gauge("thing")


def test_gauge_set_and_bind():
    m = MetricsRegistry()
    g = m.gauge("g")
    g.set(7.5)
    assert m.value("g") == 7.5
    state = {"v": 1}
    m.gauge("g2", fn=lambda: state["v"])
    state["v"] = 42
    assert m.value("g2") == 42


def test_histogram_summary():
    m = MetricsRegistry()
    h = m.histogram("lat")
    for x in (1.0, 3.0, 2.0):
        h.observe(x)
    assert h.count == 3
    assert h.min == 1.0 and h.max == 3.0
    assert h.mean == pytest.approx(2.0)
    assert m.value("lat")["count"] == 3


def test_value_default_when_absent():
    m = MetricsRegistry()
    assert m.value("never.registered") == 0
    assert m.value("never.registered", default=None) is None
    assert m.total("never.registered") == 0


def test_snapshot_is_plain_data_and_queryable():
    m = MetricsRegistry()
    m.counter("a.msgs", place=0).inc(2)
    m.counter("a.msgs", place=1).inc(3)
    m.gauge("b").set(1.5)
    snap = m.snapshot()
    # snapshot decouples from later increments
    m.counter("a.msgs", place=0).inc(10)
    assert snap.get("a.msgs", place=0) == 2
    assert snap.total("a.msgs") == 5
    assert snap.by("a.msgs", "place") == {0: 2, 1: 3}
    assert "a.msgs" in snap.series() and "b" in snap.series()
    text = snap.render()
    assert "a.msgs{place=0}" in text and "b" in text


def test_render_prefix_filter():
    m = MetricsRegistry()
    m.counter("net.messages").inc()
    m.counter("glb.steals").inc()
    text = m.snapshot().render(prefix="net.")
    assert "net.messages" in text
    assert "glb.steals" not in text


def test_histogram_quantiles_nearest_rank_exact():
    m = MetricsRegistry()
    h = m.histogram("lat.q")
    for x in range(100, 0, -1):  # insertion order must not matter
        h.observe(float(x))
    assert h.quantile(0.50) == 50.0
    assert h.quantile(0.95) == 95.0
    assert h.quantile(0.99) == 99.0
    assert h.quantile(0.0) == 1.0
    assert h.quantile(1.0) == 100.0


def test_histogram_quantile_single_sample_and_empty():
    m = MetricsRegistry()
    h = m.histogram("one")
    assert h.quantile(0.99) is None
    h.observe(7.0)
    assert h.quantile(0.5) == 7.0
    assert h.quantile(0.99) == 7.0


def test_histogram_quantile_rejects_out_of_range():
    m = MetricsRegistry()
    h = m.histogram("bad")
    h.observe(1.0)
    with pytest.raises(ObsError):
        h.quantile(1.5)
    with pytest.raises(ObsError):
        h.quantile(-0.1)


def test_histogram_snapshot_value_carries_slo_quantiles():
    m = MetricsRegistry()
    h = m.histogram("slo", tenant="a")
    for x in (5.0, 1.0, 3.0, 2.0, 4.0):
        h.observe(x)
    v = m.snapshot().get("slo", tenant="a")
    assert v["count"] == 5
    assert v["p50"] == 3.0
    assert v["p95"] == 5.0 and v["p99"] == 5.0
    empty = m.histogram("slo", tenant="b").value
    assert empty["count"] == 0 and empty["p50"] is None


def test_histogram_labels_keep_series_independent():
    m = MetricsRegistry()
    m.histogram("wait", tenant="a").observe(1.0)
    m.histogram("wait", tenant="b").observe(9.0)
    snap = m.snapshot()
    assert snap.get("wait", tenant="a")["max"] == 1.0
    assert snap.get("wait", tenant="b")["max"] == 9.0


def test_histogram_renders_summary_line():
    m = MetricsRegistry()
    h = m.histogram("render.me")
    for x in (1.0, 2.0, 3.0):
        h.observe(x)
    text = m.snapshot().render()
    assert "render.me" in text
    assert "p50" in text and "p99" in text
