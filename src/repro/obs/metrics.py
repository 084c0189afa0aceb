"""The metrics registry: named counters, gauges, and histograms.

Every layer of the stack — the simulation engine, the network model, the
transport, the finish protocols, broadcast, teams, and the global load
balancer — reports into one :class:`MetricsRegistry` owned by the runtime's
:class:`~repro.obs.Observability`.  Instruments are registered once (hot
paths hold a reference and pay one attribute increment per event) and carry
labels (``place``, ``pragma``, ``kind``, ...) so protocol traffic can be
sliced the way the paper's evaluation slices it.

Instruments never touch the simulation engine: recording a metric cannot
schedule an event, charge time, or perturb RNG streams, so an instrumented
run is bit-for-bit identical to an uninstrumented one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.errors import SimulationError


class ObsError(SimulationError):
    """Misuse of the observability layer (type clash, bad labels)."""


def _canon(labels: dict) -> tuple:
    """Canonical, hashable form of a label set."""
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing count (messages, bytes, steals, ...)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ObsError(f"counter {self.name!r} cannot decrease (inc {amount!r})")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}{self.labels or ''} = {self.value}>"


class Gauge:
    """A point-in-time value, either set explicitly or read from a callback."""

    __slots__ = ("name", "labels", "_value", "_fn")

    def __init__(self, name: str, labels: dict, fn: Optional[Callable[[], float]] = None):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        self._fn = None
        self._value = value

    def bind(self, fn: Callable[[], float]) -> None:
        """Source the gauge from ``fn()`` at read time."""
        self._fn = fn

    @property
    def value(self) -> float:
        return self._fn() if self._fn is not None else self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}{self.labels or ''} = {self.value}>"


#: retained observations per histogram; past this the summary stays exact but
#: quantiles are computed over the first SAMPLE_CAP samples only (documented
#: bound — serving latencies are thousands of observations, far below it)
SAMPLE_CAP = 65_536

#: the quantiles every histogram snapshot reports (the serving SLO set)
QUANTILES = (0.5, 0.95, 0.99)


class Histogram:
    """Streaming summary (count/total/min/max) plus p50/p95/p99 quantiles.

    Observations are retained (up to :data:`SAMPLE_CAP`) so snapshots can
    report exact order-statistic quantiles; count/total/min/max stay exact
    regardless.  Retention is a plain list append — deterministic, no
    sampling RNG — so an instrumented run replays bit-identically.
    """

    __slots__ = ("name", "labels", "count", "total", "min", "max", "samples")

    def __init__(self, name: str, labels: dict) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.samples: list[float] = []

    def observe(self, x: float) -> None:
        self.count += 1
        self.total += x
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        if len(self.samples) < SAMPLE_CAP:
            self.samples.append(x)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """The q-quantile (0 <= q <= 1) of the retained samples.

        Nearest-rank on the sorted samples: ``sorted[ceil(q*n) - 1]`` — p50 of
        [1..100] is 50, p99 is 99.  Returns None when nothing was observed.
        """
        if not 0.0 <= q <= 1.0:
            raise ObsError(f"quantile must be in [0, 1], got {q!r}")
        if not self.samples:
            return None
        ordered = sorted(self.samples)
        rank = max(1, math.ceil(q * len(ordered)))
        return ordered[rank - 1]

    @property
    def value(self) -> dict:
        """Snapshot form of the summary, including the SLO quantiles."""
        if not self.count:
            return {
                "count": 0, "total": 0.0, "min": None, "max": None, "mean": 0.0,
                "p50": None, "p95": None, "p99": None,
            }
        out = {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }
        ordered = sorted(self.samples)
        n = len(ordered)
        for q in QUANTILES:
            out[f"p{int(q * 100)}"] = ordered[max(1, math.ceil(q * n)) - 1]
        return out


@dataclass
class Sample:
    """One (name, labels, value) triple of a snapshot."""

    name: str
    labels: dict
    value: Any


@dataclass
class MetricsSnapshot:
    """Immutable-by-convention copy of a registry at one moment."""

    samples: list = field(default_factory=list)

    def get(self, name: str, default: Any = 0, **labels) -> Any:
        want = _canon(labels)
        for s in self.samples:
            if s.name == name and _canon(s.labels) == want:
                return s.value
        return default

    def total(self, name: str) -> float:
        """Sum of a series over all label sets (scalar instruments only)."""
        return sum(s.value for s in self.samples if s.name == name and not isinstance(s.value, dict))

    def by(self, name: str, key: str) -> dict:
        """Sum of a series grouped by one label key."""
        out: dict = {}
        for s in self.samples:
            if s.name == name and key in s.labels and not isinstance(s.value, dict):
                k = s.labels[key]
                out[k] = out.get(k, 0) + s.value
        return out

    def series(self) -> list:
        """Sorted distinct series names."""
        return sorted({s.name for s in self.samples})

    def render(self, prefix: str = "") -> str:
        """Aligned ``name{labels}  value`` lines, deterministically sorted."""
        rows = []
        for s in sorted(self.samples, key=lambda s: (s.name, _canon(s.labels))):
            if prefix and not s.name.startswith(prefix):
                continue
            label_txt = ""
            if s.labels:
                label_txt = "{" + ",".join(f"{k}={v}" for k, v in sorted(s.labels.items())) + "}"
            value = s.value
            if isinstance(value, float) and value == int(value):
                value = int(value)
            elif isinstance(value, dict):
                # histogram summary: compact count/mean + SLO quantile form
                parts = []
                for k in ("count", "mean", "p50", "p95", "p99"):
                    v = value.get(k)
                    if v is None:
                        continue
                    parts.append(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}")
                value = " ".join(parts)
            rows.append((s.name + label_txt, value))
        if not rows:
            return "(no metrics)"
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


class MetricsRegistry:
    """Get-or-create registry of labeled instruments.

    ``counter(name, **labels)`` returns the same :class:`Counter` every call
    with the same name and labels; components register at construction time
    and increment a held reference afterwards.
    """

    def __init__(self) -> None:
        #: name -> {canonical labels -> instrument}
        self._series: dict[str, dict[tuple, Any]] = {}

    def _get(self, cls, name: str, labels: dict, **kw):
        series = self._series.setdefault(name, {})
        key = _canon(labels)
        inst = series.get(key)
        if inst is None:
            inst = series[key] = cls(name, dict(labels), **kw)
        elif not isinstance(inst, cls):
            raise ObsError(
                f"metric {name!r}{labels or ''} already registered as "
                f"{type(inst).__name__}, not {cls.__name__}"
            )
        return inst

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None, **labels) -> Gauge:
        gauge = self._get(Gauge, name, labels)
        if fn is not None:
            gauge.bind(fn)
        return gauge

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    # -- reading --------------------------------------------------------------

    def value(self, name: str, default: Any = 0, **labels) -> Any:
        """Current value of one instrument (``default`` if never registered)."""
        series = self._series.get(name)
        if not series:
            return default
        inst = series.get(_canon(labels))
        return inst.value if inst is not None else default

    def total(self, name: str) -> float:
        """Sum of a series over all label sets (counters/gauges)."""
        series = self._series.get(name)
        if not series:
            return 0
        return sum(i.value for i in series.values() if not isinstance(i, Histogram))

    def by_label(self, name: str, key: str) -> dict:
        """Sum of a series grouped by one label key."""
        out: dict = {}
        for inst in self._series.get(name, {}).values():
            if key in inst.labels and not isinstance(inst, Histogram):
                k = inst.labels[key]
                out[k] = out.get(k, 0) + inst.value
        return out

    def instruments(self) -> Iterable:
        for series in self._series.values():
            yield from series.values()

    def snapshot(self) -> MetricsSnapshot:
        """Plain-data copy of every instrument's current value."""
        samples = [
            Sample(name=i.name, labels=dict(i.labels), value=i.value) for i in self.instruments()
        ]
        samples.sort(key=lambda s: (s.name, _canon(s.labels)))
        return MetricsSnapshot(samples=samples)
