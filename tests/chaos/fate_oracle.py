"""The ``RngStream.uniform()``-based fate body that the bound-``random()``
``ChaosInjector.fate`` replaced, kept verbatim as its bit-equality oracle.

Every Bernoulli test here is a scalar ``uniform()`` through the stream's
Python wrapper; the production body draws the same doubles from the same
stream with ``Generator.random()``, so the verdicts, the counters and the
stream position afterwards must be *equal*.  A function of the injector, so
a test can also install it as the method.
"""

from typing import Optional

from repro.chaos.injector import _CLEAN, ChaosInjector, Fate


def fate_reference(self: ChaosInjector, src: int, dst: int, now: float,
                   tag: Optional[int] = None) -> Fate:
    spec = self.spec
    rng = self.rng
    tracer = self._tracer
    if spec.drop and rng.uniform() < spec.drop:
        self._c_drops.inc()
        if tracer.enabled:
            tracer.instant("chaos.drop", "chaos", src, now, src=src, dst=dst, tag=tag)
        return Fate(drop=True)
    dup_delay = None
    if spec.dup and rng.uniform() < spec.dup:
        self._c_dups.inc()
        dup_delay = float(rng.exponential(max(spec.delay_mean, 1e-9)))
        if tracer.enabled:
            tracer.instant(
                "chaos.dup", "chaos", src, now, src=src, dst=dst, tag=tag,
                dup_delay=dup_delay,
            )
    extra = 0.0
    if spec.delay_p and rng.uniform() < spec.delay_p:
        self._c_delays.inc()
        extra += float(rng.exponential(spec.delay_mean))
        if tracer.enabled:
            tracer.instant(
                "chaos.delay", "chaos", src, now, src=src, dst=dst, tag=tag, extra=extra
            )
    if spec.reorder_p and rng.uniform() < spec.reorder_p:
        self._c_reorders.inc()
        hold = float(rng.uniform(0.0, spec.reorder_window))
        extra += hold
        if tracer.enabled:
            tracer.instant(
                "chaos.reorder", "chaos", src, now, src=src, dst=dst, tag=tag, hold=hold
            )
    if dup_delay is None and extra == 0.0:
        return _CLEAN
    return Fate(extra_delay=extra, dup_delay=dup_delay)
