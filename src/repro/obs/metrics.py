"""Counters, gauges and histograms attached to the active tracer.

The registry is deliberately small — three metric kinds cover what the
execution layers need to report:

* :class:`Counter` — monotonically increasing totals (store hits,
  fresh simulations, shed requests, SLO violations);
* :class:`Gauge` — a sampled value over time, keeping a ``(ts, value)``
  timeline in the clock domain it was registered with (per-device queue
  depths over simulated time).  Gauge timelines export as Chrome-trace
  counter events, so Perfetto draws them as graphs;
* :class:`Histogram` — a distribution summary (batch sizes, request
  latencies); raw observations are retained up to a cap, after which
  only count/sum/min/max stay exact and percentiles reflect the
  retained prefix.

Names are dot-scoped by layer (``gpu.*``, ``runs.*``, ``serve.*``).
Re-registering a name returns the existing metric; registering it as a
different kind raises, since silent kind clashes would corrupt exports.
"""

from __future__ import annotations


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def to_dict(self) -> dict:
        return {"value": self.value}


class Gauge:
    """A sampled value with a timeline in one clock domain."""

    __slots__ = ("name", "domain", "value", "timeline")

    def __init__(self, name: str, domain: str) -> None:
        self.name = name
        self.domain = domain
        self.value = 0.0
        self.timeline: list[tuple[float, float]] = []

    def set(self, value: float, ts: float) -> None:
        self.value = value
        self.timeline.append((ts, value))

    def to_dict(self) -> dict:
        return {
            "domain": self.domain,
            "last": self.value,
            "samples": len(self.timeline),
            "max": max((v for _, v in self.timeline), default=0.0),
        }


class Histogram:
    """A distribution summary with capped raw retention."""

    __slots__ = ("name", "count", "total", "min", "max", "_values", "_cap")

    def __init__(self, name: str, cap: int = 100_000) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._values: list[float] = []
        self._cap = cap

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._values) < self._cap:
            self._values.append(value)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the retained observations."""
        if not self._values:
            return 0.0
        ordered = sorted(self._values)
        rank = max(1, -(-len(ordered) * q // 100))
        return ordered[int(rank) - 1]

    def to_dict(self) -> dict:
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.total / self.count,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "retained": len(self._values),
        }


class MetricsRegistry:
    """Create-or-return registry of named metrics."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind: type, factory):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif type(metric) is not kind:
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str, domain: str = "sim_ms") -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name, domain))

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram, lambda: Histogram(name))

    def gauges(self) -> list[Gauge]:
        """Every registered gauge (export iterates their timelines)."""
        return [m for m in self._metrics.values() if type(m) is Gauge]

    def to_dict(self) -> dict:
        """Stable JSON form grouped by metric kind, names sorted."""
        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if type(metric) is Counter:
                out["counters"][name] = metric.to_dict()
            elif type(metric) is Gauge:
                out["gauges"][name] = metric.to_dict()
            else:
                out["histograms"][name] = metric.to_dict()
        return out


class _NullMetric:
    """Absorbs every update without recording anything."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float, ts: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_METRIC = _NullMetric()


class NullMetricsRegistry:
    """The registry of the disabled tracer: hands out one no-op metric."""

    __slots__ = ()

    def counter(self, name: str) -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str, domain: str = "sim_ms") -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str) -> _NullMetric:
        return _NULL_METRIC

    def gauges(self) -> list:
        return []

    def to_dict(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}


#: Shared no-op registry used by :data:`repro.obs.tracer.NULL_TRACER`.
NULL_METRICS = NullMetricsRegistry()
