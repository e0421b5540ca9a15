"""Metrics: named counters, gauges and histograms with labeled series.

A :class:`MetricsRegistry` is a flat namespace of instruments, each
identified by a metric name plus an optional set of ``key=value`` labels
(one *series* per distinct label set, Prometheus-style):

>>> reg = MetricsRegistry()
>>> reg.counter("dlb.redistributions").inc()
>>> reg.histogram("dlb.gain").observe(0.4)
>>> reg.counter("comm.remote_bytes", kind="migration").inc(1024)
>>> reg.snapshot()["counters"]["dlb.redistributions"]
1.0

Instruments hold plain floats derived from the *simulation* (never from
host wall-clock unless the caller explicitly observes one), so a snapshot
of a deterministic run is itself deterministic.  ``snapshot()`` returns a
JSON-safe nested dict that :class:`~repro.metrics.timing.RunResult`
carries alongside the event log for traced runs.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_default_metrics",
    "set_default_metrics",
]

#: (metric name, sorted label items) -> one series
_SeriesKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def series_name(name: str, labels) -> str:
    """Render ``name{k=v,...}`` (bare ``name`` for the unlabeled series).

    ``labels`` may be a dict or an iterable of ``(key, value)`` pairs;
    either way the labels are emitted sorted by key, so the same label set
    always names the same series.
    """
    items = sorted(labels.items()) if isinstance(labels, dict) else sorted(labels)
    if not items:
        return name
    inner = ",".join(f"{k}={v}" for k, v in items)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class Gauge:
    """Last-written value (settable both ways)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Streaming distribution summary: count / total / min / max / mean.

    Deliberately bucket-free: the runs we trace produce at most thousands
    of observations and the consumers (tables, snapshots) want moments,
    not quantile sketches.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "total": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Get-or-create registry of labeled instrument series."""

    def __init__(self) -> None:
        self._series: Dict[_SeriesKey, Any] = {}
        self._kinds: Dict[str, type] = {}

    def _get(self, kind: type, name: str, labels: Dict[str, Any]):
        if not name:
            raise ValueError("metric name must be non-empty")
        seen = self._kinds.get(name)
        if seen is not None and seen is not kind:
            raise ValueError(
                f"metric {name!r} already registered as {seen.__name__}, "
                f"cannot reuse it as {kind.__name__}"
            )
        self._kinds[name] = kind
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        series = self._series.get(key)
        if series is None:
            series = kind()
            self._series[key] = series
        return series

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """JSON-safe view: ``{"counters": {...}, "gauges": {...},
        "histograms": {series: {count,total,min,max,mean}}}`` with series
        keys rendered as ``name{label=value,...}``, sorted."""
        out: Dict[str, Dict[str, Any]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for (name, labels), series in sorted(self._series.items()):
            sname = series_name(name, labels)
            if isinstance(series, Counter):
                out["counters"][sname] = series.value
            elif isinstance(series, Gauge):
                out["gauges"][sname] = series.value
            else:
                out["histograms"][sname] = series.summary()
        return out

    def clear(self) -> None:
        self._series.clear()
        self._kinds.clear()


_default_metrics: Optional[MetricsRegistry] = None


def get_default_metrics() -> MetricsRegistry:
    """Process-wide registry the execution engine reports into."""
    global _default_metrics
    if _default_metrics is None:
        _default_metrics = MetricsRegistry()
    return _default_metrics


def set_default_metrics(registry: Optional[MetricsRegistry]) -> Optional[MetricsRegistry]:
    """Install ``registry`` as the default; returns the previous one.
    Pass ``None`` to reset to a fresh lazy default."""
    global _default_metrics
    previous = _default_metrics
    _default_metrics = registry
    return previous
