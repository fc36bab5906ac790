"""A deterministic, sim-time metrics registry (counters, gauges, histograms).

Replica internals — processor queue depth, acceptance-buffer occupancy,
rejection-threshold state, per-message-type handling cost, view-change
phases — are recorded here when observability is enabled.  Everything is
an *observer*: metrics never schedule events, never draw randomness and
never touch protocol state, so a run with metrics attached produces
bit-identical results to one without (the determinism contract guarded
by ``tests/test_observability.py`` and the CI overhead-guard job).

The registry is label-based in the Prometheus style: a metric is
identified by a name plus a sorted tuple of ``key=value`` labels, e.g.
``handling_cost{node=replica-0, type=Propose}``.
"""

from __future__ import annotations

import math
from typing import Iterator, Union

from repro.sim.monitor import percentile

LabelKey = tuple[str, tuple[tuple[str, str], ...]]


def _label_key(name: str, labels: dict[str, object]) -> LabelKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count of events."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: dict[str, str]):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount

    def snapshot(self) -> dict:
        return {"value": self.value}


class Gauge:
    """A value that can go up and down; remembers its extremes."""

    __slots__ = ("name", "labels", "value", "minimum", "maximum", "updates")

    kind = "gauge"

    def __init__(self, name: str, labels: dict[str, str]):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.updates = 0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self.value = value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        self.updates += 1

    def snapshot(self) -> dict:
        if not self.updates:
            return {"value": 0.0, "min": 0.0, "max": 0.0, "updates": 0}
        return {
            "value": self.value,
            "min": self.minimum,
            "max": self.maximum,
            "updates": self.updates,
        }


class Histogram:
    """A sample distribution with streaming moments and a bounded reservoir.

    The first ``reservoir_size`` observations are retained for percentile
    queries (simulation runs are short enough that this usually means
    *all* observations); count/sum/min/max are always exact.
    """

    __slots__ = ("name", "labels", "count", "total", "minimum", "maximum", "_samples", "reservoir_size")

    kind = "histogram"

    def __init__(self, name: str, labels: dict[str, str], reservoir_size: int = 100_000):
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._samples: list[float] = []
        self.reservoir_size = reservoir_size

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        if len(self._samples) < self.reservoir_size:
            self._samples.append(value)

    @property
    def mean(self) -> float:
        """Mean of all observed samples (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Linear-interpolation percentile over the retained samples."""
        return percentile(sorted(self._samples), q)

    def snapshot(self) -> dict:
        if not self.count:
            return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0, "p50": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.percentile(0.50),
            "p99": self.percentile(0.99),
        }


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Get-or-create access to labelled counters, gauges and histograms."""

    def __init__(self) -> None:
        self._metrics: dict[LabelKey, Metric] = {}

    def counter(self, name: str, **labels: object) -> Counter:
        """The counter ``name`` with ``labels``, created on first use."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge ``name`` with ``labels``, created on first use."""
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        """The histogram ``name`` with ``labels``, created on first use."""
        return self._get(Histogram, name, labels)

    def _get(self, cls, name: str, labels: dict[str, object]) -> Metric:
        key = _label_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, {k: str(v) for k, v in labels.items()})
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {cls.kind}"
            )
        return metric

    def __iter__(self) -> Iterator[Metric]:
        for _, metric in sorted(self._metrics.items()):
            yield metric

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> list[dict]:
        """All metrics as plain dicts, deterministically ordered."""
        return [
            {
                "name": metric.name,
                "kind": metric.kind,
                "labels": metric.labels,
                **metric.snapshot(),
            }
            for metric in self
        ]

    def render(self) -> str:
        """A deterministic plain-text dump (debugging, CLI reports)."""
        lines = []
        for metric in self:
            labels = ",".join(f"{k}={v}" for k, v in sorted(metric.labels.items()))
            body = " ".join(
                f"{key}={value:.6g}" if isinstance(value, float) else f"{key}={value}"
                for key, value in metric.snapshot().items()
            )
            lines.append(f"{metric.name}{{{labels}}} {body}")
        return "\n".join(lines)
