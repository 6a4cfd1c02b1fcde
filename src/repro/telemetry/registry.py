"""Metrics registry: counters, gauges, and histograms with labels.

The registry is the pull side of the telemetry subsystem: components
increment/observe during a run, exporters read a consistent snapshot at
the end (or periodically). Design points:

* **Labeled series** — every metric fans out into one series per label
  set (``counter.inc(1, node="gpu00")``), mirroring the Prometheus data
  model so the text exposition falls out naturally.
* **Bounded memory** — histograms keep per-series bucket counts plus
  a :class:`~repro.obs.sketch.QuantileSketch` for quantiles. Both are
  deterministic and use no randomness, so telemetry cannot perturb a
  seeded simulation.
* **Thread-safe** — one lock per registry guards both get-or-create and
  every series update; the simulation is mostly single-threaded but
  vectorized rollouts and future async serving must be safe.
* **Process-global default plus injectable instances** — library code
  takes a registry (via :class:`~repro.telemetry.facade.Telemetry`);
  scripts that do not care use :func:`default_registry`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.obs.sketch import DEFAULT_RELATIVE_ACCURACY, QuantileSketch

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "SketchMetric",
    "MetricsRegistry",
    "default_registry",
    "set_default_registry",
    "DEFAULT_BUCKETS",
]

# Prometheus' classic latency ladder; callers override per metric.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    30.0, 60.0, 300.0,
)

LabelKey = tuple  # tuple[tuple[str, str], ...], sorted by label name


def _label_key(labels: dict) -> LabelKey:
    if not labels:  # hot path: most engine metrics are label-free
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Shared plumbing: name, help text, per-label-set series dict."""

    kind = "untyped"

    def __init__(self, name: str, help: str, lock: threading.RLock):
        if not name or not name.replace("_", "a").isalnum():
            raise ConfigurationError(
                f"metric name must be snake_case alphanumeric; got {name!r}"
            )
        self.name = name
        self.help = help
        self._lock = lock
        self._series: dict[LabelKey, object] = {}

    def series(self) -> dict[LabelKey, object]:
        """Snapshot of label-set -> value (stable sorted order)."""
        with self._lock:
            return dict(sorted(self._series.items()))

    def labels_seen(self) -> list[dict]:
        with self._lock:
            return [dict(k) for k in sorted(self._series)]


class Counter(_Metric):
    """Monotonically increasing float per label set."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ConfigurationError("counters can only increase")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)


class Gauge(_Metric):
    """Last-write-wins float per label set."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def add(self, amount: float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)


@dataclass
class _HistogramSeries:
    """Mutable per-label-set accumulator."""

    bucket_counts: list  # one slot per bound (cumulated at export)
    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf
    sketch: QuantileSketch = field(default_factory=QuantileSketch)


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable view of one histogram series."""

    buckets: tuple  # ((le, cumulative_count), ...) + ("+Inf", count)
    count: int
    total: float
    minimum: float
    maximum: float
    sketch: QuantileSketch | None = None

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Quantile estimate for the full stream, read off the series'
        :class:`~repro.obs.sketch.QuantileSketch` (bounded relative
        error, rank ``q * (count - 1)``; ``q=0`` / ``q=1`` return the
        exactly-tracked extremes). 0 for an empty series."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1]; got {q}")
        if self.sketch is None:
            return 0.0
        return self.sketch.quantile(q)


class Histogram(_Metric):
    """Bucketed distribution with a quantile sketch per label set."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        lock: threading.RLock,
        buckets: tuple = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, lock)
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ConfigurationError(
                "histogram buckets must be sorted, unique, and non-empty"
            )
        self.buckets = tuple(float(b) for b in buckets)

    def observe(self, value: float, count: int = 1, **labels) -> None:
        """Record ``value`` (``count`` times, exactly as ``count``
        sequential single observes). Bulk counts are the batched-mirror
        path: hot loops keep a plain ``{value: n}`` dict and flush it
        periodically."""
        if count < 1:
            raise ConfigurationError("observe count must be positive")
        key = _label_key(labels)
        with self._lock:
            s = self._series.get(key)
            if s is None:
                s = _HistogramSeries(bucket_counts=[0] * len(self.buckets))
                self._series[key] = s
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    s.bucket_counts[i] += count
                    break
            s.count += count
            s.total += value * count
            s.minimum = min(s.minimum, value)
            s.maximum = max(s.maximum, value)
            if math.isfinite(value):
                s.sketch.add(value, count)

    def snapshot(self, **labels) -> HistogramSnapshot:
        with self._lock:
            s = self._series.get(_label_key(labels))
            if s is None:
                return HistogramSnapshot(
                    buckets=tuple((b, 0) for b in self.buckets) + (("+Inf", 0),),
                    count=0,
                    total=0.0,
                    minimum=0.0,
                    maximum=0.0,
                    sketch=None,
                )
            cumulative, acc = [], 0
            for bound, n in zip(self.buckets, s.bucket_counts):
                acc += n
                cumulative.append((bound, acc))
            cumulative.append(("+Inf", s.count))
            return HistogramSnapshot(
                buckets=tuple(cumulative),
                count=s.count,
                total=s.total,
                minimum=s.minimum if s.count else 0.0,
                maximum=s.maximum if s.count else 0.0,
                sketch=s.sketch.copy(),
            )


class SketchMetric(_Metric):
    """A pure-sketch distribution metric (no fixed buckets).

    The streaming replacement for :class:`Histogram` where the bucket
    ladder cannot be known up front and percentiles must stay trustworthy
    at fleet scale: per-label-set :class:`~repro.obs.sketch.QuantileSketch`
    accumulators with a relative-error bound, mergeable across shards.
    Exported as a Prometheus histogram whose cumulative ``le`` bounds are
    the sketch's log buckets.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        lock: threading.RLock,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
    ):
        super().__init__(name, help, lock)
        self.relative_accuracy = float(relative_accuracy)

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            s = self._series.get(key)
            if s is None:
                s = QuantileSketch(relative_accuracy=self.relative_accuracy)
                self._series[key] = s
            s.add(value)

    def replace(self, sketch: QuantileSketch, **labels) -> None:
        """Bulk-sync one label set to a copy of an externally-maintained
        sketch — the constant-cost alternative to per-value ``observe``
        for hot paths that already keep their own sketch (e.g. the
        fleet engine's always-on wait sketch, synced at checkpoints)."""
        with self._lock:
            self._series[_label_key(labels)] = sketch.copy()

    def snapshot(self, **labels) -> QuantileSketch:
        """An isolated copy of one label set's sketch (empty if unseen)."""
        with self._lock:
            s = self._series.get(_label_key(labels))
            if s is None:
                return QuantileSketch(relative_accuracy=self.relative_accuracy)
            return s.copy()

    def quantile(self, q: float, **labels) -> float:
        return self.snapshot(**labels).quantile(q)

    def merged(self) -> QuantileSketch:
        """All label sets folded into one fleet-wide sketch."""
        merged = QuantileSketch(relative_accuracy=self.relative_accuracy)
        with self._lock:
            for key in sorted(self._series):
                merged.merge(self._series[key])
        return merged


class MetricsRegistry:
    """Get-or-create home for every metric of one telemetry instance."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help, self._lock, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise ConfigurationError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def sketch(
        self,
        name: str,
        help: str = "",
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
    ) -> SketchMetric:
        return self._get_or_create(
            SketchMetric, name, help, relative_accuracy=relative_accuracy
        )

    def collect(self) -> list[_Metric]:
        """All metrics in registration order (stable for exporters)."""
        with self._lock:
            return list(self._metrics.values())

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)


_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-global registry (scripts and REPL convenience)."""
    return _DEFAULT


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry; returns the previous one."""
    global _DEFAULT
    previous, _DEFAULT = _DEFAULT, registry
    return previous
