"""Deterministic, mergeable quantile sketch (DDSketch-style).

Every quantile in the repo is read off this sketch: each
:class:`~repro.telemetry.registry.Histogram` series keeps one next to
its bucket counts, and :class:`~repro.telemetry.registry.SketchMetric`
is one per label set. It is a log-bucketed sketch with a
*relative-error guarantee* that is

* **deterministic** — pure bucket arithmetic, no RNG, no wall clock
  (statcheck DET001/DET002 clean by construction);
* **mergeable** — two sketches with the same ``relative_accuracy``
  merge by adding bucket counts, so per-node or per-shard sketches roll
  up into fleet-wide percentiles losslessly;
* **constant-memory** — at most ``max_bins`` buckets per sign; when the
  budget is exceeded the lowest-magnitude buckets collapse upward, so
  the *upper* quantiles (the SLO-relevant tail) keep their guarantee.

Error bound
-----------
For relative accuracy ``a`` the bucket base is ``gamma = (1+a)/(1-a)``
and a value ``v > 0`` lands in bucket ``i = ceil(log_gamma(v))``, i.e.
``gamma**(i-1) < v <= gamma**i``. Quantiles report the bucket's
geometric pseudo-midpoint ``2*gamma**i / (gamma+1)``, which satisfies
``|estimate - v| / v <= a`` for every ``v`` in the bucket. Negative
values mirror into a second bucket store; values with
``|v| <= min_value`` share an exact zero bucket (absolute error at most
``min_value``). Reported quantiles are additionally clamped to the
exactly-tracked ``[minimum, maximum]``, and ``q=0`` / ``q=1`` return
those exact extremes.

The rank convention: the estimate covers the order statistic at index
``floor(q * (count - 1))`` of the sorted stream, at every stream size.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError

__all__ = ["QuantileSketch", "DEFAULT_RELATIVE_ACCURACY"]

#: 1% relative error — 2048 bins cover [1e-6 s, 1e12 s] per sign.
DEFAULT_RELATIVE_ACCURACY = 0.01


class QuantileSketch:
    """A mergeable log-bucketed quantile sketch over a float stream."""

    __slots__ = (
        "relative_accuracy",
        "min_value",
        "max_bins",
        "_gamma",
        "_log_gamma",
        "_bins",
        "_neg_bins",
        "zero_count",
        "count",
        "total",
        "minimum",
        "maximum",
    )

    def __init__(
        self,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
        min_value: float = 1e-6,
        max_bins: int = 2048,
    ):
        if not 0.0 < relative_accuracy < 1.0:
            raise ConfigurationError(
                f"relative_accuracy must be in (0, 1); got {relative_accuracy}"
            )
        if min_value <= 0.0:
            raise ConfigurationError("min_value must be positive")
        if max_bins < 2:
            raise ConfigurationError("max_bins must be at least 2")
        self.relative_accuracy = float(relative_accuracy)
        self.min_value = float(min_value)
        self.max_bins = int(max_bins)
        self._gamma = (1.0 + self.relative_accuracy) / (1.0 - self.relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        self._bins: dict[int, int] = {}
        self._neg_bins: dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _index(self, magnitude: float) -> int:
        return math.ceil(math.log(magnitude) / self._log_gamma)

    def add(self, value: float, count: int = 1) -> None:
        """Record ``value`` (``count`` times)."""
        if count < 1:
            raise ConfigurationError("count must be a positive integer")
        value = float(value)
        if math.isnan(value) or math.isinf(value):
            raise ConfigurationError(f"cannot sketch non-finite value {value!r}")
        self.count += count
        self.total += value * count
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        magnitude = abs(value)
        if magnitude <= self.min_value:
            self.zero_count += count
            return
        index = self._index(magnitude)
        bins = self._bins if value > 0.0 else self._neg_bins
        bins[index] = bins.get(index, 0) + count
        if len(bins) > self.max_bins:
            self._collapse(bins)

    def _collapse(self, bins: dict[int, int]) -> None:
        """Fold lowest-magnitude buckets upward until within budget.

        Collapsing toward larger magnitudes preserves the guarantee for
        the tail quantiles; the collapsed head degrades gracefully to
        "at most the collapsed bucket's bound".
        """
        keys = sorted(bins)
        while len(keys) > self.max_bins:
            low = keys.pop(0)
            bins[keys[0]] = bins.get(keys[0], 0) + bins.pop(low)

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other``'s stream into this sketch (lossless)."""
        if other._gamma != self._gamma or other.min_value != self.min_value:
            raise ConfigurationError(
                "can only merge sketches with identical accuracy parameters"
            )
        self.count += other.count
        self.total += other.total
        self.zero_count += other.zero_count
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum
        for source, target in ((other._bins, self._bins), (other._neg_bins, self._neg_bins)):
            for index in sorted(source):
                target[index] = target.get(index, 0) + source[index]
            if len(target) > self.max_bins:
                self._collapse(target)

    def copy(self) -> "QuantileSketch":
        clone = QuantileSketch(self.relative_accuracy, self.min_value, self.max_bins)
        clone.merge(self)
        return clone

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def _clamp(self, estimate: float) -> float:
        return min(max(estimate, self.minimum), self.maximum)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile estimate (0 when the sketch is empty)."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1]; got {q}")
        if not self.count:
            return 0.0
        if q <= 0.0:
            return self.minimum
        if q >= 1.0:
            return self.maximum
        rank = q * (self.count - 1)
        seen = 0
        # negatives first, most-negative (largest magnitude) to smallest
        for index in sorted(self._neg_bins, reverse=True):
            seen += self._neg_bins[index]
            if rank < seen:
                return self._clamp(-2.0 * self._gamma**index / (self._gamma + 1.0))
        seen += self.zero_count
        if rank < seen:
            return self._clamp(0.0)
        for index in sorted(self._bins):
            seen += self._bins[index]
            if rank < seen:
                return self._clamp(2.0 * self._gamma**index / (self._gamma + 1.0))
        return self.maximum

    def quantiles(self, qs) -> list[float]:
        """Several quantile estimates from **one** pass over the bins.

        Equivalent to ``[self.quantile(q) for q in qs]`` but sorts the
        bucket keys once instead of once per quantile — the hot path for
        periodic rollup frames that want p50/p95/p99 together.
        """
        for q in qs:
            if not 0.0 <= q <= 1.0:
                raise ConfigurationError(f"quantile must be in [0, 1]; got {q}")
        if not self.count:
            return [0.0 for _ in qs]
        out: dict[int, float] = {}
        remaining = []  # (rank, position), ascending rank
        for pos, q in enumerate(qs):
            if q <= 0.0:
                out[pos] = self.minimum
            elif q >= 1.0:
                out[pos] = self.maximum
            else:
                remaining.append((q * (self.count - 1), pos))
        remaining.sort(reverse=True)  # pop ascending ranks from the end
        seen = 0

        def _drain(estimate: float) -> None:
            while remaining and remaining[-1][0] < seen:
                out[remaining.pop()[1]] = self._clamp(estimate)

        for index in sorted(self._neg_bins, reverse=True):
            seen += self._neg_bins[index]
            _drain(-2.0 * self._gamma**index / (self._gamma + 1.0))
        seen += self.zero_count
        _drain(0.0)
        for index in sorted(self._bins):
            if not remaining:
                break
            seen += self._bins[index]
            _drain(2.0 * self._gamma**index / (self._gamma + 1.0))
        while remaining:
            out[remaining.pop()[1]] = self.maximum
        return [out[pos] for pos in range(len(qs))]

    def to_buckets(self) -> tuple:
        """Cumulative ``(upper_bound, count)`` pairs, Prometheus-style.

        Bounds ascend strictly; the final pair is ``("+Inf", count)``.
        """
        out: list[tuple] = []
        acc = 0
        for index in sorted(self._neg_bins, reverse=True):
            acc += self._neg_bins[index]
            out.append((-(self._gamma ** (index - 1)), acc))
        if self.zero_count:
            acc += self.zero_count
            out.append((self.min_value, acc))
        for index in sorted(self._bins):
            acc += self._bins[index]
            out.append((self._gamma**index, acc))
        out.append(("+Inf", self.count))
        return tuple(out)

    # ------------------------------------------------------------------
    # serialization (byte-stable: sorted keys throughout)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "relative_accuracy": self.relative_accuracy,
            "min_value": self.min_value,
            "max_bins": self.max_bins,
            "count": self.count,
            "total": self.total,
            "zero_count": self.zero_count,
            "minimum": self.minimum if self.count else 0.0,
            "maximum": self.maximum if self.count else 0.0,
            "bins": {str(i): self._bins[i] for i in sorted(self._bins)},
            "neg_bins": {str(i): self._neg_bins[i] for i in sorted(self._neg_bins)},
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "QuantileSketch":
        sketch = cls(
            relative_accuracy=float(doc["relative_accuracy"]),
            min_value=float(doc["min_value"]),
            max_bins=int(doc["max_bins"]),
        )
        sketch.count = int(doc["count"])
        sketch.total = float(doc["total"])
        sketch.zero_count = int(doc["zero_count"])
        if sketch.count:
            sketch.minimum = float(doc["minimum"])
            sketch.maximum = float(doc["maximum"])
        sketch._bins = {int(i): int(n) for i, n in doc["bins"].items()}
        sketch._neg_bins = {int(i): int(n) for i, n in doc["neg_bins"].items()}
        return sketch

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"QuantileSketch(count={self.count}, a={self.relative_accuracy}, "
            f"bins={len(self._bins)}+{len(self._neg_bins)})"
        )
