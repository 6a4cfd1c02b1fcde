"""The telemetry facade components are instrumented against.

Every instrumented class takes a ``telemetry`` object and calls a tiny
surface — :meth:`Telemetry.span`, :meth:`Telemetry.event`,
:meth:`Telemetry.count`, :meth:`Telemetry.gauge`,
:meth:`Telemetry.observe`. Two implementations exist:

* :class:`Telemetry` — records into a :class:`MetricsRegistry` and a
  :class:`Tracer`;
* :class:`NullTelemetry` — the disabled-by-default fast path. Its
  ``enabled`` flag is ``False`` and every method is a no-op, so hot
  paths guard with ``if telemetry.enabled:`` and pay one attribute read
  when telemetry is off. The module-level :data:`NULL_TELEMETRY`
  singleton is the default everywhere, which keeps existing behaviour
  bitwise-identical.

Known metric names carry canonical help strings (:data:`METRIC_HELP`)
so ad-hoc instrumentation still produces a self-describing Prometheus
exposition.
"""

from __future__ import annotations

from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    default_registry,
)
from repro.telemetry.tracer import JsonlSink, Tracer

__all__ = ["METRIC_HELP", "Telemetry", "NullTelemetry", "NULL_TELEMETRY"]

#: canonical help text for the metrics the built-in hooks emit
METRIC_HELP = {
    "windows_dispatched_total": "scheduling windows dispatched to a GPU",
    "policy_fallbacks_total": "windows where the policy raised and FCFS took over",
    "dispatch_retries_total": "device-level retries spent on transient/reconfig faults",
    "degraded_groups_total": "groups that exhausted retries and ran solo",
    "jobs_completed_total": "jobs that reached the COMPLETED state",
    "jobs_failed_total": "jobs that spent their retry budget (terminal FAILED)",
    "job_requeues_total": "crashed jobs pushed back onto the pending queue",
    "queue_depth": "pending jobs at the latest metrics sync",
    "device_groups_total": "co-scheduled groups executed on a device",
    "device_busy_seconds_total": "simulated seconds a device spent executing",
    "device_reconfigs_total": "successful partition (re)configurations",
    "faults_injected_total": "faults injected, by kind",
    "train_episode_return": "per-episode RL return",
    "train_episode_throughput": "per-episode schedule throughput gain",
    "train_loss": "TD training loss per gradient step",
    "train_epsilon": "exploration epsilon after the latest episode",
    "corun_cache_hit_rate": "CoRunCache hit rate over the training run",
    "decision_cache_hit_rate": "step-decision memo hit rate over the training run",
    "optimizer_decision_seconds": "online decision latency per window (injected clock)",
    "train_q_max": "max online-network Q at each episode's final observation",
    "alerts_raised_total": "alerts raised by the insight detectors, by kind",
    "fleet_rejected_total": "arrivals shed by admission control",
    "fleet_queue_wait_seconds": "per-job fleet queue wait (sketch percentiles)",
    "placement_decision_seconds": "placement-level routing latency per job",
    "energy_joules_total": "cumulative dispatched-group energy (power model)",
    "dispatch_batch_windows": "windows served per batched dispatch round",
}


class Telemetry:
    """Live telemetry: a registry plus a tracer behind one handle."""

    enabled = True

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        # per-name metric handles, memoized so steady-state facade calls
        # skip the registry's locked get-or-create
        self._counters: dict = {}
        self._gauges: dict = {}
        self._histograms: dict = {}
        self._sketches: dict = {}

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def with_default_registry(cls, tracer: Tracer | None = None) -> "Telemetry":
        """Record metrics into the process-global registry."""
        return cls(registry=default_registry(), tracer=tracer)

    @classmethod
    def with_jsonl(cls, path, maxlen: int = 65536) -> "Telemetry":
        """Stream every trace record to ``path`` as JSON lines."""
        return cls(tracer=Tracer(maxlen=maxlen, sink=JsonlSink(path)))

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        track: str,
        start: float,
        end: float,
        category: str = "sim",
        **args,
    ) -> None:
        self.tracer.add_span(name, track, start, end, category=category, **args)

    def event(
        self, name: str, track: str, ts: float, category: str = "sim", **args
    ) -> None:
        self.tracer.add_event(name, track, ts, category=category, **args)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1.0, **labels) -> None:
        metric = self._counters.get(name)
        if metric is None:
            metric = self.registry.counter(name, METRIC_HELP.get(name, ""))
            self._counters[name] = metric
        metric.inc(amount, **labels)

    def gauge(self, name: str, value: float, **labels) -> None:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self.registry.gauge(name, METRIC_HELP.get(name, ""))
            self._gauges[name] = metric
        metric.set(value, **labels)

    def observe(
        self,
        name: str,
        value: float,
        buckets: tuple = DEFAULT_BUCKETS,
        count: int = 1,
        **labels,
    ) -> None:
        metric = self._histograms.get((name, buckets))
        if metric is None:
            metric = self.registry.histogram(
                name, METRIC_HELP.get(name, ""), buckets=buckets
            )
            self._histograms[(name, buckets)] = metric
        metric.observe(value, count, **labels)

    def sketch(self, name: str, value: float, **labels) -> None:
        """Observe into a :class:`SketchMetric` — the fleet-scale
        distribution path (mergeable, relative-error-bounded
        percentiles; no bucket ladder to choose). Hot path: the metric
        handle is memoized per name, so steady-state cost is one
        sketch ``observe``."""
        metric = self._sketches.get(name)
        if metric is None:
            metric = self.registry.sketch(name, METRIC_HELP.get(name, ""))
            self._sketches[name] = metric
        metric.observe(value, **labels)

    def sync_sketch(self, name: str, sketch, **labels) -> None:
        """Replace ``name``'s series with a copy of an externally-kept
        :class:`~repro.obs.sketch.QuantileSketch` — one O(bins) sync
        instead of one ``observe`` per hot-path value."""
        metric = self._sketches.get(name)
        if metric is None:
            metric = self.registry.sketch(name, METRIC_HELP.get(name, ""))
            self._sketches[name] = metric
        metric.replace(sketch, **labels)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush and close any streaming sink."""
        if self.tracer.sink is not None:
            self.tracer.sink.close()


class NullTelemetry(Telemetry):
    """Disabled telemetry: every call is a no-op.

    ``enabled`` is ``False`` so instrumented hot paths skip argument
    construction entirely; the methods still exist (and do nothing) for
    callers that do not bother guarding.
    """

    enabled = False

    def __init__(self):
        self.registry = None
        self.tracer = None

    def span(self, *a, **k) -> None:  # noqa: D102
        pass

    def event(self, *a, **k) -> None:  # noqa: D102
        pass

    def count(self, *a, **k) -> None:  # noqa: D102
        pass

    def gauge(self, *a, **k) -> None:  # noqa: D102
        pass

    def observe(self, *a, **k) -> None:  # noqa: D102
        pass

    def sketch(self, *a, **k) -> None:  # noqa: D102
        pass

    def sync_sketch(self, *a, **k) -> None:  # noqa: D102
        pass

    def close(self) -> None:  # noqa: D102
        pass


#: the shared no-op instance every component defaults to
NULL_TELEMETRY = NullTelemetry()
