"""Tests for the telemetry subsystem (registry, tracer, exporters,
instrumentation hooks, and the determinism contract).

Three layers:

* unit tests for :mod:`repro.telemetry` proper, including a golden-file
  check pinning the Chrome ``trace_event`` output format;
* an integration test asserting a faulty cluster run emits fault /
  retry / fallback events that reconcile with the accounting counters;
* a determinism test pinning that telemetry-off runs are
  bitwise-identical to runs with telemetry attached (telemetry is
  strictly an observer).
"""

import json
import os

import pytest

from repro.cluster import (
    BatchSystem,
    ClusterState,
    FcfsPolicy,
    FleetEngine,
    PolicySelector,
)
from repro.errors import ConfigurationError, SchedulingError
from repro.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.telemetry import (
    NULL_TELEMETRY,
    JsonlSink,
    MetricsRegistry,
    NullTelemetry,
    Telemetry,
    Tracer,
    chrome_trace,
    default_registry,
    device_timelines,
    prometheus_text,
    utilization_from_timelines,
    write_artifacts,
)
from repro.workloads.jobs import JobQueue

pytestmark = pytest.mark.telemetry

PROGRAMS = ["stream", "kmeans", "lavaMD", "bt_solver_A", "hotspot", "cfd"]
GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_trace.json")


def make_batch(faults=None, telemetry=NULL_TELEMETRY, n_gpus=2, **kwargs):
    selector = PolicySelector(
        co_scheduling=FcfsPolicy(),
        fcfs=FcfsPolicy(),
        crowding_threshold=10**9,
    )
    return BatchSystem(
        cluster=ClusterState.homogeneous(n_gpus),
        selector=selector,
        window_size=4,
        min_batch=2,
        faults=faults,
        retry=RetryPolicy(),
        telemetry=telemetry,
        **kwargs,
    )


def drain_programs(bs, repeat=3):
    for _ in range(repeat):
        for p in PROGRAMS:
            bs.sbatch(p)
    bs.drain()
    return bs


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        c = reg.counter("windows_total")
        c.inc(1, node="gpu00")
        c.inc(2, node="gpu00")
        c.inc(5, node="gpu01")
        assert c.value(node="gpu00") == 3
        assert c.value(node="gpu01") == 5
        assert c.value(node="gpu99") == 0

    def test_counter_rejects_negative(self):
        c = MetricsRegistry().counter("n")
        with pytest.raises(ConfigurationError):
            c.inc(-1)

    def test_gauge_last_write_wins(self):
        g = MetricsRegistry().gauge("depth")
        g.set(4)
        g.set(2)
        assert g.value() == 2
        g.add(3)
        assert g.value() == 5

    def test_histogram_buckets_and_stats(self):
        h = MetricsRegistry().histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.7, 5.0, 50.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap.count == 5
        assert snap.total == pytest.approx(56.25)
        assert snap.minimum == 0.05 and snap.maximum == 50.0
        # cumulative buckets: <=0.1 -> 1, <=1.0 -> 3, <=10.0 -> 4, +Inf -> 5
        assert snap.buckets == ((0.1, 1), (1.0, 3), (10.0, 4), ("+Inf", 5))
        assert snap.quantile(0.0) == 0.05
        assert snap.quantile(1.0) == 50.0

    def test_get_or_create_idempotent_and_type_checked(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(ConfigurationError):
            reg.gauge("x")

    def test_labels_are_order_insensitive(self):
        c = MetricsRegistry().counter("c")
        c.inc(1, a="1", b="2")
        c.inc(1, b="2", a="1")
        assert c.value(a="1", b="2") == 2

    def test_default_registry_is_shared(self):
        assert default_registry() is default_registry()


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_spans_and_events_filterable(self):
        t = Tracer()
        t.add_span("window", "gpu00", 0.0, 1.0, category="scheduler")
        t.add_span("window", "gpu01", 1.0, 2.0, category="scheduler")
        t.add_event("retry", "gpu00", 0.5, category="fault")
        assert len(t.spans(name="window")) == 2
        assert len(t.spans(track="gpu01")) == 1
        assert t.events(name="retry")[0].ts == 0.5
        assert t.tracks() == ["gpu00", "gpu01"]
        assert t.spans()[0].duration == 1.0

    def test_span_rejects_negative_duration(self):
        with pytest.raises(ConfigurationError):
            Tracer().add_span("bad", "t", 2.0, 1.0)

    def test_ring_buffer_drops_and_counts(self):
        t = Tracer(maxlen=4)
        for i in range(10):
            t.add_event("e", "t", float(i))
        assert len(t) == 4
        assert t.dropped == 6
        assert t.total_recorded == 10
        assert [e.ts for e in t.events()] == [6.0, 7.0, 8.0, 9.0]

    def test_jsonl_sink_streams_records(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        t = Tracer(sink=sink)
        t.add_span("window", "gpu00", 0.0, 1.0)
        t.add_event("retry", "gpu00", 0.5)
        sink.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["type"] for r in lines] == ["span", "event"]
        assert lines[0]["end"] == 1.0 and lines[1]["ts"] == 0.5


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
class TestExporters:
    def build_golden_tracer(self) -> Tracer:
        t = Tracer()
        t.add_span("window", "gpu00", 0.0, 12.5, category="scheduler",
                   policy="MIG+MPS w/ RL", window_size=4, gain=1.25)
        t.add_span("run_group", "gpu00", 0.0, 7.25, category="device",
                   partition="3g.20gb(66%,33%)+4g.20gb(100%)", concurrency=3,
                   jobs=["stream", "kmeans", "cfd"])
        t.add_event("fault:job_failure", "gpu01", 3.125, category="fault",
                    job="cfd")
        t.add_span("backoff", "gpu01", 3.125, 3.625, category="fault",
                   attempt=1)
        t.add_event("fallback", "batch", 4.0, category="scheduler",
                    policy="FCFS")
        return t

    def test_chrome_trace_matches_golden_file(self):
        doc = chrome_trace(self.build_golden_tracer())
        with open(GOLDEN) as fh:
            golden = json.load(fh)
        assert doc == golden

    def test_chrome_trace_structure(self):
        doc = chrome_trace(self.build_golden_tracer())
        events = doc["traceEvents"]
        phases = [e["ph"] for e in events]
        # one process_name + three thread_name metadata records
        assert phases.count("M") == 4
        assert phases.count("X") == 3 and phases.count("i") == 2
        names = {
            e["args"]["name"] for e in events if e["name"] == "thread_name"
        }
        assert names == {"batch", "gpu00", "gpu01"}
        # timestamps are microseconds
        window = next(e for e in events if e["name"] == "window")
        assert window["dur"] == pytest.approx(12.5e6)

    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.counter("windows_total", "windows dispatched").inc(3, node="gpu00")
        reg.gauge("queue_depth").set(7)
        reg.histogram("gain", buckets=(1.0, 2.0)).observe(1.5)
        text = prometheus_text(reg)
        assert "# HELP windows_total windows dispatched" in text
        assert "# TYPE windows_total counter" in text
        assert 'windows_total{node="gpu00"} 3' in text
        assert "queue_depth 7" in text
        assert 'gain_bucket{le="1"} 0' in text
        assert 'gain_bucket{le="2"} 1' in text
        assert 'gain_bucket{le="+Inf"} 1' in text
        assert "gain_sum 1.5" in text
        assert "gain_count 1" in text

    def test_device_timelines_and_utilization(self):
        t = Tracer()
        t.add_span("run_group", "gpu00", 0.0, 4.0, category="device")
        t.add_span("run_group", "gpu00", 6.0, 10.0, category="device")
        t.add_span("run_group", "gpu01", 0.0, 5.0, category="device")
        t.add_span("backoff", "gpu01", 5.0, 6.0, category="fault")  # not busy
        tls = device_timelines(t)
        assert sum(iv["duration"] for iv in tls["gpu00"]) == 8.0
        assert sum(iv["duration"] for iv in tls["gpu01"]) == 5.0
        assert utilization_from_timelines(tls, makespan=10.0) == pytest.approx(
            13.0 / 20.0
        )

    def test_write_artifacts(self, tmp_path):
        tel = Telemetry(tracer=self.build_golden_tracer())
        tel.count("windows_dispatched_total", 2, node="gpu00")
        paths = write_artifacts(tel, tmp_path / "out")
        for p in paths.values():
            assert os.path.exists(p)
        doc = json.loads(open(paths["trace"]).read())
        assert any(e.get("name") == "run_group" for e in doc["traceEvents"])
        timeline = json.loads(open(paths["timeline"]).read())
        assert "gpu00" in timeline["devices"]
        assert "windows_dispatched_total" in open(paths["metrics"]).read()


# ----------------------------------------------------------------------
# the null fast path
# ----------------------------------------------------------------------
class TestNullTelemetry:
    def test_disabled_and_inert(self):
        tel = NullTelemetry()
        assert tel.enabled is False
        tel.span("s", "t", 0.0, 1.0)
        tel.event("e", "t", 0.0)
        tel.count("c")
        tel.gauge("g", 1.0)
        tel.observe("h", 1.0)
        tel.close()
        assert tel.registry is None and tel.tracer is None

    def test_null_singleton_is_default(self):
        bs = make_batch()
        assert bs.telemetry is NULL_TELEMETRY


# ----------------------------------------------------------------------
# instrumentation integration
# ----------------------------------------------------------------------
class TestIntegration:
    def test_faulty_run_events_reconcile_with_accounting(self):
        tel = Telemetry()
        inj = FaultInjector(FaultConfig.uniform(0.1, seed=0))
        bs = drain_programs(make_batch(faults=inj, telemetry=tel))
        acct = bs.sacct()
        tracer = tel.tracer
        summary = inj.summary()

        assert len(tracer.events(name="retry")) == acct["dispatch_retries"]
        assert len(tracer.events(name="requeue")) == acct["job_retries"]
        assert (
            len(tracer.events(name="fault:job_failure"))
            == summary["job_failure"]
        )
        assert (
            len(tracer.events(name="fault:transient"))
            == summary["transient_device"]
        )
        assert (
            len(tracer.events(name="fault:straggler"))
            == summary["straggler"]
        )
        assert (
            len(tracer.events(name="fault:reconfig"))
            == summary["reconfig_failure"]
        )
        # the same counts flow into the metrics registry
        faults = tel.registry.counter("faults_injected_total")
        for kind, n in summary.items():
            assert faults.value(kind=kind) == n
        # one window span per dispatch record
        assert len(tracer.spans(name="window")) == len(bs.history)
        # at least one fault actually fired, or the test is vacuous
        assert sum(summary.values()) > 0

    def test_policy_fallback_emits_events(self):
        class RaisingPolicy:
            name = "raising"

            def schedule(self, window):
                raise SchedulingError("injected optimizer failure")

        tel = Telemetry()
        selector = PolicySelector(
            co_scheduling=RaisingPolicy(),
            fcfs=FcfsPolicy(),
            crowding_threshold=1,
        )
        bs = BatchSystem(
            cluster=ClusterState.homogeneous(2),
            selector=selector,
            window_size=4,
            min_batch=2,
            telemetry=tel,
        )
        drain_programs(bs, repeat=1)
        acct = bs.sacct()
        assert acct["fallback_windows"] > 0
        assert (
            len(tel.tracer.events(name="fallback")) == acct["fallback_windows"]
        )
        assert all(r.fell_back for r in bs.history)

    def test_busy_intervals_sum_to_utilization(self):
        tel = Telemetry()
        bs = drain_programs(make_batch(telemetry=tel))
        tls = device_timelines(tel.tracer)
        for node in bs.cluster.nodes:
            busy = sum(iv["duration"] for iv in tls.get(node.name, []))
            assert busy == pytest.approx(node.device.busy_time, abs=1e-9)
        util = utilization_from_timelines(
            tls, bs.cluster.makespan, len(bs.cluster.nodes)
        )
        assert util == pytest.approx(bs.cluster.utilization())

    def test_cluster_scheduler_records_window_spans(self):
        tel = Telemetry()
        selector = PolicySelector(
            co_scheduling=FcfsPolicy(),
            fcfs=FcfsPolicy(),
            crowding_threshold=10**9,
        )
        engine = FleetEngine(
            ClusterState.homogeneous(2),
            selector,
            window_size=4,
            telemetry=tel,
            keep_history=True,
        )
        engine.submit_queue(JobQueue.from_benchmarks(PROGRAMS * 2, name="q"))
        history = engine.run().history
        spans = tel.tracer.spans(name="window")
        assert len(spans) == len(history)
        for span, record in zip(spans, history):
            assert span.track == record.node_name
            assert span.start == record.start_time
            assert span.end == record.end_time
        counter = tel.registry.counter("windows_dispatched_total")
        assert sum(counter.series().values()) == len(history)

    def test_batch_history_mirrors_dispatches(self):
        bs = drain_programs(make_batch())
        assert len(bs.history) > 0
        assert all(r.end_time >= r.start_time for r in bs.history)
        assert sum(r.window_size for r in bs.history) == len(PROGRAMS) * 3


# ----------------------------------------------------------------------
# determinism: telemetry must be a pure observer
# ----------------------------------------------------------------------
class TestDeterminism:
    def run_once(self, telemetry):
        inj = FaultInjector(FaultConfig.uniform(0.15, seed=7))
        bs = drain_programs(make_batch(faults=inj, telemetry=telemetry))
        return bs

    def test_telemetry_off_is_bitwise_identical_to_on(self):
        off = self.run_once(NULL_TELEMETRY)
        on = self.run_once(Telemetry())
        assert off.sacct() == on.sacct()
        assert [r.state for r in off.squeue()] == [
            r.state for r in on.squeue()
        ]
        assert [r.end_time for r in off.squeue()] == [
            r.end_time for r in on.squeue()
        ]
        assert [r.end_time for r in off.history] == [
            r.end_time for r in on.history
        ]

    def test_default_construction_uses_null_path(self):
        default = self.run_once(NULL_TELEMETRY)
        inj = FaultInjector(FaultConfig.uniform(0.15, seed=7))
        selector = PolicySelector(
            co_scheduling=FcfsPolicy(),
            fcfs=FcfsPolicy(),
            crowding_threshold=10**9,
        )
        bare = BatchSystem(  # no telemetry kwarg at all
            cluster=ClusterState.homogeneous(2),
            selector=selector,
            window_size=4,
            min_batch=2,
            faults=inj,
            retry=RetryPolicy(),
        )
        drain_programs(bare)
        assert bare.sacct() == default.sacct()


# ----------------------------------------------------------------------
# the optimizer's injectable clock (decision latency)
# ----------------------------------------------------------------------
class TestOptimizerClock:
    def test_injected_clock_makes_decision_time_deterministic(
        self, tiny_training
    ):
        from repro.core.actions import ActionCatalog
        from repro.core.evaluation import profile_all_benchmarks
        from repro.core.optimizer import OnlineOptimizer
        from repro.workloads.jobs import Job

        trainer, result = tiny_training
        repo = result.repository.copy()
        profile_all_benchmarks(repo)

        def make(clock=None, telemetry=NULL_TELEMETRY):
            return OnlineOptimizer(
                result.agent,
                repo,
                ActionCatalog(c_max=trainer.c_max),
                trainer.window_size,
                clock=clock,
                telemetry=telemetry,
            )

        ticks = iter(range(100000))
        tel = Telemetry()

        def fake_clock():
            # each call advances exactly 1ms -> latency is a whole
            # number of milliseconds, identical across repeated runs
            return next(ticks) * 0.001

        window = [Job.submit(p) for p in PROGRAMS[:4]]
        decision = make(clock=fake_clock, telemetry=tel).optimize(window)
        assert decision.decision_seconds > 0
        ms = decision.decision_seconds / 0.001
        assert ms == pytest.approx(round(ms))
        # deterministic: a second run with a fresh fake clock is identical
        ticks = iter(range(100000))
        again = make(clock=fake_clock).optimize(
            [Job.submit(p) for p in PROGRAMS[:4]]
        )
        assert again.decision_seconds == pytest.approx(
            decision.decision_seconds
        )
        # and the latency landed in the histogram
        snap = tel.registry.histogram("optimizer_decision_seconds").snapshot()
        assert snap.count == 1
        assert snap.total == pytest.approx(decision.decision_seconds)


# ----------------------------------------------------------------------
# exposition-format escaping and histogram quantile edge cases (PR 4)
# ----------------------------------------------------------------------
class TestExpositionEscaping:
    def test_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(1, path='a\\b', note='say "hi"\nbye')
        text = prometheus_text(reg)
        line = next(l for l in text.splitlines() if l.startswith("c{"))
        assert '\\\\b' in line          # backslash doubled
        assert '\\"hi\\"' in line       # quotes escaped
        assert "\\n" in line            # newline escaped...
        assert "\n" not in line         # ...not literal

    def test_help_text_is_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c", help="line one\nline \\ two").inc(1)
        help_line = next(
            l for l in prometheus_text(reg).splitlines()
            if l.startswith("# HELP")
        )
        assert help_line == "# HELP c line one\\nline \\\\ two"

    def test_escaped_exposition_still_parses_line_per_sample(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(1.0, k='tricky="\n\\')
        lines = prometheus_text(reg).splitlines()
        samples = [l for l in lines if not l.startswith("#")]
        assert len(samples) == 1 and samples[0].endswith(" 1")


class TestHistogramQuantileEdges:
    def test_empty_histogram_quantile_is_zero(self):
        snap = MetricsRegistry().histogram("h").snapshot()
        assert snap.count == 0
        assert snap.quantile(0.5) == 0.0
        assert snap.quantile(0.0) == 0.0
        assert snap.quantile(1.0) == 0.0

    def test_extreme_quantiles_hit_min_and_max(self):
        h = MetricsRegistry().histogram("h")
        for v in (3.0, 1.0, 2.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap.quantile(0.0) == snap.minimum == 1.0
        assert snap.quantile(1.0) == snap.maximum == 3.0

    def test_small_series_uses_the_sketch_rank_convention(self):
        # one rank convention at every size: order statistic
        # floor(q * (count - 1)), so p50 of {1, 3} is the lower sample
        h = MetricsRegistry().histogram("h")
        h.observe(3.0)
        h.observe(1.0)
        snap = h.snapshot()
        assert snap.quantile(0.5) == snap.sketch.quantile(0.5) == 1.0

    def test_quantile_after_reservoir_eviction_stays_in_range(self):
        h = MetricsRegistry().histogram("h")
        for i in range(5000):
            h.observe(float(i))
        snap = h.snapshot()
        assert snap.count == 5000
        for q in (0.0, 0.5, 0.95, 1.0):
            assert snap.minimum <= snap.quantile(q) <= snap.maximum
        # min/max track the full stream, not just the reservoir
        assert snap.minimum == 0.0 and snap.maximum == 4999.0
