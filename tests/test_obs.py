"""The observability suite: causal lifecycle tracing, the quantile
sketch, rollup frames, self-profiling, and the fleet-health tooling.

Four layers of coverage:

* unit — :class:`QuantileSketch` accuracy/merge/collapse/round-trip,
  :class:`PhaseTimers` arithmetic on a counted clock, and the bulk
  ``Histogram.observe(count=)`` equivalence the batched telemetry
  mirror relies on;
* causal — span-tree completeness under heavy fault injection (every
  submitted job's tree closes, outcomes reconcile with the engine's
  accounting), placement provenance events, and the Chrome-trace
  conversion;
* determinism — lifecycle JSONL and rollup frames are byte-identical
  across reruns, and attaching the tracer never perturbs simulated
  results (observer identity);
* operator surface — ``repro-gpu top`` rendering, the burn-rate SLO
  monitor, the sketch-backed queue-wait alert, and the telemetry
  overhead gate's verdict logic.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.clock import CountingClock
from repro.cluster.fleet import BoundedQueue, FleetEngine
from repro.cluster.node import ClusterState
from repro.cluster.policy import CoSchedulingPolicy, FcfsPolicy, PolicySelector
from repro.errors import ConfigurationError
from repro.faults import FaultConfig, FaultInjector
from repro.hierarchy import (
    LeastLoadedPlacement,
    RandomPlacement,
    RoundRobinPlacement,
)
from repro.insight import (
    AlertEngine,
    BurnRateConfig,
    scan_burn_rate,
)
from repro.insight.benchgate import compare_overhead_bench, gate_passes
from repro.obs import (
    PHASES,
    LifecycleTracer,
    PhaseTimers,
    QuantileSketch,
    TraceContext,
    frames_series,
    lifecycle_chrome_trace,
    load_run,
    read_frames_jsonl,
    read_lifecycle_jsonl,
    render_top,
    sparkline,
    summarize_lifecycle,
    trace_id_for,
    write_frames_jsonl,
)
from repro.obs.trace import _validate_record
from repro.telemetry import Telemetry, prometheus_text
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.jobs import Job, JobQueue

pytestmark = pytest.mark.obs

POOL = ["stream", "kmeans", "hotspot3D", "pathfinder"]

HEAVY_FAULTS = dict(
    job_failure_rate=0.3,
    transient_rate=0.2,
    reconfig_failure_rate=0.2,
    straggler_rate=0.3,
)


def fcfs_selector() -> PolicySelector:
    """A selector that always picks FCFS — no trained agent needed."""
    return PolicySelector(
        co_scheduling=CoSchedulingPolicy(None),  # type: ignore[arg-type]
        fcfs=FcfsPolicy(),
        crowding_threshold=10**9,
    )


def fixed_queue(names: list[str]) -> JobQueue:
    """Jobs with explicit ids: ``Job.submit`` draws from a process-global
    counter, which would break in-process rerun byte-identity."""
    return JobQueue(
        jobs=[
            Job(
                job_id=f"obs-{i:06d}",
                benchmark_name=name,
                binary_path=f"/apps/bench/{name}/bin/{name}",
            )
            for i, name in enumerate(names)
        ]
    )


def faulty_engine(lifecycle=None, seed: int = 3, **kwargs) -> FleetEngine:
    engine = FleetEngine(
        ClusterState.homogeneous(2),
        fcfs_selector(),
        window_size=3,
        faults=FaultInjector(FaultConfig(seed=seed, **HEAVY_FAULTS)),
        max_retries=1,
        lifecycle=lifecycle,
        **kwargs,
    )
    engine.submit_queue(fixed_queue(POOL * 6))
    return engine


# ----------------------------------------------------------------------
# the quantile sketch
# ----------------------------------------------------------------------
class TestQuantileSketch:
    @staticmethod
    def stream(n: int = 5000) -> list[float]:
        # deterministic, scale-spread positive stream (no RNG in tests
        # of an RNG-free structure)
        return [((i * 7919) % n + 1) * 0.37 for i in range(n)]

    def test_relative_error_bound_holds(self):
        sketch = QuantileSketch(relative_accuracy=0.01)
        values = self.stream()
        for v in values:
            sketch.add(v)
        ordered = sorted(values)
        for q in (0.05, 0.25, 0.5, 0.9, 0.95, 0.99):
            exact = ordered[int(q * (len(ordered) - 1))]
            estimate = sketch.quantile(q)
            assert abs(estimate - exact) / exact <= 0.011
        assert sketch.quantile(0.0) == min(values)
        assert sketch.quantile(1.0) == max(values)
        assert sketch.mean == pytest.approx(sum(values) / len(values))

    def test_merge_equals_combined_stream(self):
        values = self.stream(2000)
        left, right, combined = (
            QuantileSketch(),
            QuantileSketch(),
            QuantileSketch(),
        )
        for i, v in enumerate(values):
            (left if i % 2 else right).add(v)
            combined.add(v)
        left.merge(right)
        assert left == combined
        assert left.to_dict() == combined.to_dict()

    def test_negative_and_zero_values(self):
        sketch = QuantileSketch()
        for v in (-100.0, -1.0, 0.0, 0.0, 1.0, 100.0):
            sketch.add(v)
        assert sketch.quantile(0.0) == -100.0
        assert sketch.quantile(1.0) == 100.0
        # the median of 6 values is the rank-2 order statistic: 0.0
        assert sketch.quantile(0.5) == pytest.approx(0.0, abs=1e-6)
        assert sketch.count == 6

    def test_collapse_preserves_tail_quantiles(self):
        sketch = QuantileSketch(max_bins=32)
        values = self.stream(4000)
        for v in values:
            sketch.add(v)
        ordered = sorted(values)
        exact_p99 = ordered[int(0.99 * (len(ordered) - 1))]
        assert abs(sketch.quantile(0.99) - exact_p99) / exact_p99 <= 0.011
        # the collapsed head degrades but never escapes [min, max]
        assert sketch.minimum <= sketch.quantile(0.01) <= sketch.maximum

    def test_quantiles_matches_pointwise_quantile(self):
        sketch = QuantileSketch()
        for v in (-5.0, -0.5, 0.0, 0.3, 2.0, 40.0, 41.0, 3000.0):
            sketch.add(v)
        qs = (0.0, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0)
        assert sketch.quantiles(qs) == [sketch.quantile(q) for q in qs]
        # order of the requested quantiles must not matter
        assert sketch.quantiles((0.99, 0.5, 0.0)) == [
            sketch.quantile(0.99),
            sketch.quantile(0.5),
            sketch.quantile(0.0),
        ]

    def test_quantiles_on_empty_sketch(self):
        assert QuantileSketch().quantiles((0.5, 0.95)) == [0.0, 0.0]
        assert QuantileSketch().quantile(0.95) == 0.0

    def test_to_buckets_is_cumulative_and_ascending(self):
        sketch = QuantileSketch()
        for v in (-3.0, 0.0, 1.0, 2.0, 2.0, 50.0):
            sketch.add(v)
        buckets = sketch.to_buckets()
        assert buckets[-1] == ("+Inf", 6)
        bounds = [b for b, _ in buckets[:-1]]
        assert bounds == sorted(bounds)
        counts = [c for _, c in buckets]
        assert counts == sorted(counts)

    def test_dict_round_trip(self):
        sketch = QuantileSketch(relative_accuracy=0.02, max_bins=64)
        for v in self.stream(500):
            sketch.add(v, count=2)
        sketch.add(-4.0)
        clone = QuantileSketch.from_dict(sketch.to_dict())
        assert clone == sketch
        assert clone.quantile(0.95) == sketch.quantile(0.95)
        # serialization is byte-stable
        assert json.dumps(sketch.to_dict(), sort_keys=True) == json.dumps(
            clone.to_dict(), sort_keys=True
        )

    def test_validation_errors(self):
        with pytest.raises(ConfigurationError):
            QuantileSketch(relative_accuracy=0.0)
        with pytest.raises(ConfigurationError):
            QuantileSketch(min_value=0.0)
        with pytest.raises(ConfigurationError):
            QuantileSketch(max_bins=1)
        sketch = QuantileSketch()
        with pytest.raises(ConfigurationError):
            sketch.add(1.0, count=0)
        with pytest.raises(ConfigurationError):
            sketch.add(float("nan"))
        with pytest.raises(ConfigurationError):
            sketch.quantile(1.5)
        with pytest.raises(ConfigurationError):
            sketch.quantiles((0.5, -0.1))
        with pytest.raises(ConfigurationError):
            sketch.merge(QuantileSketch(relative_accuracy=0.05))


# ----------------------------------------------------------------------
# trace identity
# ----------------------------------------------------------------------
class TestTraceIds:
    def test_deterministic_and_seed_keyed(self):
        assert trace_id_for("job-1", seed=0) == trace_id_for("job-1", seed=0)
        assert trace_id_for("job-1", seed=0) != trace_id_for("job-1", seed=1)
        assert trace_id_for("job-1", seed=0) != trace_id_for("job-2", seed=0)
        tid = trace_id_for("job-1")
        assert len(tid) == 16
        int(tid, 16)  # hex

    def test_context_for_job(self):
        job = Job.submit("stream")
        context = TraceContext.for_job(job, seed=9)
        assert context.job_id == job.job_id
        assert context.benchmark == "stream"
        assert context.trace_id == trace_id_for(job.job_id, seed=9)


# ----------------------------------------------------------------------
# lifecycle tracing through the engine
# ----------------------------------------------------------------------
class TestLifecycleTracer:
    def test_span_trees_complete_under_heavy_faults(self):
        tracer = LifecycleTracer(seed=3)
        engine = faulty_engine(lifecycle=tracer)
        stats = engine.run().stats
        assert stats.submitted == 24
        assert stats.failed > 0  # the fault mix actually bites
        assert tracer.open_jobs == 0
        assert tracer.finished == stats.submitted
        assert tracer.outcomes["completed"] == stats.completed
        assert tracer.outcomes["failed"] == stats.failed
        assert tracer.outcomes["rejected"] == stats.rejected
        for record in tracer.records:
            _validate_record(record)
            assert record["trace_id"] == trace_id_for(record["job_id"], 3)
            if record["outcome"] == "completed":
                assert record["attempts"] >= 1
                assert record["wait"] >= 0.0
                executes = [
                    s for s in record["spans"] if s["name"] == "execute"
                ]
                assert len(executes) == record["attempts"]
        # retries leave crash events and matching requeue markers
        crashed = [
            r
            for r in tracer.records
            if any(e["name"] == "crash" for e in r["events"])
        ]
        assert crashed, "heavy faults must crash at least one attempt"

    def test_rejections_are_traced(self):
        tracer = LifecycleTracer(seed=0)
        engine = FleetEngine(
            ClusterState.homogeneous(1),
            fcfs_selector(),
            admission=BoundedQueue(max_pending=2),
            lifecycle=tracer,
        )
        engine.attach_arrivals(
            PoissonArrivals(rate=200.0, pool=POOL, n_jobs=30, seed=2)
        )
        stats = engine.run().stats
        assert stats.rejected > 0
        rejected = [
            r for r in tracer.records if r["outcome"] == "rejected"
        ]
        assert len(rejected) == stats.rejected
        for record in rejected:
            assert record["attempts"] == 0
            assert record["end"] == record["submit"]
            events = {e["name"] for e in record["events"]}
            assert events == {"arrival"}

    def test_cancelled_jobs_are_traced(self):
        tracer = LifecycleTracer(seed=0)
        engine = FleetEngine(
            ClusterState.homogeneous(1), fcfs_selector(), min_batch=2,
            lifecycle=tracer,
        )
        job = Job.submit(POOL[0])
        engine.submit(job)
        engine.advance_to(1.0)  # a lone job: min_batch holds it
        engine.cancel(job.job_id)
        stats = engine.stats
        assert (stats.admitted, stats.cancelled) == (1, 1)
        assert tracer.open_jobs == 0
        assert tracer.outcomes["cancelled"] == 1
        (record,) = tracer.records
        _validate_record(record)
        assert (record["outcome"], record["end"]) == ("cancelled", 1.0)

    def test_lifecycle_jsonl_is_byte_identical_across_reruns(self, tmp_path):
        blobs = []
        for run in range(2):
            path = tmp_path / f"run{run}" / "lifecycle.jsonl"
            with LifecycleTracer(seed=3, path=str(path)) as tracer:
                faulty_engine(lifecycle=tracer).run()
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
        assert blobs[0]  # non-empty
        records = read_lifecycle_jsonl(str(tmp_path / "run0/lifecycle.jsonl"))
        assert len(records) == 24

    def test_streaming_mode_is_constant_memory(self, tmp_path):
        path = tmp_path / "lifecycle.jsonl"
        tracer = LifecycleTracer(seed=3, path=str(path))
        faulty_engine(lifecycle=tracer).run()
        tracer.close()
        # streamed records are NOT retained in memory...
        assert tracer.records == []
        assert tracer.retain is False
        # ...but land on disk, one valid tree per line
        for record in read_lifecycle_jsonl(str(path)):
            _validate_record(record)

    def test_tracer_is_a_pure_observer(self):
        untraced = faulty_engine().run().stats.to_dict()
        traced_engine = faulty_engine(lifecycle=LifecycleTracer(seed=3))
        traced = traced_engine.run().stats.to_dict()
        assert traced == untraced

    def test_profiled_run_keeps_simulated_results_identical(self):
        plain = faulty_engine().run().stats.to_dict()
        clock = CountingClock(step=0.5)
        profiled_engine = faulty_engine(
            telemetry=Telemetry(),
            profile=PhaseTimers(clock=clock),
            decision_clock=None,
        )
        profiled_engine.schedule_checkpoints(10.0)
        profiled = profiled_engine.run().stats.to_dict()
        # checkpoints are the one field observation legitimately adds
        assert profiled.pop("checkpoints") > 0
        plain.pop("checkpoints")
        assert profiled == plain
        assert profiled_engine.profile.total_seconds > 0.0

    def test_summarize_and_readers_zero_fill(self, tmp_path):
        assert read_lifecycle_jsonl(str(tmp_path / "missing.jsonl")) == []
        summary = summarize_lifecycle([])
        assert summary == {
            "jobs": 0,
            "outcomes": {},
            "attempts": 0,
            "mean_wait": 0.0,
            "max_wait": 0.0,
        }
        tracer = LifecycleTracer(seed=3)
        faulty_engine(lifecycle=tracer).run()
        summary = summarize_lifecycle(tracer.records)
        assert summary["jobs"] == 24
        assert summary["outcomes"]["completed"] == tracer.outcomes["completed"]
        assert summary["max_wait"] >= summary["mean_wait"] >= 0.0


class TestChromeConversion:
    def test_empty_records_make_a_valid_empty_trace(self):
        doc = lifecycle_chrome_trace([])
        assert doc["displayTimeUnit"] == "ms"
        names = [e["args"]["name"] for e in doc["traceEvents"]]
        assert names == ["repro-fleet-lifecycle", "jobs"]

    def test_nodes_become_threads_and_spans_become_slices(self):
        tracer = LifecycleTracer(seed=3)
        faulty_engine(lifecycle=tracer).run()
        doc = lifecycle_chrome_trace(tracer.records)
        events = doc["traceEvents"]
        thread_names = {
            e["args"]["name"]
            for e in events
            if e["name"] == "thread_name"
        }
        assert "jobs" in thread_names
        assert any(t.startswith("gpu") for t in thread_names)
        slices = [e for e in events if e["ph"] == "X"]
        assert all(e["dur"] >= 0.0 for e in slices)
        # one root slice per traced job on the overview thread
        roots = [e for e in slices if e["tid"] == 0]
        assert len(roots) == len(tracer.records)
        # instants carry the causal identity
        instants = [e for e in events if e["ph"] == "i"]
        assert instants and all("trace_id" in e["args"] for e in instants)
        json.dumps(doc, sort_keys=True)  # serializable


# ----------------------------------------------------------------------
# placement provenance
# ----------------------------------------------------------------------
class TestPlacementTracing:
    def test_placed_events_carry_node_provenance(self):
        tracer = LifecycleTracer(seed=0)
        engine = FleetEngine(
            ClusterState.homogeneous(3),
            fcfs_selector(),
            placement=LeastLoadedPlacement(),
            lifecycle=tracer,
        )
        engine.submit_queue(JobQueue.from_benchmarks(POOL * 3))
        stats = engine.run().stats
        assert stats.completed == 12
        for record in tracer.records:
            placed = [e for e in record["events"] if e["name"] == "placed"]
            assert len(placed) == 1
            assert placed[0]["args"]["node"].startswith("gpu")
            assert 0 <= placed[0]["args"]["node_index"] < 3

    @pytest.mark.parametrize(
        "factory",
        [
            LeastLoadedPlacement,
            RoundRobinPlacement,
            lambda: RandomPlacement(seed=5),
        ],
    )
    def test_place_with_info_matches_place(self, factory):
        # the provenance path must consume exactly the randomness the
        # plain path consumes: same seeds, same routing
        plain, traced = factory(), factory()
        engine = FleetEngine(
            ClusterState.homogeneous(4),
            fcfs_selector(),
            placement=factory(),
        )
        for i in range(12):
            job = Job.submit(POOL[i % len(POOL)])
            choice = plain.place(engine, job, float(i))
            with_info, info = traced.place_with_info(engine, job, float(i))
            assert with_info == choice
            assert isinstance(info, dict)


# ----------------------------------------------------------------------
# rollup frames
# ----------------------------------------------------------------------
class TestRollupFrames:
    def run_with_checkpoints(self, interval: float = 8.0) -> FleetEngine:
        engine = faulty_engine(telemetry=Telemetry())
        engine.schedule_checkpoints(interval)
        engine.run()
        return engine

    def test_snapshots_carry_streaming_percentiles(self):
        engine = self.run_with_checkpoints()
        assert engine.snapshots
        last = engine.snapshots[-1]
        doc = last.to_dict()
        assert doc["queue_wait_p99"] >= doc["queue_wait_p95"] >= 0.0
        assert doc["queue_wait_p95"] >= doc["queue_wait_p50"] >= 0.0
        # the sketch percentiles reconcile with the final stats sketch
        stats = engine.stats
        assert last.queue_wait_p95 <= stats.wait_sketch.maximum

    def test_round_trip_is_byte_identical(self, tmp_path):
        blobs = []
        for run in range(2):
            engine = self.run_with_checkpoints()
            path = tmp_path / f"frames{run}.jsonl"
            written = write_frames_jsonl(engine.snapshots, str(path))
            assert written == len(engine.snapshots)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
        frames = read_frames_jsonl(str(tmp_path / "frames0.jsonl"))
        assert [f["time"] for f in frames] == [
            s.time for s in self.run_with_checkpoints().snapshots
        ]

    def test_plain_dicts_and_series_zero_fill(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        write_frames_jsonl([{"time": 1.0}, {"time": 2.0, "pending": 3}], str(path))
        frames = read_frames_jsonl(str(path))
        assert frames_series(frames, "pending") == [0.0, 3.0]
        assert frames_series(frames, "absent", default=-1.0) == [-1.0, -1.0]
        assert read_frames_jsonl(str(tmp_path / "missing.jsonl")) == []


# ----------------------------------------------------------------------
# registry integration: bulk observes and sketch exposition
# ----------------------------------------------------------------------
class TestBatchedMirrorPrimitives:
    def test_bulk_observe_equals_sequential(self):
        seq, bulk = Telemetry(), Telemetry()
        for _ in range(5):
            seq.observe("dispatch_batch_windows", 3.0)
        for _ in range(2):
            seq.observe("dispatch_batch_windows", 9.0)
        bulk.observe("dispatch_batch_windows", 3.0, count=5)
        bulk.observe("dispatch_batch_windows", 9.0, count=2)
        a = seq.registry.collect()[0].snapshot()
        b = bulk.registry.collect()[0].snapshot()
        assert a.buckets == b.buckets
        assert a.count == b.count == 7
        assert a.total == b.total
        assert a.sketch == b.sketch

    def test_bulk_observe_rejects_nonpositive_count(self):
        tel = Telemetry()
        with pytest.raises(ConfigurationError):
            tel.observe("x", 1.0, count=0)

    def test_histogram_quantile_switches_to_sketch_at_scale(self):
        tel = Telemetry()
        n = 5000
        for i in range(n):
            tel.observe("wide", float((i * 7919) % n + 1))
        snap = tel.registry.collect()[0].snapshot()
        assert snap.count == n
        exact = float(int(0.99 * n))
        assert abs(snap.quantile(0.99) - exact) / exact <= 0.02

    def test_sync_sketch_replaces_the_series(self):
        tel = Telemetry()
        sketch = QuantileSketch()
        for v in (10.0, 20.0, 30.0):
            sketch.add(v)
        tel.sync_sketch("fleet_queue_wait_seconds", sketch)
        metric = tel.registry.collect()[0]
        assert metric.quantile(1.0) == 30.0
        # re-sync overwrites rather than accumulates
        tel.sync_sketch("fleet_queue_wait_seconds", QuantileSketch())
        assert tel.registry.collect()[0].snapshot().count == 0
        # the engine's sketch stays isolated from the registry copy
        sketch.add(99.0)
        assert metric.snapshot().count == 0

    def test_sketch_metric_prometheus_exposition(self):
        tel = Telemetry()
        for v in (0.5, 1.0, 4.0, 4.0, 1000.0):
            tel.sketch("fleet_queue_wait_seconds", v, shard="a")
        text = prometheus_text(tel.registry)
        assert "# TYPE fleet_queue_wait_seconds histogram" in text
        assert 'fleet_queue_wait_seconds_bucket{shard="a",le="+Inf"} 5' in text
        assert 'fleet_queue_wait_seconds_count{shard="a"} 5' in text
        # cumulative le bounds ascend
        bucket_lines = [
            line
            for line in text.splitlines()
            if line.startswith("fleet_queue_wait_seconds_bucket")
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in bucket_lines]
        assert counts == sorted(counts)

    def test_label_escaping_regression(self):
        tel = Telemetry()
        hostile = 'a\\b"c\nd'
        tel.sketch("fleet_queue_wait_seconds", 1.0, node=hostile)
        tel.count("windows_dispatched_total", 2.0, policy=hostile)
        text = prometheus_text(tel.registry)
        escaped = 'a\\\\b\\"c\\nd'
        assert f'node="{escaped}"' in text
        assert f'policy="{escaped}"' in text
        # no raw newline may survive inside any sample line
        for line in text.splitlines():
            assert not line.endswith('"c')


# ----------------------------------------------------------------------
# phase timers
# ----------------------------------------------------------------------
class TestPhaseTimers:
    def test_counted_clock_arithmetic(self):
        clock = CountingClock(step=1.0)
        timers = PhaseTimers(clock=clock)
        t0 = timers.clock()
        timers.add("decision", timers.clock() - t0)
        assert timers.seconds["decision"] == 1.0
        assert timers.calls["decision"] == 1

    def test_aggregate_flush_counts_calls(self):
        timers = PhaseTimers(clock=CountingClock())
        timers.add("event_pop", 0.25, calls=1000)
        timers.add("event_pop", 0.75, calls=500)
        assert timers.seconds["event_pop"] == 1.0
        assert timers.calls["event_pop"] == 1500

    def test_fractions_and_to_dict(self):
        timers = PhaseTimers(clock=CountingClock())
        timers.add("replay", 3.0)
        timers.add("telemetry", 1.0)
        assert timers.total_seconds == 4.0
        assert timers.fraction("replay") == pytest.approx(0.75)
        assert timers.fraction("missing") == 0.0
        doc = timers.to_dict()
        assert list(doc["phases"]) == ["replay", "telemetry"]
        assert doc["phases"]["telemetry"]["fraction"] == pytest.approx(0.25)
        # negative deltas (monotonic ties) clamp to zero
        timers.add("replay", -5.0)
        assert timers.seconds["replay"] == 3.0
        assert set(PHASES) >= {"event_pop", "decision", "replay", "telemetry"}


# ----------------------------------------------------------------------
# SLO monitoring
# ----------------------------------------------------------------------
class TestBurnRate:
    @staticmethod
    def frames(pattern: list[float]) -> list[dict]:
        return [
            {"time": float(i), "queue_wait_p95": w}
            for i, w in enumerate(pattern)
        ]

    def test_fires_on_sustained_burn(self):
        config = BurnRateConfig(slo_wait_seconds=100.0)
        pattern = [10.0] * 20 + [500.0] * 12
        alerts = scan_burn_rate(self.frames(pattern), config)
        assert len(alerts) == 1
        alert = alerts[0]
        assert alert.kind == "slo_burn_rate"
        assert alert.severity == "critical"
        assert alert.ts >= 20.0  # latched inside the bad stretch

    def test_silent_on_a_blip_and_on_empty(self):
        config = BurnRateConfig(slo_wait_seconds=100.0)
        blip = [10.0] * 10 + [500.0] + [10.0] * 10
        assert scan_burn_rate(self.frames(blip), config) == []
        assert scan_burn_rate([], config) == []
        # frames before the sketch has samples count as good
        assert scan_burn_rate(self.frames([0.0] * 40), config) == []

    def test_queue_wait_alert_reads_the_fleet_sketch(self):
        tel = Telemetry()
        sketch = QuantileSketch()
        for _ in range(20):
            sketch.add(10000.0)
        tel.sync_sketch("fleet_queue_wait_seconds", sketch)
        alerts = AlertEngine(tel).scan()
        kinds = [a.kind for a in alerts]
        assert "queue_wait_p95" in kinds
        alert = alerts[kinds.index("queue_wait_p95")]
        assert alert.value == pytest.approx(10000.0, rel=0.02)


# ----------------------------------------------------------------------
# the overhead gate's verdict logic
# ----------------------------------------------------------------------
class TestOverheadGate:
    def test_within_budget_passes(self):
        doc = {"overhead": {"throughput_ratio": 0.91, "identical_stats": True}}
        checks = compare_overhead_bench(doc, budget=0.85)
        assert gate_passes(checks)
        keys = {c.key for c in checks}
        assert keys == {
            "overhead.throughput_ratio",
            "overhead.identical_stats",
        }

    def test_slow_telemetry_or_perturbed_stats_fail(self):
        slow = {"overhead": {"throughput_ratio": 0.5, "identical_stats": True}}
        assert not gate_passes(compare_overhead_bench(slow, budget=0.85))
        perturbed = {
            "overhead": {"throughput_ratio": 0.99, "identical_stats": False}
        }
        assert not gate_passes(compare_overhead_bench(perturbed, budget=0.85))

    def test_budget_validation(self):
        doc = {"overhead": {"throughput_ratio": 0.9, "identical_stats": True}}
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            compare_overhead_bench(doc, budget=0.0)
        with pytest.raises(ReproError):
            compare_overhead_bench(doc, budget=1.5)


# ----------------------------------------------------------------------
# the operator surface: load_run / render_top / sparkline
# ----------------------------------------------------------------------
class TestTop:
    def make_run_dir(self, tmp_path) -> str:
        out = tmp_path / "run"
        tracer = LifecycleTracer(seed=3, path=str(out / "lifecycle.jsonl"))
        engine = faulty_engine(lifecycle=tracer, telemetry=Telemetry())
        engine.schedule_checkpoints(8.0)
        result = engine.run()
        tracer.close()
        write_frames_jsonl(engine.snapshots, str(out / "frames.jsonl"))
        with open(out / "fleet.json", "w") as fh:
            json.dump(engine.summary(), fh, sort_keys=True)
        assert result.stats.completed > 0
        return str(out)

    def test_sparkline(self):
        assert sparkline([]) == "(no data)"
        assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"
        line = sparkline(list(range(100)), width=10)
        assert len(line) == 10
        assert line[0] < line[-1]  # ramps upward in the bar alphabet

    def test_load_run_zero_fills_an_empty_directory(self, tmp_path):
        run = load_run(str(tmp_path))
        assert run["frames"] == []
        assert run["lifecycle"]["jobs"] == 0
        assert run["summary"] == {}
        text = render_top(run)
        assert "no frames.jsonl" in text
        assert "SLO burn rate: ok" in text

    def test_render_top_on_a_real_run(self, tmp_path):
        out = self.make_run_dir(tmp_path)
        run = load_run(out)
        assert run["frames"]
        assert run["lifecycle"]["jobs"] == 24
        text = render_top(run, width=32)
        assert "queue-wait p95" in text
        assert "lifecycle: 24 jobs" in text
        assert "completed=" in text
        assert "SLO burn rate: ok" in text

    def test_render_top_with_alerts(self, tmp_path):
        out = self.make_run_dir(tmp_path)
        run = load_run(out)
        alerts = scan_burn_rate(
            [{"time": float(i), "queue_wait_p95": 900.0} for i in range(40)],
            BurnRateConfig(slo_wait_seconds=1.0),
        )
        assert alerts
        text = render_top(run, alerts=alerts)
        assert "SLO BURN [critical]" in text
        assert "burning" in text

    def test_corrupt_summary_zero_fills(self, tmp_path):
        (tmp_path / "fleet.json").write_text("{not json")
        run = load_run(str(tmp_path))
        assert run["summary"] == {}


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCli:
    def test_top_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["top"])
        assert args.dir == "out"
        assert args.slo == pytest.approx(7200.0)
        assert not args.fail_on_burn
        args = build_parser().parse_args(
            ["benchgate", "--overhead", "--overhead-budget", "0.8"]
        )
        assert args.overhead and args.overhead_budget == pytest.approx(0.8)

    def test_top_on_an_empty_directory(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["top", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "repro-gpu top" in out
        assert "SLO burn rate: ok" in out

    def test_fleet_then_top_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        out_dir = tmp_path / "obs"
        rc = main(
            [
                "fleet",
                "--nodes", "2",
                "--jobs", "16",
                "--rate", "20",
                "--episodes", "1",
                "--jobs-per-episode", "8",
                "--pool-size", "2",
                "--seed", "3",
                "--telemetry", str(out_dir),
                "--checkpoint-interval", "2.0",
            ]
        )
        assert rc == 0
        for name in (
            "lifecycle.jsonl",
            "frames.jsonl",
            "lifecycle_trace.json",
            "fleet.json",
            "trace.json",
            "metrics.prom",
        ):
            assert (out_dir / name).exists(), name
        records = read_lifecycle_jsonl(str(out_dir / "lifecycle.jsonl"))
        assert len(records) == 16
        with open(out_dir / "lifecycle_trace.json") as fh:
            json.load(fh)
        capsys.readouterr()
        assert main(["top", str(out_dir)]) == 0
        top_out = capsys.readouterr().out
        assert "lifecycle: 16 jobs" in top_out
        assert "queue-wait p95" in top_out
        # an absurdly tight SLO trips the burn gate through the CLI
        assert main(
            ["top", str(out_dir), "--slo", "0.000001", "--fail-on-burn"]
        ) in (0, 1)  # fires only if the run actually queued
