"""The discrete-event fleet engine and its bitwise-identity contracts.

Three layers of coverage:

* unit — the event heap's deterministic ordering, admission policies,
  and the seeded arrival processes;
* behavior — dispatch/outage/checkpoint semantics of
  :class:`FleetEngine` on cheap FCFS-only selectors (no training);
* identity — on small fault-free clusters the engine's dispatch
  records and schedule fingerprints, and the :class:`BatchSystem`
  facade's drain, must be *bitwise* equal to
  :func:`reference_dispatch` (the correctness oracle for the rebased
  time arithmetic), and the fast schedule replay must match the exact
  fault-tolerant executor float for float.

The accounting property tests run the same invariants — every submitted
job ends in a terminal state, busy time fits in makespan x nodes, and
each node's windows start in order — under heavy fault injection at
both ``t = 0`` and a large clock offset where absolute-epsilon time
arithmetic breaks down (the bugs the ``repro.clock`` helpers fix).
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import time_close, time_le, time_lt
from repro.cluster.batch import BatchSystem, JobState
from repro.cluster.fleet import (
    AdmitAll,
    BoundedQueue,
    EventHeap,
    EventKind,
    FleetEngine,
    TokenBucket,
)
from repro.cluster.node import ClusterState
from repro.cluster.policy import CoSchedulingPolicy, FcfsPolicy, PolicySelector
from repro.core.actions import ActionCatalog
from repro.core.optimizer import OnlineOptimizer
from repro.core.serving import DecisionCache, schedule_fingerprint
from repro.errors import ConfigurationError, SchedulingError
from repro.faults import FaultConfig, FaultInjector
from repro.workloads.arrivals import (
    DiurnalBurstArrivals,
    PoissonArrivals,
    TraceArrivals,
)
from repro.workloads.generator import MixCategory, QueueGenerator
from repro.workloads.jobs import Job, JobQueue
from repro.workloads.traces import JobTrace, TraceEvent
from tests.oracles.dispatch import reference_dispatch

pytestmark = pytest.mark.fleet

#: at this clock the float64 ulp is ~1e-3: absolute epsilons like
#: ``+ 1e-9`` (and the old drain's ``+ 1e-6`` nudge) are fully absorbed
LARGE_OFFSET = float(2**42)

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


@pytest.fixture(scope="module")
def selector_factory(tiny_training):
    """Build fresh RL-backed selectors sharing one trained agent."""
    trainer, result = tiny_training
    from repro.core.evaluation import profile_all_benchmarks

    repo = result.repository.copy()  # leave the shared fixture pristine
    profile_all_benchmarks(repo)

    def make(crowding_threshold: int = 1) -> PolicySelector:
        optimizer = OnlineOptimizer(
            result.agent,
            repo,
            ActionCatalog(c_max=trainer.c_max),
            trainer.window_size,
            decision_cache=DecisionCache(),
        )
        return PolicySelector(
            co_scheduling=CoSchedulingPolicy(optimizer),
            fcfs=FcfsPolicy(),
            crowding_threshold=crowding_threshold,
        )

    return make


def backlog_names(n_windows: int, w: int = 6, seed: int = 5) -> list[str]:
    gen = QueueGenerator(seed=seed, training_only=True)
    names: list[str] = []
    for _ in range(n_windows):
        names.extend(gen.queue(MixCategory.BALANCED, w=w).benchmark_names)
    return names


def assert_busy_fits_and_starts_ordered(cluster, history) -> None:
    """Busy time <= makespan x nodes, and no node's windows go back in
    time."""
    busy = sum(node.busy_time for node in cluster.nodes)
    assert time_le(busy, cluster.makespan * len(cluster.nodes))
    last_start: dict[str, float] = {}
    for record in history:
        assert time_le(last_start.get(record.node_name, 0.0), record.start_time)
        last_start[record.node_name] = record.start_time


# ----------------------------------------------------------------------
# time comparison helpers (repro.clock)
# ----------------------------------------------------------------------
class TestTimeHelpers:
    def test_absolute_epsilons_are_absorbed_at_scale(self):
        # the root cause of the old drain bug: the nudge is a no-op
        assert LARGE_OFFSET + 1e-6 == LARGE_OFFSET
        assert LARGE_OFFSET + 1e-9 == LARGE_OFFSET

    def test_relative_tolerance_scales_with_the_clock(self):
        # near t=0 the helpers reproduce the old 1e-9 band ...
        assert time_le(1e-10, 0.0)
        assert not time_lt(0.0, 1e-10)
        assert time_lt(0.0, 1e-6)
        # ... and at large clocks ties are still recognized
        assert time_close(LARGE_OFFSET, LARGE_OFFSET + 1.0)
        assert time_le(LARGE_OFFSET + 1.0, LARGE_OFFSET)
        assert time_lt(LARGE_OFFSET, LARGE_OFFSET + 100.0)

    def test_strict_order_on_ordinary_values(self):
        assert time_lt(1.0, 2.0)
        assert not time_le(2.0, 1.0)
        assert time_le(1.0, 1.0)
        assert not time_lt(1.0, 1.0)


# ----------------------------------------------------------------------
# the event heap
# ----------------------------------------------------------------------
class TestEventHeap:
    def test_orders_by_time_then_kind_then_insertion(self):
        heap = EventHeap()
        heap.push(5.0, EventKind.COMPLETION, "c5")
        heap.push(1.0, EventKind.FAULT, "f1")
        heap.push(5.0, EventKind.ARRIVAL, "a5")
        heap.push(1.0, EventKind.ARRIVAL, "a1")
        heap.push(5.0, EventKind.ARRIVAL, "a5-later")
        popped = [heap.pop() for _ in range(len(heap))]
        assert [p[2] for p in popped] == ["a1", "f1", "a5", "a5-later", "c5"]
        assert [p[1] for p in popped[:2]] == [
            EventKind.ARRIVAL, EventKind.FAULT,
        ]

    def test_peek_len_bool(self):
        heap = EventHeap()
        assert not heap and len(heap) == 0
        heap.push(3.0, EventKind.CHECKPOINT)
        assert heap and len(heap) == 1
        assert heap.peek_time() == 3.0
        time, kind, payload = heap.pop()
        assert (time, kind, payload) == (3.0, EventKind.CHECKPOINT, None)


# ----------------------------------------------------------------------
# admission policies
# ----------------------------------------------------------------------
class TestAdmission:
    def test_admit_all(self):
        policy = AdmitAll()
        assert all(policy.admit(depth, 0.0) for depth in (0, 10, 10**6))

    def test_bounded_queue(self):
        policy = BoundedQueue(max_pending=3)
        assert policy.admit(2, 0.0)
        assert not policy.admit(3, 0.0)
        with pytest.raises(SchedulingError):
            BoundedQueue(0)

    def test_token_bucket_rate_limits_and_refills(self):
        policy = TokenBucket(rate=1.0, burst=2.0)
        assert policy.admit(0, 0.0)
        assert policy.admit(0, 0.0)  # burst budget
        assert not policy.admit(0, 0.0)  # bucket empty
        assert policy.admit(0, 1.5)  # refilled at 1/s
        assert not policy.admit(0, 1.5)
        with pytest.raises(SchedulingError):
            TokenBucket(rate=0.0)
        with pytest.raises(SchedulingError):
            TokenBucket(rate=1.0, burst=0.5)


# ----------------------------------------------------------------------
# arrival processes
# ----------------------------------------------------------------------
class TestArrivals:
    def test_poisson_is_seeded_and_bounded(self):
        process = PoissonArrivals(rate=2.0, pool=POOL, n_jobs=200, seed=9)
        first = list(process)
        second = list(process)
        assert first == second  # bit-reproducible from the seed
        assert len(first) == 200
        times = [t for t, _ in first]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert all(name in POOL for _, name in first)

    def test_poisson_start_offset_and_endless_mode(self):
        process = PoissonArrivals(
            rate=1.0, pool=POOL, n_jobs=None, seed=1, start=LARGE_OFFSET,
        )
        head = list(itertools.islice(iter(process), 10))
        assert len(head) == 10
        assert all(t > LARGE_OFFSET for t, _ in head)

    def test_poisson_validation(self):
        with pytest.raises(ConfigurationError):
            PoissonArrivals(rate=0.0, pool=POOL, n_jobs=1)
        with pytest.raises(ConfigurationError):
            PoissonArrivals(rate=1.0, pool=[], n_jobs=1)
        with pytest.raises(Exception):
            PoissonArrivals(rate=1.0, pool=["no-such-benchmark"], n_jobs=1)

    def test_diurnal_rate_profile_and_determinism(self):
        process = DiurnalBurstArrivals(
            base_rate=1.0, peak_rate=5.0, pool=POOL, n_jobs=300,
            period=1000.0, burst_factor=2.0, burst_period=100.0,
            burst_duty=0.2, seed=3,
        )
        assert process.rate_at(0.0) == pytest.approx(2.0)  # trough, burst
        assert process.rate_at(520.0) == pytest.approx(5.0, rel=1e-2)
        assert process.envelope_rate == pytest.approx(10.0)
        first = list(process)
        assert first == list(process)
        assert len(first) == 300
        times = [t for t, _ in first]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_diurnal_validation(self):
        with pytest.raises(ConfigurationError):
            DiurnalBurstArrivals(
                base_rate=2.0, peak_rate=1.0, pool=POOL, n_jobs=1,
            )
        with pytest.raises(ConfigurationError):
            DiurnalBurstArrivals(
                base_rate=1.0, peak_rate=2.0, pool=POOL, n_jobs=1,
                burst_duty=0.0,
            )

    def test_trace_adapter(self):
        trace = JobTrace(events=[
            TraceEvent(submit_time=2.0, user="u", benchmark_name="stream"),
            TraceEvent(submit_time=1.0, user="u", benchmark_name="kmeans"),
        ])
        assert list(TraceArrivals(trace)) == [
            (1.0, "kmeans"), (2.0, "stream"),
        ]


# ----------------------------------------------------------------------
# engine behavior (cheap FCFS selectors)
# ----------------------------------------------------------------------
class TestFleetEngine:
    def test_validation(self):
        cluster = ClusterState.homogeneous(1)
        with pytest.raises(SchedulingError):
            FleetEngine(cluster, fcfs_selector(), window_size=0)
        with pytest.raises(SchedulingError):
            FleetEngine(cluster, fcfs_selector(), min_batch=0)
        with pytest.raises(SchedulingError):
            FleetEngine(cluster, fcfs_selector(), max_retries=-1)
        engine = FleetEngine(cluster, fcfs_selector())
        with pytest.raises(SchedulingError):
            engine.submit(Job.submit("stream"), at=-1.0)
        with pytest.raises(SchedulingError):
            engine.schedule_fault("no-such-node", at=0.0, duration=1.0)
        with pytest.raises(SchedulingError):
            engine.schedule_checkpoints(0.0)

    def test_drains_everything_submitted(self):
        engine = FleetEngine(
            ClusterState.homogeneous(2), fcfs_selector(),
            window_size=3, keep_history=True,
        )
        engine.submit_queue(JobQueue.from_benchmarks(POOL * 2))
        result = engine.run()
        assert result.stats.submitted == 8
        assert result.stats.completed == 8
        assert result.stats.failed == 0
        assert engine.pending_depth == 0
        assert result.makespan > 0.0
        assert sum(r.window_size for r in result.history) == 8
        summary = engine.summary()
        assert summary["completed"] == 8
        assert summary["nodes"] == 2
        assert summary["utilization"] == pytest.approx(result.utilization)

    def test_min_batch_relaxes_when_arrivals_are_exhausted(self):
        # 2 jobs never reach min_batch=4; the drain still finishes them
        engine = FleetEngine(
            ClusterState.homogeneous(1), fcfs_selector(), min_batch=4,
        )
        engine.submit(Job.submit("stream"))
        engine.submit(Job.submit("kmeans"))
        result = engine.run()
        assert result.stats.completed == 2

    def test_run_until_horizon_leaves_future_events(self):
        engine = FleetEngine(ClusterState.homogeneous(1), fcfs_selector())
        engine.submit(Job.submit("stream"), at=5.0)
        partial = engine.run(until=1.0)
        assert partial.stats.completed == 0
        assert len(engine.events) == 1
        assert engine.run().stats.completed == 1

    def test_wait_accounting(self):
        engine = FleetEngine(
            ClusterState.homogeneous(1), fcfs_selector(), window_size=1,
        )
        engine.submit(Job.submit("stream"), at=0.0)
        engine.submit(Job.submit("stream"), at=0.0)
        result = engine.run()
        # second job waited for the first window; means are positive
        assert result.stats.wait_max > 0.0
        assert result.stats.mean_turnaround >= result.stats.mean_wait > 0.0

    def test_outage_delays_dispatch_on_idle_node(self):
        engine = FleetEngine(
            ClusterState.homogeneous(1), fcfs_selector(), keep_history=True,
        )
        engine.schedule_fault("gpu00", at=0.0, duration=50.0)
        engine.submit(Job.submit("stream"), at=10.0)
        result = engine.run()
        assert result.stats.outages == 1
        assert result.stats.completed == 1
        assert result.history[0].start_time == pytest.approx(50.0)

    def test_outage_on_busy_node_extends_availability(self):
        engine = FleetEngine(
            ClusterState.homogeneous(1), fcfs_selector(),
            window_size=1, keep_history=True,
        )
        engine.submit(Job.submit("stream"), at=0.0)
        engine.submit(Job.submit("kmeans"), at=0.0)
        first_end = None
        # dry-run once to learn the first window's end time
        probe = FleetEngine(
            ClusterState.homogeneous(1), fcfs_selector(),
            window_size=1, keep_history=True,
        )
        probe.submit(Job.submit("stream"), at=0.0)
        first_end = probe.run().history[0].end_time
        engine.schedule_reconfig("gpu00", at=first_end / 2.0, duration=25.0)
        result = engine.run()
        assert result.stats.reconfigs == 1
        # the in-flight window is not preempted; the repair pause lands
        # after it, so the second window starts at end + duration
        assert result.history[1].start_time == pytest.approx(first_end + 25.0)

    def test_checkpoints_snapshot_and_stop_rearming(self):
        engine = FleetEngine(ClusterState.homogeneous(2), fcfs_selector())
        engine.submit_queue(JobQueue.from_benchmarks(POOL * 3))
        engine.schedule_checkpoints(5.0)
        result = engine.run()  # must terminate: re-arm stops when idle
        assert result.stats.checkpoints == len(result.snapshots) > 0
        times = [s.time for s in result.snapshots]
        assert times == sorted(times)
        assert result.snapshots[-1].completed <= result.stats.completed

    def test_bounded_queue_backpressure(self):
        engine = FleetEngine(
            ClusterState.homogeneous(1), fcfs_selector(),
            admission=BoundedQueue(max_pending=3),
        )
        engine.attach_arrivals(
            PoissonArrivals(rate=100.0, pool=POOL, n_jobs=50, seed=2)
        )
        result = engine.run()
        stats = result.stats
        assert stats.submitted == 50
        assert stats.rejected > 0
        assert stats.admitted + stats.rejected == stats.submitted
        assert stats.completed == stats.admitted

    def test_token_bucket_smooths_admissions(self):
        engine = FleetEngine(
            ClusterState.homogeneous(1), fcfs_selector(),
            admission=TokenBucket(rate=0.01, burst=5.0),
        )
        engine.attach_arrivals(
            PoissonArrivals(rate=100.0, pool=POOL, n_jobs=40, seed=4)
        )
        stats = engine.run().stats
        assert stats.rejected > 0
        assert stats.admitted >= 5  # at least the burst budget

    def test_multiple_arrival_sources_interleave(self):
        engine = FleetEngine(ClusterState.homogeneous(2), fcfs_selector())
        engine.attach_arrivals(
            PoissonArrivals(rate=5.0, pool=POOL[:2], n_jobs=10, seed=1)
        )
        engine.attach_arrivals(
            PoissonArrivals(rate=5.0, pool=POOL[2:], n_jobs=10, seed=2)
        )
        assert engine.run().stats.completed == 20

    def test_large_clock_offset_run(self):
        engine = FleetEngine(
            ClusterState.homogeneous(2), fcfs_selector(),
            start=LARGE_OFFSET, keep_history=True,
        )
        for name in POOL * 2:
            engine.submit(Job.submit(name), at=LARGE_OFFSET)
        result = engine.run()
        assert result.stats.completed == 8
        assert all(r.start_time >= LARGE_OFFSET for r in result.history)
        assert result.makespan > LARGE_OFFSET
        assert result.stats.wait_max < 1e4  # sane at this magnitude


# ----------------------------------------------------------------------
# faults: requeue-at-crash-time, terminal states, fast-vs-exact
# ----------------------------------------------------------------------
class TestFleetFaults:
    def make_engine(self, exact: bool, seed: int = 3, **kwargs):
        injector = FaultInjector(FaultConfig(seed=seed, **HEAVY_FAULTS))
        return FleetEngine(
            ClusterState.homogeneous(2), fcfs_selector(),
            faults=injector, exact_execution=exact, keep_history=True,
            **kwargs,
        )

    def test_every_job_reaches_a_terminal_state(self):
        engine = self.make_engine(exact=False)
        for name in POOL * 6:
            engine.submit(Job.submit(name))
        stats = engine.run().stats
        assert stats.completed + stats.failed == 24
        assert stats.requeues > 0

    def test_fast_replay_matches_exact_executor_bitwise(self):
        runs = []
        for exact in (False, True):
            engine = self.make_engine(exact=exact)
            for name in POOL * 6:
                engine.submit(Job.submit(name))
            runs.append(engine.run())
        fast, ref = runs
        assert fast.history == ref.history  # float-for-float
        assert fast.stats.to_dict() == ref.stats.to_dict()
        assert fast.makespan == ref.makespan

    def test_terminal_failure_after_retry_budget(self):
        injector = FaultInjector(
            FaultConfig(seed=1, job_failure_rate=1.0)
        )
        engine = FleetEngine(
            ClusterState.homogeneous(1), fcfs_selector(),
            faults=injector, max_retries=2,
        )
        engine.submit(Job.submit("stream"))
        stats = engine.run().stats
        assert stats.failed == 1
        assert stats.completed == 0
        assert stats.requeues == 2  # budget spent, then terminal

    def test_requeue_happens_at_crash_time_not_dispatch_time(self):
        injector = FaultInjector(
            FaultConfig(seed=1, job_failure_rate=1.0, crash_fraction=0.5)
        )
        engine = FleetEngine(
            ClusterState.homogeneous(1), fcfs_selector(),
            faults=injector, max_retries=1, keep_history=True,
        )
        engine.submit(Job.submit("stream"))
        result = engine.run()
        # the retry window starts no earlier than the crash happened
        assert len(result.history) == 2
        assert result.history[1].start_time >= result.history[0].start_time


# ----------------------------------------------------------------------
# accounting invariants under heavy faults (property tests)
# ----------------------------------------------------------------------
@st.composite
def fault_configs(draw):
    crash = draw(st.floats(min_value=0.0, max_value=0.5))
    return FaultConfig(
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        job_failure_rate=crash,
        transient_rate=draw(st.floats(min_value=0.0, max_value=0.4)),
        reconfig_failure_rate=draw(st.floats(min_value=0.0, max_value=0.4)),
        straggler_rate=draw(st.floats(min_value=0.0, max_value=1.0 - crash)),
    )


class TestAccountingInvariants:
    @settings(max_examples=12, deadline=None)
    @given(config=fault_configs(), offset=st.sampled_from([0.0, LARGE_OFFSET]))
    def test_batch_system_terminal_states(self, config, offset):
        """The old loop (rebased drain): every submission ends terminal,
        at t=0 and at a clock offset where the old epsilon nudge froze."""
        system = BatchSystem(
            ClusterState.homogeneous(2), fcfs_selector(),
            window_size=3, min_batch=2,
            faults=FaultInjector(config), max_retries=2,
        )
        if offset:
            system.tick(offset)
        # a lone job is held inside the engine by min_batch: cancel it
        held = system.sbatch(POOL[0])
        assert system.tick(system.now) == 0
        system.scancel(held)
        ids = [system.sbatch(name) for name in POOL * 3]
        system.scancel(ids[0])  # still a submission in the event heap
        system.drain()
        states = {r.state for r in system.squeue()}
        assert states <= {
            JobState.COMPLETED, JobState.FAILED, JobState.CANCELLED,
        }
        acct = system.sacct()
        assert acct["cancelled"] == 2
        assert acct["completed"] + acct["failed"] + acct["cancelled"] == 13
        # the engine counts the held job; the other was never admitted
        stats = system.engine.stats
        assert stats.cancelled == 1
        assert stats.admitted == stats.completed + stats.failed + stats.cancelled
        assert (stats.completed, stats.failed) == (acct["completed"], acct["failed"])
        assert_busy_fits_and_starts_ordered(system.cluster, system.history)

    @settings(max_examples=12, deadline=None)
    @given(config=fault_configs(), offset=st.sampled_from([0.0, LARGE_OFFSET]))
    def test_fleet_engine_terminal_states(self, config, offset):
        """The event engine: same invariant, same clock offsets."""
        engine = FleetEngine(
            ClusterState.homogeneous(2), fcfs_selector(),
            window_size=3, faults=FaultInjector(config), max_retries=2,
            start=offset, keep_history=True,
        )
        for name in POOL * 3:
            engine.submit(Job.submit(name), at=offset)
        result = engine.run()
        stats = result.stats
        assert stats.completed + stats.failed == 12
        assert stats.cancelled == 0
        assert engine.pending_depth == 0
        assert len(engine.events) == 0
        assert_busy_fits_and_starts_ordered(engine.cluster, result.history)


# ----------------------------------------------------------------------
# bitwise identity with the reference dispatch loop
# ----------------------------------------------------------------------
def reference_run(selector, jobs, offset):
    """``reference_dispatch`` over 3 GPUs whose clocks start at ``offset``."""
    cluster = ClusterState.homogeneous(3)
    for node in cluster.nodes:
        node.device.clock = offset
    records, schedules = reference_dispatch(cluster, selector, 6, jobs)
    return records, schedules, cluster.makespan


class TestDispatchIdentity:
    """Fault-free identity with :func:`reference_dispatch` (the test
    names keep the loops the reference was transcribed from)."""

    @pytest.mark.parametrize("crowding_threshold", [1, 4])
    def test_matches_cluster_scheduler(
        self, selector_factory, crowding_threshold
    ):
        jobs = [Job.submit(name) for name in backlog_names(8)]
        for offset in (0.0, LARGE_OFFSET):
            records, schedules, makespan = reference_run(
                selector_factory(crowding_threshold), jobs, offset
            )
            engine = FleetEngine(
                ClusterState.homogeneous(3),
                selector_factory(crowding_threshold),
                window_size=6, start=offset, keep_history=True,
            )
            for job in jobs:
                engine.submit(job, at=offset)
            result = engine.run()

            assert result.history == records  # float-for-float
            assert [schedule_fingerprint(s) for s in result.schedules] == [
                schedule_fingerprint(s) for s in schedules
            ]
            assert result.makespan == makespan

    @pytest.mark.parametrize("offset", [0.0, LARGE_OFFSET])
    def test_matches_batch_system_drain(self, selector_factory, offset):
        names = backlog_names(8)
        for crowding_threshold in (1, 4):
            system = BatchSystem(
                ClusterState.homogeneous(3), selector_factory(crowding_threshold),
                window_size=6, min_batch=2,
            )
            if offset:
                system.tick(offset)
            for name in names:
                system.sbatch(name)
            system.drain()

            jobs = [r.job for r in system.squeue()]
            records, _, makespan = reference_run(
                selector_factory(crowding_threshold), jobs, offset
            )
            assert system.history == records  # float-for-float
            assert system.cluster.makespan == makespan
            assert system.sacct()["completed"] == len(names)

    def test_faulty_runs_stay_identical_across_executors(
        self, selector_factory
    ):
        names = backlog_names(6)
        histories = []
        for exact in (False, True):
            injector = FaultInjector(FaultConfig(seed=11, **HEAVY_FAULTS))
            engine = FleetEngine(
                ClusterState.homogeneous(3), selector_factory(1),
                window_size=6, faults=injector,
                exact_execution=exact, keep_history=True,
            )
            for name in names:
                engine.submit(Job.submit(name))
            histories.append(engine.run().history)
        assert histories[0] == histories[1]
