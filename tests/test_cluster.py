"""Unit tests for the Section VI cluster extension."""

import pytest

from repro.errors import SchedulingError
from repro.cluster.node import ClusterState
from repro.cluster.policy import CoSchedulingPolicy, FcfsPolicy, PolicySelector
from repro.cluster.fleet import FleetEngine
from repro.core.actions import ActionCatalog
from repro.core.optimizer import OnlineOptimizer
from repro.workloads.generator import MixCategory, QueueGenerator
from repro.workloads.jobs import JobQueue


@pytest.fixture(scope="module")
def small_optimizer(tiny_training):
    trainer, result = tiny_training
    from repro.core.evaluation import profile_all_benchmarks

    repo = result.repository.copy()  # leave the shared fixture pristine
    profile_all_benchmarks(repo)
    return OnlineOptimizer(
        result.agent,
        repo,
        ActionCatalog(c_max=trainer.c_max),
        trainer.window_size,
    )


def backlog(n_windows: int, w: int, seed: int = 5) -> JobQueue:
    gen = QueueGenerator(seed=seed, training_only=True)
    names = []
    for i in range(n_windows):
        names.extend(gen.queue(MixCategory.BALANCED, w=w).benchmark_names)
    return JobQueue.from_benchmarks(names)


def dispatch(cluster, selector, w, queue):
    """Drain ``queue`` through the fleet engine, keeping the dispatch log."""
    engine = FleetEngine(cluster, selector, window_size=w, keep_history=True)
    engine.submit_queue(queue)
    return engine.run()


class TestClusterState:
    def test_homogeneous_creation(self):
        c = ClusterState.homogeneous(3)
        assert len(c.nodes) == 3
        assert {n.name for n in c.nodes} == {"gpu00", "gpu01", "gpu02"}

    def test_needs_gpus(self):
        with pytest.raises(SchedulingError):
            ClusterState.homogeneous(0)

    def test_least_loaded_tracks_clocks(self):
        c = ClusterState.homogeneous(2)
        from repro.workloads.jobs import Job

        c.nodes[0].device.run_solo(Job.submit("stream"))
        assert c.least_loaded() is c.nodes[1]
        assert c.makespan == pytest.approx(c.nodes[0].available_at)

    def test_utilization_bounds(self):
        c = ClusterState.homogeneous(2)
        assert c.utilization() == 0.0
        from repro.workloads.jobs import Job

        for node in c.nodes:
            node.device.run_solo(Job.submit("kmeans"))
        assert 0.0 < c.utilization() <= 1.0


class TestPolicies:
    def test_fcfs_all_solo(self):
        q = backlog(1, 4)
        sched = FcfsPolicy().schedule(q.window(4))
        assert all(g.concurrency == 1 for g in sched.groups)
        assert sched.throughput_gain == pytest.approx(1.0)

    def test_selector_switches_on_crowding(self, small_optimizer):
        sel = PolicySelector(
            co_scheduling=CoSchedulingPolicy(small_optimizer),
            fcfs=FcfsPolicy(),
            crowding_threshold=4,
        )
        assert sel.select(queue_depth=2, free_gpus=1) is sel.fcfs
        assert sel.select(queue_depth=12, free_gpus=1) is sel.co_scheduling
        with pytest.raises(SchedulingError):
            sel.select(queue_depth=2, free_gpus=0)

    def test_co_scheduling_policy_wraps_optimizer(self, small_optimizer, tiny_training):
        trainer, _ = tiny_training
        q = backlog(1, trainer.window_size)
        sched = CoSchedulingPolicy(small_optimizer).schedule(
            q.window(trainer.window_size)
        )
        assert sched.throughput_gain >= 1.0 - 1e-9


class TestClusterScheduler:
    """The two-level dispatch loop (now :class:`FleetEngine`)."""

    def test_drains_queue_and_balances(self, small_optimizer, tiny_training):
        trainer, _ = tiny_training
        w = trainer.window_size
        sel = PolicySelector(
            co_scheduling=CoSchedulingPolicy(small_optimizer),
            fcfs=FcfsPolicy(),
            crowding_threshold=1,  # always co-schedule
        )
        cluster = ClusterState.homogeneous(2)
        result = dispatch(cluster, sel, w, backlog(4, w))
        records = result.history
        assert len(records) == 4
        nodes_used = {r.node_name for r in records}
        assert len(nodes_used) == 2  # both GPUs got work
        assert result.stats.windows == 4
        assert result.makespan == pytest.approx(cluster.makespan)
        mean_gain = sum(r.throughput_gain for r in records) / len(records)
        assert mean_gain >= 1.0 - 1e-9

    def test_partial_final_window(self, small_optimizer, tiny_training):
        trainer, _ = tiny_training
        w = trainer.window_size
        sel = PolicySelector(
            co_scheduling=CoSchedulingPolicy(small_optimizer),
            fcfs=FcfsPolicy(),
        )
        cluster = ClusterState.homogeneous(1)
        q = backlog(1, w)
        q.push(q.jobs[0])  # w + 1 jobs -> second window of size 1
        records = dispatch(cluster, sel, w, JobQueue(jobs=list(q.jobs))).history
        assert records[-1].window_size in (1, w)
        assert sum(r.window_size for r in records) == w + 1

    def test_fcfs_vs_coscheduling_makespan(self, small_optimizer, tiny_training):
        trainer, _ = tiny_training
        w = trainer.window_size
        co_sel = PolicySelector(
            co_scheduling=CoSchedulingPolicy(small_optimizer),
            fcfs=FcfsPolicy(),
            crowding_threshold=1,
        )
        fc_sel = PolicySelector(
            co_scheduling=CoSchedulingPolicy(small_optimizer),
            fcfs=FcfsPolicy(),
            crowding_threshold=10**9,
        )
        co = dispatch(ClusterState.homogeneous(2), co_sel, w, backlog(4, w, seed=9))
        fc = dispatch(ClusterState.homogeneous(2), fc_sel, w, backlog(4, w, seed=9))
        assert co.makespan <= fc.makespan + 1e-9
