"""Fault injection, retry/fallback scheduling, and checkpoint hardening.

The whole suite carries the ``faults`` marker (registered in
pyproject.toml) so it runs in tier-1 but can be deselected with
``-m 'not faults'``.
"""

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    ReconfigFaultError,
    ReproError,
    SchedulingError,
    TransientDeviceError,
)
from repro.faults import FaultConfig, FaultInjector, FaultKind, RetryPolicy
from repro.cluster import (
    BatchSystem,
    ClusterState,
    FleetEngine,
    FcfsPolicy,
    JobState,
    PolicySelector,
)
from repro.gpu.device import SimulatedGpu
from repro.gpu.partition import parse_partition
from repro.workloads.jobs import Job, JobQueue

pytestmark = pytest.mark.faults

PROGRAMS = [
    "stream", "kmeans", "lud_B", "lavaMD", "hotspot3D",
    "needle", "stream", "kmeans",
]

TERMINAL = {JobState.COMPLETED, JobState.FAILED, JobState.CANCELLED}


class RaisingPolicy:
    """Stands in for an RL optimizer that dies mid-window."""

    name = "raising"

    def schedule(self, window):
        raise SchedulingError("injected optimizer failure")


def fcfs_selector(co_scheduling=None, crowding=10**9) -> PolicySelector:
    return PolicySelector(
        co_scheduling=co_scheduling or RaisingPolicy(),
        fcfs=FcfsPolicy(),
        crowding_threshold=crowding,
    )


def make_batch(
    faults=None, max_retries=3, selector=None, n_gpus=2, window_size=6
) -> BatchSystem:
    return BatchSystem(
        cluster=ClusterState.homogeneous(n_gpus),
        selector=selector or fcfs_selector(),
        window_size=window_size,
        min_batch=1,
        faults=faults,
        max_retries=max_retries,
    )


class TestInjectorDeterminism:
    def test_same_seed_same_decisions(self):
        a = FaultInjector(FaultConfig.uniform(0.3, seed=42))
        b = FaultInjector(FaultConfig.uniform(0.3, seed=42))
        assert [a.job_fault("stream") for _ in range(200)] == [
            b.job_fault("stream") for _ in range(200)
        ]
        assert [a.straggler_factor("kmeans") for _ in range(50)] == [
            b.straggler_factor("kmeans") for _ in range(50)
        ]

    def test_different_seed_differs(self):
        a = FaultInjector(FaultConfig.uniform(0.5, seed=1))
        b = FaultInjector(FaultConfig.uniform(0.5, seed=2))
        assert [a.job_fault("stream") for _ in range(200)] != [
            b.job_fault("stream") for _ in range(200)
        ]

    def test_keys_are_independent_streams(self):
        """Draws for one key must not shift when other keys interleave."""
        a = FaultInjector(FaultConfig.uniform(0.4, seed=3))
        b = FaultInjector(FaultConfig.uniform(0.4, seed=3))
        plain = [a.job_fault("stream") for _ in range(20)]
        interleaved = []
        for _ in range(20):
            b.reconfig_fails("[{1.0}]")
            interleaved.append(b.job_fault("stream"))
            b.launch_hits_transient("kmeans+stream")
        assert plain == interleaved

    def test_rate_extremes(self):
        never = FaultInjector(FaultConfig())  # all-zero rates
        assert not never.enabled
        assert all(never.job_fault("stream") is None for _ in range(50))
        always = FaultInjector(FaultConfig(job_failure_rate=1.0))
        assert all(
            always.job_fault("stream") is FaultKind.JOB_FAILURE
            for _ in range(50)
        )

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(job_failure_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultConfig(job_failure_rate=0.7, straggler_rate=0.7)
        with pytest.raises(ConfigurationError):
            FaultConfig(straggler_slowdown=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)

    def test_backoff_grows_exponentially(self):
        r = RetryPolicy(backoff_base=0.5, backoff_factor=2.0)
        assert [r.backoff(1), r.backoff(2), r.backoff(3)] == [0.5, 1.0, 2.0]


class TestDeviceFaults:
    def test_transient_error_leaves_device_untouched(self):
        dev = SimulatedGpu(
            faults=FaultInjector(FaultConfig(transient_rate=1.0))
        )
        with pytest.raises(TransientDeviceError):
            dev.run_solo(Job.submit("stream"))
        assert dev.clock == 0.0
        assert dev.busy_time == 0.0
        assert dev.history == []

    def test_reconfig_fault_only_for_mig_trees(self):
        dev = SimulatedGpu(
            faults=FaultInjector(FaultConfig(reconfig_failure_rate=1.0))
        )
        jobs = [Job.submit("stream"), Job.submit("kmeans")]
        with pytest.raises(ReconfigFaultError):
            dev.run_group(jobs, parse_partition("[{0.375},0.5m]+[{0.5},0.5m]"))
        # MPS-only (no MIG repartitioning) stays configurable
        dev.run_group(jobs, parse_partition("[(0.5)+(0.5),1m]"))

    def test_crashed_job_reports_failed_launch(self):
        dev = SimulatedGpu(
            faults=FaultInjector(FaultConfig(job_failure_rate=1.0))
        )
        launch = dev.run_solo(Job.submit("stream"))
        assert launch.failed
        baseline = SimulatedGpu().run_solo(Job.submit("stream"))
        assert launch.elapsed == pytest.approx(0.5 * baseline.elapsed)

    def test_straggler_stretches_elapsed(self):
        dev = SimulatedGpu(
            faults=FaultInjector(
                FaultConfig(straggler_rate=1.0, straggler_slowdown=3.0)
            )
        )
        launch = dev.run_solo(Job.submit("stream"))
        baseline = SimulatedGpu().run_solo(Job.submit("stream"))
        assert baseline.elapsed < launch.elapsed <= 3.0 * baseline.elapsed
        assert not launch.failed

    def test_busy_time_ignores_clock_jumps(self):
        dev = SimulatedGpu()
        dev.clock = 50.0  # idle gap, as the batch system models it
        launch = dev.run_solo(Job.submit("stream"))
        assert dev.busy_time == pytest.approx(launch.elapsed)
        assert dev.clock == pytest.approx(50.0 + launch.elapsed)


class TestUtilizationAccounting:
    def test_idle_gap_not_counted_as_busy(self):
        """Regression: a node whose clock was jumped over an idle gap
        used to report the gap as busy time (utilization == 1)."""
        cluster = ClusterState.homogeneous(1)
        node = cluster.nodes[0]
        node.device.clock = 50.0
        launch = node.device.run_solo(Job.submit("stream"))
        t = launch.elapsed
        assert cluster.utilization() == pytest.approx(t / (50.0 + t))

    def test_idle_node_halves_utilization(self):
        cluster = ClusterState.homogeneous(2)
        cluster.nodes[0].device.run_solo(Job.submit("stream"))
        # second node deliberately idle
        assert cluster.utilization() == pytest.approx(0.5)

    def test_batch_system_utilization_stays_below_one_with_gaps(self):
        bs = make_batch()
        bs.tick(100.0)  # nothing submitted: pure idle time
        for p in PROGRAMS[:4]:
            bs.sbatch(p)
        bs.drain()
        busy = sum(n.busy_time for n in bs.cluster.nodes)
        span = bs.cluster.makespan
        assert span > 100.0
        assert bs.cluster.utilization() == pytest.approx(
            busy / (span * len(bs.cluster.nodes))
        )
        assert bs.cluster.utilization() < 0.9


class TestScancelAccounting:
    def test_cancelled_record_survives(self):
        bs = make_batch()
        jid = bs.sbatch("stream")
        bs.scancel(jid)
        records = bs.squeue()
        assert len(records) == 1
        assert records[0].state is JobState.CANCELLED
        with pytest.raises(SchedulingError):
            bs.scancel(jid)  # no longer pending

    def test_cancelled_excluded_from_means(self):
        bs = make_batch()
        for p in PROGRAMS[:4]:
            bs.sbatch(p)
        victim = bs.sbatch("lud_B")
        bs.scancel(victim)
        bs.drain()
        acct = bs.sacct()
        assert acct["completed"] == 4
        assert acct["cancelled"] == 1
        # means come from the four completed jobs only
        done = bs.squeue(JobState.COMPLETED)
        assert acct["mean_turnaround"] == pytest.approx(
            sum(r.turnaround for r in done) / len(done)
        )


class TestFaultTolerantDrain:
    def drain_once(self, seed=11, rate=0.2, max_retries=2):
        inj = FaultInjector(FaultConfig.uniform(rate, seed=seed))
        bs = make_batch(faults=inj, max_retries=max_retries)
        for p in PROGRAMS:
            bs.sbatch(p)
        bs.drain()
        return bs, inj

    def test_no_job_lost_under_faults(self):
        bs, inj = self.drain_once()
        records = bs.squeue()
        assert len(records) == len(PROGRAMS)
        assert {r.state for r in records} <= TERMINAL
        acct = bs.sacct()
        assert acct["completed"] + acct["failed"] == len(PROGRAMS)
        assert sum(inj.counts.values()) > 0  # faults actually fired

    def test_bit_reproducible_for_fixed_seed(self):
        first, _ = self.drain_once(seed=11)
        second, _ = self.drain_once(seed=11)
        assert first.sacct() == second.sacct()
        assert [r.state for r in first.squeue()] == [
            r.state for r in second.squeue()
        ]
        assert [r.end_time for r in first.squeue()] == [
            r.end_time for r in second.squeue()
        ]

    def test_zero_rate_injector_matches_no_injector(self):
        """Disabled fault injection is bitwise-identical to no injector."""
        plain = make_batch()
        zeroed = make_batch(faults=FaultInjector(FaultConfig(seed=5)))
        for bs in (plain, zeroed):
            for p in PROGRAMS:
                bs.sbatch(p)
            bs.drain()
        keys = ("completed", "mean_wait", "mean_turnaround", "makespan")
        a, b = plain.sacct(), zeroed.sacct()
        assert all(a[k] == b[k] for k in keys)
        assert [r.end_time for r in plain.squeue()] == [
            r.end_time for r in zeroed.squeue()
        ]

    def test_retry_cap_lands_in_failed(self):
        inj = FaultInjector(FaultConfig(job_failure_rate=1.0, seed=0))
        bs = make_batch(faults=inj, max_retries=2)
        for p in PROGRAMS[:3]:
            bs.sbatch(p)
        bs.tick(bs.now)  # dispatch: each job runs until it crashes
        records = bs.squeue()
        assert all(r.state is JobState.RUNNING for r in records)
        assert all(r.retries == 0 for r in records)
        bs.tick(min(r.end_time for r in records))  # only the first crash
        assert sum(r.retries for r in bs.squeue()) == 1
        bs.drain()  # must terminate despite 100% crash rate
        records = bs.squeue()
        assert all(r.state is JobState.FAILED for r in records)
        assert all(r.retries == 2 for r in records)
        acct = bs.sacct()  # nothing completed -> zero-filled, not raising
        assert acct["completed"] == 0
        assert acct["failed"] == 3
        assert acct["mean_turnaround"] == 0.0

    def test_transient_faults_retried_with_backoff(self):
        inj = FaultInjector(
            FaultConfig(transient_rate=0.5, seed=3)
        )
        bs = make_batch(faults=inj, max_retries=3)
        for p in PROGRAMS:
            bs.sbatch(p)
        bs.drain()
        assert {r.state for r in bs.squeue()} <= TERMINAL
        assert bs.sacct()["dispatch_retries"] > 0

    def test_optimizer_failure_falls_back_to_fcfs(self):
        # crowding_threshold=0-ish: always pick the (raising) co-policy
        selector = fcfs_selector(co_scheduling=RaisingPolicy(), crowding=1)
        bs = make_batch(selector=selector)
        for p in PROGRAMS:
            bs.sbatch(p)
        bs.drain()
        acct = bs.sacct()
        assert acct["fallback_windows"] > 0
        assert acct["completed"] == len(PROGRAMS)
        assert {r.state for r in bs.squeue()} == {JobState.COMPLETED}


class TestClusterSchedulerFaults:
    """Failure handling of the two-level dispatch loop (now
    :class:`FleetEngine`)."""

    def run_queue(self, **kwargs):
        engine = FleetEngine(
            ClusterState.homogeneous(2),
            fcfs_selector(**{
                k: kwargs.pop(k) for k in ("co_scheduling", "crowding")
                if k in kwargs
            }),
            window_size=4,
            keep_history=True,
            **kwargs,
        )
        engine.submit_queue(JobQueue.from_benchmarks(list(PROGRAMS)))
        result = engine.run()
        return result.stats, result.history

    def test_fallback_recorded(self):
        stats, records = self.run_queue(co_scheduling=RaisingPolicy(), crowding=1)
        assert all(r.fell_back for r in records)
        assert all(r.policy_name == "FCFS" for r in records)
        assert stats.fallback_windows == len(records)

    def test_failed_jobs_requeue_then_surface(self):
        inj = FaultInjector(FaultConfig(job_failure_rate=1.0, seed=1))
        stats, records = self.run_queue(faults=inj, max_retries=1)
        # every job crashed on every attempt: all end failed
        assert stats.failed == len(PROGRAMS)
        assert stats.completed == 0
        # each job got exactly 1 + max_retries attempts
        total_attempts = sum(r.window_size for r in records)
        assert total_attempts == len(PROGRAMS) * 2

    def test_no_faults_records_are_clean(self):
        stats, records = self.run_queue()
        assert all(
            r.retries == 0 and not r.fell_back and r.n_failed == 0
            for r in records
        )
        assert stats.dispatch_retries == 0
        assert stats.failed == 0


class TestCheckpointHardening:
    @staticmethod
    def small_agent():
        from repro.rl.dqn import DQNConfig, DuelingDoubleDQNAgent

        return DuelingDoubleDQNAgent(
            DQNConfig(n_inputs=6, n_actions=4, hidden=(16, 8))
        )

    def test_truncated_checkpoint_rejected(self, tmp_path):
        from repro.rl.checkpoint import load_agent, save_agent

        path = tmp_path / "agent.npz"
        save_agent(self.small_agent(), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ConfigurationError, match="truncated or corrupt"):
            load_agent(path)

    def test_garbage_file_rejected(self, tmp_path):
        from repro.rl.checkpoint import load_agent

        path = tmp_path / "agent.npz"
        path.write_bytes(b"this is not an npz archive")
        with pytest.raises(ConfigurationError, match="truncated or corrupt"):
            load_agent(path)

    def test_missing_file_still_file_not_found(self, tmp_path):
        from repro.rl.checkpoint import load_agent

        with pytest.raises(FileNotFoundError):
            load_agent(tmp_path / "nope.npz")

    def test_interrupted_save_preserves_previous(self, tmp_path, monkeypatch):
        from repro.rl import checkpoint

        path = tmp_path / "agent.npz"
        agent = self.small_agent()
        checkpoint.save_agent(agent, path)
        before = path.read_bytes()

        def exploding_savez(file, **tensors):
            file.write(b"partial garbage")
            raise OSError("disk full")

        monkeypatch.setattr(checkpoint.np, "savez_compressed", exploding_savez)
        with pytest.raises(OSError):
            checkpoint.save_agent(self.small_agent(), path)
        assert path.read_bytes() == before  # old checkpoint intact
        assert list(tmp_path.glob("*.tmp")) == []  # no debris
        restored = checkpoint.load_agent(path)
        x = np.zeros(6)
        assert np.allclose(restored.q_values(x), agent.q_values(x))

    def test_interrupted_first_save_leaves_nothing(self, tmp_path, monkeypatch):
        from repro.rl import checkpoint

        path = tmp_path / "agent.npz"

        def exploding_savez(file, **tensors):
            file.write(b"partial garbage")
            raise OSError("disk full")

        monkeypatch.setattr(checkpoint.np, "savez_compressed", exploding_savez)
        with pytest.raises(OSError):
            checkpoint.save_agent(self.small_agent(), path)
        assert not path.exists()
        assert list(tmp_path.glob("*")) == []

    def test_use_double_mismatch_rejected(self, tmp_path):
        from repro.rl.checkpoint import load_agent, save_agent
        from repro.rl.dqn import DQNConfig

        path = tmp_path / "agent.npz"
        save_agent(self.small_agent(), path)
        wrong = DQNConfig(
            n_inputs=6, n_actions=4, hidden=(16, 8), use_double=False
        )
        with pytest.raises(ConfigurationError, match="use_double"):
            load_agent(path, config=wrong)

    def test_gamma_mismatch_rejected(self, tmp_path):
        from repro.rl.checkpoint import load_agent, save_agent
        from repro.rl.dqn import DQNConfig

        path = tmp_path / "agent.npz"
        save_agent(self.small_agent(), path)
        wrong = DQNConfig(n_inputs=6, n_actions=4, hidden=(16, 8), gamma=0.5)
        with pytest.raises(ConfigurationError, match="gamma"):
            load_agent(path, config=wrong)


def _corruptions(data: bytes, stride: int):
    """Truncations and single-bit flips (bits 0 and 7) at every
    ``stride``-th byte of a zip archive, and flips at every byte of its
    first central-directory record, whose flag and compression-method
    fields zipfile trusts."""
    for n in range(0, len(data), stride):
        yield data[:n]
    directory = data.index(b"PK\x01\x02")
    offsets = sorted({*range(0, len(data), stride), *range(directory, directory + 46)})
    for i in offsets:
        for bit in (0, 7):
            flipped = bytearray(data)
            flipped[i] ^= 1 << bit
            yield bytes(flipped)


def _tensors(agent) -> list:
    return agent.online.state_dict() + agent.target.state_dict()


def _same_weights(a: list, b: list) -> bool:
    return len(a) == len(b) and all(
        x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)
        for x, y in zip(a, b)
    )


class TestCheckpointFuzz:
    """A corrupt checkpoint either raises a ``ReproError`` or loads the
    original weights; no other exception and no silently changed
    weights."""

    @staticmethod
    def agent(n_inputs: int):
        from repro.rl.dqn import DQNConfig, DuelingDoubleDQNAgent

        return DuelingDoubleDQNAgent(
            DQNConfig(n_inputs=n_inputs, n_actions=4, hidden=(16, 8))
        )

    def test_load_agent(self, tmp_path):
        from repro.rl.checkpoint import load_agent, save_agent

        path = tmp_path / "agent.npz"
        agent = self.agent(8)
        save_agent(agent, path)
        original, clean = path.read_bytes(), _tensors(agent)
        outcomes = {"raised": 0, "loaded": 0}
        for corrupt in _corruptions(original, stride=47):
            path.write_bytes(corrupt)
            try:
                restored = load_agent(path)
            except ReproError:
                outcomes["raised"] += 1
                continue
            assert _same_weights(_tensors(restored), clean)
            outcomes["loaded"] += 1
        assert outcomes["raised"] > outcomes["loaded"] > 0

    def test_load_joint(self, tmp_path):
        from repro.hierarchy.trainer import (
            NODE_CHECKPOINT,
            PLACEMENT_CHECKPOINT,
            load_joint,
        )
        from repro.rl.checkpoint import save_agent

        agents = {PLACEMENT_CHECKPOINT: self.agent(8), NODE_CHECKPOINT: self.agent(6)}
        for name, agent in agents.items():
            save_agent(agent, tmp_path / name)
        originals = {name: (tmp_path / name).read_bytes() for name in agents}
        for name, original in originals.items():
            for corrupt in _corruptions(original, stride=151):
                (tmp_path / name).write_bytes(corrupt)
                try:
                    placement, node = load_joint(tmp_path)
                except ReproError:
                    continue
                assert _same_weights(
                    _tensors(placement), _tensors(agents[PLACEMENT_CHECKPOINT])
                )
                assert _same_weights(_tensors(node), _tensors(agents[NODE_CHECKPOINT]))
            (tmp_path / name).write_bytes(original)


class TestCliCluster:
    def test_parser_accepts_fault_knobs(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["cluster", "Q3", "--faults", "0.2", "--fault-seed", "9",
             "--max-retries", "1", "--gpus", "3"]
        )
        assert args.queue == "Q3"
        assert args.faults == pytest.approx(0.2)
        assert args.fault_seed == 9

    def test_cluster_command_runs_with_faults(self, capsys):
        from repro.cli import main

        rc = main(
            ["cluster", "Q1", "--window", "4", "--episodes", "5",
             "--gpus", "2", "--faults", "0.2", "--crowding", "1000000"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "job states" in out
        assert "injected faults" in out
        assert "dispatch_retries" in out
