"""A Slurm-like batch-system facade over the fleet engine.

The paper's stated integration target is "an existing HPC cluster
management tool such as Slurm" (Sections VI/VII). This module provides
that integration surface: a miniature batch system with the familiar
verbs —

* :meth:`BatchSystem.sbatch` — submit a job (returns a job id),
* :meth:`BatchSystem.squeue` — pending/running/completed job states,
* :meth:`BatchSystem.sinfo` — per-GPU node states,
* :meth:`BatchSystem.scancel` — withdraw a pending job,
* :meth:`BatchSystem.tick` — advance simulated wall-clock time,
  dispatching windows to free GPUs under the configured policy
  selector (co-scheduling when crowded, FCFS otherwise),
* :meth:`BatchSystem.sacct` — accounting over finished jobs.

Every verb drives one :class:`~repro.cluster.fleet.FleetEngine`, so
dispatch, fault tolerance (retry with backoff, degraded solo runs,
crash requeues up to ``max_retries`` before the terminal ``FAILED``
state, FCFS fallback when a policy raises) and telemetry are the
engine's. The engine runs the exact MIG/MPS device state machines, so
traces carry per-device ``run_group`` spans. Per-job records come from
:class:`_JobRecorder`, a pure observer on the engine's ``lifecycle=``
hook.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass

from repro.clock import time_le
from repro.errors import SchedulingError
from repro.faults import FaultInjector, RetryPolicy
from repro.obs.trace import LifecycleHooks
from repro.telemetry.facade import NULL_TELEMETRY, Telemetry
from repro.cluster.fleet import FleetEngine
from repro.cluster.node import ClusterState
from repro.cluster.policy import PolicySelector
from repro.workloads.jobs import Job

__all__ = ["JobState", "BatchJob", "BatchSystem"]


class JobState(enum.Enum):
    PENDING = "PD"
    RUNNING = "R"
    COMPLETED = "CD"
    FAILED = "F"
    CANCELLED = "CA"


@dataclass
class BatchJob:
    """Accounting record for one submission."""

    job: Job
    submit_time: float
    state: JobState = JobState.PENDING
    node: str | None = None
    start_time: float | None = None
    end_time: float | None = None
    retries: int = 0  # times this job was re-queued after a crash

    @property
    def wait_time(self) -> float | None:
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def turnaround(self) -> float | None:
        if self.end_time is None:
            return None
        return self.end_time - self.submit_time


class _JobRecorder(LifecycleHooks):
    """Keeps :class:`BatchJob` records in step with the engine.

    The engine settles every attempt when it dispatches the window, so
    each attempt's outcome is known before it happens. A dispatched job
    is ``RUNNING``; its outcome (``COMPLETED``, ``FAILED``, or back to
    ``PENDING`` after a crash) waits on a time heap until
    :meth:`settle` passes the attempt's finish or crash time.
    """

    def __init__(self, records: dict[str, BatchJob]):
        self.records = records
        self.outcomes: list[tuple[float, str, JobState]] = []  # (time, job id, state)

    def attempt(
        self, job, start, finish, node_name, policy, fell_back, crashed,
        window_size, window_seen, cache_hits=None,
    ) -> None:
        self.settle(start)  # a re-dispatch follows the crash that re-queued it
        record = self.records[job.job_id]
        record.state = JobState.RUNNING
        record.node = node_name
        record.start_time = start
        record.end_time = finish

    def requeued(self, job, t: float) -> None:
        heapq.heappush(self.outcomes, (t, job.job_id, JobState.PENDING))

    def completed(self, job, t: float, wait: float) -> None:
        heapq.heappush(self.outcomes, (t, job.job_id, JobState.COMPLETED))

    def failed(self, job, t: float) -> None:
        heapq.heappush(self.outcomes, (t, job.job_id, JobState.FAILED))

    def settle(self, now: float) -> None:
        """Apply every attempt outcome due by ``now``."""
        outcomes = self.outcomes
        while outcomes and time_le(outcomes[0][0], now):
            _, job_id, state = heapq.heappop(outcomes)
            record = self.records[job_id]
            if state is JobState.PENDING:
                record.retries += 1
                record.node = record.start_time = record.end_time = None
            record.state = state


class BatchSystem:
    """Miniature batch scheduler with a Slurm-shaped interface."""

    def __init__(
        self,
        cluster: ClusterState,
        selector: PolicySelector,
        window_size: int = 12,
        min_batch: int = 2,
        faults: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        max_retries: int = 3,
        telemetry: Telemetry = NULL_TELEMETRY,
    ):
        self.cluster = cluster
        self.telemetry = telemetry
        self._records: dict[str, BatchJob] = {}
        self._recorder = _JobRecorder(self._records)
        self.engine = FleetEngine(
            cluster,
            selector,
            window_size=window_size,
            min_batch=min_batch,
            faults=faults,
            retry=retry,
            max_retries=max_retries,
            telemetry=telemetry,
            exact_execution=True,
            keep_history=True,
            lifecycle=self._recorder,
        )
        self.history = self.engine.history  # one DispatchRecord per window

    @property
    def now(self) -> float:
        return self.engine.now

    # ------------------------------------------------------------------
    # user-facing verbs
    # ------------------------------------------------------------------
    def sbatch(self, benchmark_name: str, user: str = "hpcuser") -> str:
        """Submit one job; returns its job id."""
        job = Job.submit(benchmark_name, user=user)
        self._records[job.job_id] = BatchJob(job=job, submit_time=self.now)
        self.engine.submit(job)
        return job.job_id

    def squeue(self, state: JobState | None = None) -> list[BatchJob]:
        """Job records, optionally filtered by state, oldest first."""
        records = sorted(
            self._records.values(), key=lambda r: r.submit_time
        )
        if state is None:
            return records
        return [r for r in records if r.state == state]

    def sinfo(self) -> list[dict]:
        """Per-node view: name, busy-until, whether it is free now."""
        return [
            {
                "node": n.name,
                "busy_until": n.available_at,
                "free": time_le(n.available_at, self.now),
            }
            for n in self.cluster.nodes
        ]

    def scancel(self, job_id: str) -> None:
        """Cancel a pending job (running jobs cannot be preempted —
        MIG/MPS reconfiguration requires an idle device).

        The accounting record survives in the ``CANCELLED`` state so
        ``squeue``/``sacct`` keep a trace of the submission; cancelled
        jobs are excluded from the wait/turnaround means.
        """
        record = self._records.get(job_id)
        if record is None:
            raise SchedulingError(f"unknown job id {job_id!r}")
        if record.state is not JobState.PENDING:
            raise SchedulingError(
                f"job {job_id} is {record.state.value}; only pending jobs "
                "can be cancelled"
            )
        self.engine.cancel(job_id)
        record.state = JobState.CANCELLED

    # ------------------------------------------------------------------
    # time advance / dispatch
    # ------------------------------------------------------------------
    def tick(self, until: float) -> int:
        """Advance the clock to ``until``, dispatching a window whenever
        a GPU frees and at least ``min_batch`` jobs are pending. Returns
        how many windows were dispatched."""
        if until < self.now:
            raise SchedulingError("time cannot run backwards")
        before = self.engine.stats.windows
        self.engine.advance_to(until)
        self._recorder.settle(self.now)
        return self.engine.stats.windows - before

    def drain(self) -> float:
        """Dispatch everything pending, the last partial window included,
        and return the final makespan.

        Terminates even under heavy fault injection: a job can only
        re-queue ``max_retries`` times before it is ``FAILED``.
        """
        self.engine.run()  # ends at the last completion
        self._recorder.settle(self.now)
        return self.cluster.makespan

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def sacct(self) -> dict:
        """Aggregate accounting over finished jobs.

        Wait/turnaround means cover completed jobs only; failed and
        cancelled submissions are counted but excluded from the means.
        With no completions yet, the dict comes back zero-filled
        (``completed == 0`` and zero means) instead of raising, so
        accounting is always queryable — callers that need to
        distinguish "nothing ran" check the count.
        """
        done = [r for r in self._records.values() if r.state is JobState.COMPLETED]
        waits = [r.wait_time for r in done] or [0.0]
        turns = [r.turnaround for r in done] or [0.0]
        states = [r.state for r in self._records.values()]
        stats = self.engine.stats
        return {
            "completed": len(done),
            "failed": states.count(JobState.FAILED),
            "cancelled": states.count(JobState.CANCELLED),
            "job_retries": sum(r.retries for r in self._records.values()),
            "dispatch_retries": stats.dispatch_retries,
            "fallback_windows": stats.fallback_windows,
            "degraded_groups": stats.degraded_groups,
            "mean_wait": sum(waits) / len(waits),
            "mean_turnaround": sum(turns) / len(turns),
            "makespan": self.cluster.makespan,
        }

