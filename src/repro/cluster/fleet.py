"""Discrete-event fleet simulation core — the only dispatch loop.

The paper's two-level scheduler (Section VI) dispatches windows of the
global queue to GPUs as they free up; the node-local RL optimizer (or
FCFS under light load) schedules each window. This module runs that
loop on a priority-queue **event heap** over the simulated clock, so the
same semantics scale from a handful of GPUs to the
reconfigurable-machine-scheduling setting of Tan et al. (serving on
partitionable MIG accelerators) at thousands of nodes and millions of
arrivals. The heap carries

* **job arrivals** (closed submissions or open-loop
  :mod:`repro.workloads.arrivals` processes),
* **window completions** (a node's occupancy drains; the node rejoins
  the idle pool),
* **requeues** (a crashed job re-enters the queue *at its failure
  time*, not at dispatch time — the retired per-window loops
  re-queued it retroactively, a time-travel bug),
* **reconfigurations and faults** (planned repartition pauses and node
  outages that push a node's availability horizon),
* **checkpoints** (periodic statistics snapshots).

Time always jumps to the next event — there is no epsilon stepping, so
the engine keeps making progress at arbitrarily large simulated clocks
(see :func:`repro.clock.time_le` for the tolerance story).

Each dispatch round cuts one window per idle GPU, selects the
per-window policy by crowding, and schedules the whole round through
:meth:`PolicySelector.schedule_batch` — one batched serving pass
(lockstep inference plus the fleet-wide decision cache) per round.
Execution replays the already-simulated schedule via
:meth:`GpuNode.execute_schedule_fast` (bitwise-identical outcomes to
the exact path, minus device state-machine overhead); pass
``exact_execution=True`` to drive the full MIG/MPS state machines
instead. :class:`repro.cluster.batch.BatchSystem` is a Slurm-verb
facade over this engine. On fault-free runs the dispatch log is
bitwise-identical to :func:`repro.cluster.reference.reference_dispatch`,
the original per-round loop kept as the identity oracle.

Open-loop operation adds **admission control**: an
:class:`AdmissionPolicy` sees every arrival and may shed it
(backpressure), so a saturated fleet degrades by rejecting work instead
of growing an unbounded queue.

**Hierarchical placement** (``placement=`` or a
:class:`repro.hierarchy.HierarchicalPolicy` selector) adds the
cluster level above the node level: every admitted arrival is routed to
a per-node queue by a placement policy at arrival-event time, and each
dispatch round cuts one window per idle node *from that node's own
queue* (the node-level agent keeps choosing groups and partitions
exactly as before). The placement level reads the fleet through
:class:`NodeArrays` — per-node queue depth, class counts, queued solo
seconds, running mix, busy flag and availability — which the engine
keeps current row by row wherever a node's state changes; a
placed round cuts from the set of nodes with a non-empty queue rather
than from the idle heap. With placement off — the default — none of the
hierarchical state exists and dispatch is bitwise-identical to the
single-queue engine.

**Energy accounting** (``power_model=``) integrates the
:mod:`repro.power` draw model over every dispatched group — pure
accounting (``FleetStats.energy_joules``, joules/job, perf-per-watt,
and an ``energy_joules_total`` gauge); schedules are unchanged.
"""

from __future__ import annotations

import enum
import heapq
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.clock import Clock, time_le, time_lt
from repro.errors import SchedulingError
from repro.faults import FaultInjector, RetryPolicy
from repro.obs.phase import PhaseTimers
from repro.obs.sketch import QuantileSketch
from repro.obs.trace import LifecycleHooks, LifecycleTracer
from repro.telemetry.facade import NULL_TELEMETRY, Telemetry
from repro.cluster.node import ClusterState
from repro.cluster.policy import PolicySelector
from repro.power.model import PowerModel
from repro.workloads.jobs import Job
from repro.workloads.suite import PAPER_CLASSES

__all__ = [
    "DispatchRecord",
    "EventKind",
    "EventHeap",
    "AdmissionPolicy",
    "AdmitAll",
    "BoundedQueue",
    "TokenBucket",
    "FleetStats",
    "FleetSnapshot",
    "FleetResult",
    "FleetEngine",
    "NodeArrays",
    "CLASS_RANK",
    "job_class_index",
    "window_signature",
]

#: canonical feature order for workload-class histograms (Table IV
#: classes), read through :func:`job_class_index`.
CLASS_RANK: dict[str, int] = {"CI": 0, "MI": 1, "US": 2}


def window_signature(names) -> str:
    """Order-independent identity of a window's benchmark multiset —
    the key under which the fleet-wide decision cache would memoize the
    window's schedule."""
    return "+".join(sorted(names))


def job_class_index(benchmark_name: str) -> int:
    """CI/MI/US -> 0/1/2 (Table IV classes; unknown programs fall back
    to the unsaturated class)."""
    return CLASS_RANK.get(PAPER_CLASSES.get(benchmark_name, "US"), 2)


class NodeArrays:
    """The placement level's per-node state as parallel arrays.

    A placement-enabled :class:`FleetEngine` keeps one row per node over
    its per-node queues and updates a row wherever that node changes:
    :meth:`joined` when a job is appended to its queue, :meth:`left`
    when jobs are cut or cancelled from it, :meth:`sync` when its busy
    flag or availability moves. The placement level then reads the
    whole fleet in a few array expressions instead of walking every
    queue. The rows hold raw quantities only; normalization and the
    co-run speed model belong to :mod:`repro.hierarchy.features`.
    """

    __slots__ = (
        "depth", "classes", "mix", "busy", "available_at", "nonempty",
        "_solo", "_stale", "_queues", "_facts",
    )

    def __init__(self, queues: list[deque]) -> None:
        n_nodes = len(queues)
        #: jobs queued on the node
        self.depth = np.zeros(n_nodes, dtype=np.int64)
        #: CI/MI/US counts of the queued jobs
        self.classes = np.zeros((n_nodes, 3), dtype=np.int64)
        #: CI/MI/US counts of the node's last-dispatched window
        self.mix = np.zeros((n_nodes, 3), dtype=np.int64)
        self.busy = np.zeros(n_nodes, dtype=bool)
        self.available_at = np.zeros(n_nodes, dtype=np.float64)
        #: indices of nodes with a non-empty queue (the ready set)
        self.nonempty: set[int] = set()
        self._solo = np.zeros(n_nodes, dtype=np.float64)
        self._stale: set[int] = set()  # rows whose solo sum needs a re-sum
        self._queues = queues
        # (class index, solo seconds) per program name: both depend on
        # the program alone
        self._facts: dict[str, tuple[int, float]] = {}

    @property
    def solo(self) -> np.ndarray:
        """Queued solo seconds per node, summed front to back.

        A row some job left is re-summed from its queue on the next
        read, never kept as a running add/subtract, so its rounding
        (and every feature derived from it) does not depend on the
        order of past updates.
        """
        if self._stale:
            facts = self._facts
            for index in self._stale:
                total = 0.0
                for job, _ in self._queues[index]:
                    total += facts[job.benchmark_name][1]
                self._solo[index] = total
            self._stale.clear()
        return self._solo

    def joined(self, index: int, job: Job) -> None:
        """``job`` was appended to node ``index``'s queue."""
        facts = self._facts.get(job.benchmark_name)
        if facts is None:
            facts = (job_class_index(job.benchmark_name), job.solo_time)
            self._facts[job.benchmark_name] = facts
        self.depth[index] += 1
        self.classes[index, facts[0]] += 1
        # the last step of the front-to-back sum, so bit-equal to a
        # re-sum (a stale row is re-summed on read regardless)
        self._solo[index] += facts[1]
        self.nonempty.add(index)

    def left(self, index: int, entries) -> None:
        """The ``(job, submit_time)`` ``entries`` were removed from node
        ``index``'s queue."""
        counts = [0, 0, 0]
        for job, _ in entries:
            counts[self._facts[job.benchmark_name][0]] += 1
        self.depth[index] -= len(entries)
        self.classes[index] -= counts
        if self._queues[index]:
            self._stale.add(index)
        else:
            self._solo[index] = 0.0
            self._stale.discard(index)
            self.nonempty.discard(index)

    def sync(self, index: int, busy: bool, available_at: float) -> None:
        """Node ``index``'s busy flag and availability horizon."""
        self.busy[index] = busy
        self.available_at[index] = available_at


#: windows per dispatch round (batched-serving batch size)
_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


@dataclass(frozen=True)
class DispatchRecord:
    """One window dispatched to one GPU."""

    node_name: str
    policy_name: str
    window_size: int
    start_time: float
    end_time: float
    throughput_gain: float
    retries: int = 0  # device-level retries spent on this window
    fell_back: bool = False  # policy raised; FCFS scheduled the window
    n_failed: int = 0  # jobs that crashed during this window


class EventKind(enum.IntEnum):
    """What a heap entry means. Values are tie-break ranks within one
    timestamp batch (arrivals land before completions land before
    bookkeeping), though rounds pop whole same-time batches anyway."""

    ARRIVAL = 0
    COMPLETION = 1
    REQUEUE = 2
    RECONFIG = 3
    FAULT = 4
    CHECKPOINT = 5


class EventHeap:
    """A deterministic min-heap of ``(time, kind, seq, payload)``.

    Ordering is total and reproducible: by time, then kind rank, then
    insertion sequence — payloads are never compared.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, object]] = []
        self._seq = 0

    def push(self, time: float, kind: EventKind, payload: object = None) -> None:
        heapq.heappush(self._heap, (time, int(kind), self._seq, payload))
        self._seq += 1

    def pop(self) -> tuple[float, EventKind, object]:
        time, kind, _, payload = heapq.heappop(self._heap)
        return time, EventKind(kind), payload

    def peek_time(self) -> float:
        return self._heap[0][0]

    def take(self, match) -> tuple[EventKind, object] | None:
        """Remove the entry whose ``(kind, payload)`` satisfies ``match``
        and return it; ``None`` when nothing matches."""
        heap = self._heap
        for i, (_, kind, _, payload) in enumerate(heap):
            if match(EventKind(kind), payload):
                del heap[i]
                heapq.heapify(heap)
                return EventKind(kind), payload
        return None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


# ----------------------------------------------------------------------
# admission / backpressure
# ----------------------------------------------------------------------
class AdmissionPolicy:
    """Decides, per arrival, whether the fleet accepts the job."""

    def admit(self, queue_depth: int, now: float) -> bool:  # pragma: no cover
        raise NotImplementedError


class AdmitAll(AdmissionPolicy):
    """No backpressure: every arrival joins the queue."""

    def admit(self, queue_depth: int, now: float) -> bool:
        return True


class BoundedQueue(AdmissionPolicy):
    """Shed arrivals once the pending queue reaches ``max_pending``.

    The classic head-of-line backpressure: a saturated fleet rejects
    work (callers see it in ``FleetStats.rejected``) instead of letting
    queue waits — and memory — grow without bound.
    """

    def __init__(self, max_pending: int):
        if max_pending < 1:
            raise SchedulingError("max_pending must be positive")
        self.max_pending = max_pending

    def admit(self, queue_depth: int, now: float) -> bool:
        return queue_depth < self.max_pending


class TokenBucket(AdmissionPolicy):
    """Rate-limit admissions to ``rate`` jobs per simulated second with
    bursts up to ``burst`` — smooths diurnal peaks into the queue."""

    def __init__(self, rate: float, burst: float = 1.0):
        if rate <= 0 or burst < 1.0:
            raise SchedulingError("token bucket needs rate > 0, burst >= 1")
        self.rate = rate
        self.burst = burst
        self._tokens = burst
        self._last = None  # type: float | None

    def admit(self, queue_depth: int, now: float) -> bool:
        if self._last is not None and now > self._last:
            self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
        self._last = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


# ----------------------------------------------------------------------
# accounting
# ----------------------------------------------------------------------
@dataclass
class FleetStats:
    """Aggregate accounting — O(1) memory regardless of arrival count.

    Job outcomes are accounted when their window is dispatched (the
    simulation then knows every finish time exactly); the heap's
    completion events drive node reuse, not the counters.
    """

    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    requeues: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0  # admitted jobs withdrawn by cancel()
    windows: int = 0
    fallback_windows: int = 0
    dispatch_retries: int = 0
    degraded_groups: int = 0
    outages: int = 0
    reconfigs: int = 0
    checkpoints: int = 0
    wait_sum: float = 0.0
    wait_max: float = 0.0
    turnaround_sum: float = 0.0
    # energy accounting (power_model engines only; zeros otherwise)
    energy_joules: float = 0.0
    solo_work: float = 0.0  # solo-equivalent seconds dispatched
    # fairness: per-job slowdown moments, O(1) memory (Jain's index
    # needs only n, sum x and sum x^2)
    slowdown_sum: float = 0.0
    slowdown_sq_sum: float = 0.0
    slowdown_count: int = 0
    # streaming percentiles: bounded log-bucketed sketches (still O(1)
    # in the arrival count; DESIGN.md §15 states the error bound)
    wait_sketch: QuantileSketch = field(default_factory=QuantileSketch)
    decision_sketch: QuantileSketch = field(default_factory=QuantileSketch)

    @property
    def mean_wait(self) -> float:
        return self.wait_sum / self.completed if self.completed else 0.0

    @property
    def mean_turnaround(self) -> float:
        return self.turnaround_sum / self.completed if self.completed else 0.0

    @property
    def joules_per_job(self) -> float:
        return self.energy_joules / self.completed if self.completed else 0.0

    @property
    def perf_per_watt(self) -> float:
        """Solo-equivalent seconds of work completed per joule-second —
        dimensionless work/energy efficiency."""
        return self.solo_work / self.energy_joules if self.energy_joules else 0.0

    @property
    def queue_wait_p50(self) -> float:
        return self.wait_sketch.quantile(0.5)

    @property
    def queue_wait_p95(self) -> float:
        return self.wait_sketch.quantile(0.95)

    @property
    def queue_wait_p99(self) -> float:
        return self.wait_sketch.quantile(0.99)

    @property
    def fairness_jain(self) -> float:
        """Jain's fairness index over per-job slowdowns, in (0, 1]."""
        if not self.slowdown_count or self.slowdown_sq_sum <= 0.0:
            return 1.0
        return (self.slowdown_sum * self.slowdown_sum) / (
            self.slowdown_count * self.slowdown_sq_sum
        )

    def to_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "requeues": self.requeues,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "windows": self.windows,
            "fallback_windows": self.fallback_windows,
            "dispatch_retries": self.dispatch_retries,
            "degraded_groups": self.degraded_groups,
            "outages": self.outages,
            "reconfigs": self.reconfigs,
            "checkpoints": self.checkpoints,
            "mean_wait": self.mean_wait,
            "max_wait": self.wait_max,
            "queue_wait_p50": self.queue_wait_p50,
            "queue_wait_p95": self.queue_wait_p95,
            "queue_wait_p99": self.queue_wait_p99,
            "placement_decision_p50_s": self.decision_sketch.quantile(0.5),
            "placement_decision_p95_s": self.decision_sketch.quantile(0.95),
            "placement_decision_p99_s": self.decision_sketch.quantile(0.99),
            "mean_turnaround": self.mean_turnaround,
            "energy_joules": self.energy_joules,
            "joules_per_job": self.joules_per_job,
            "perf_per_watt": self.perf_per_watt,
            "fairness_jain": self.fairness_jain,
        }


@dataclass(frozen=True)
class FleetSnapshot:
    """One checkpoint event's view of the fleet.

    PR 9 enriched snapshots into streaming rollup *frames*: besides the
    original counters they carry utilization, the sketch-backed
    queue-wait percentiles, the decision rate over the preceding
    checkpoint interval, and cumulative energy. The new fields default
    to zero so pre-existing constructors stay valid.
    """

    time: float
    submitted: int
    completed: int
    failed: int
    rejected: int
    pending: int
    busy_nodes: int
    windows: int = 0
    utilization: float = 0.0
    queue_wait_p50: float = 0.0
    queue_wait_p95: float = 0.0
    queue_wait_p99: float = 0.0
    decisions_per_sec: float = 0.0
    energy_joules: float = 0.0

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "pending": self.pending,
            "busy_nodes": self.busy_nodes,
            "windows": self.windows,
            "utilization": self.utilization,
            "queue_wait_p50": self.queue_wait_p50,
            "queue_wait_p95": self.queue_wait_p95,
            "queue_wait_p99": self.queue_wait_p99,
            "decisions_per_sec": self.decisions_per_sec,
            "energy_joules": self.energy_joules,
        }


@dataclass
class FleetResult:
    """What :meth:`FleetEngine.run` hands back."""

    stats: FleetStats
    makespan: float
    utilization: float
    history: list[DispatchRecord] = field(default_factory=list)
    schedules: list = field(default_factory=list)  # Schedule, keep_history only
    snapshots: list[FleetSnapshot] = field(default_factory=list)
    # energy/fairness accounting (mirrors stats; zeros / 1.0 defaults)
    energy_joules: float = 0.0
    joules_per_job: float = 0.0
    perf_per_watt: float = 0.0
    fairness_jain: float = 1.0
    # streaming percentiles (mirrors stats' sketches; zeros when empty)
    queue_wait_p50: float = 0.0
    queue_wait_p95: float = 0.0
    queue_wait_p99: float = 0.0
    placement_decision_p50_s: float = 0.0
    placement_decision_p95_s: float = 0.0
    placement_decision_p99_s: float = 0.0
    # hierarchical-placement trace: (benchmark_name, node_index) per
    # routed job, in routing order (placement engines only)
    placements: list = field(default_factory=list)


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class FleetEngine:
    """Event-driven dispatch of a GPU fleet.

    Feed it closed submissions (:meth:`submit` / :meth:`submit_queue`),
    open-loop arrival processes (:meth:`attach_arrivals`), planned
    reconfigurations and outages, then :meth:`run` the heap dry.
    """

    def __init__(
        self,
        cluster: ClusterState,
        selector: PolicySelector,
        window_size: int = 12,
        min_batch: int = 1,
        admission: AdmissionPolicy | None = None,
        faults: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        max_retries: int = 3,
        start: float = 0.0,
        telemetry: Telemetry = NULL_TELEMETRY,
        exact_execution: bool = False,
        keep_history: bool = False,
        placement=None,
        power_model: PowerModel | None = None,
        lifecycle: LifecycleHooks | None = None,
        profile: PhaseTimers | None = None,
        decision_clock: Clock | None = None,
    ):
        if window_size < 1:
            raise SchedulingError("window size must be positive")
        if min_batch < 1:
            raise SchedulingError("min batch must be positive")
        if max_retries < 0:
            raise SchedulingError("max_retries cannot be negative")
        # A HierarchicalPolicy bundles (placement, selector); unwrap it
        # so the engine drives the inner PolicySelector directly.
        if placement is None:
            wrapped = getattr(selector, "placement", None)
            if wrapped is not None:
                placement = wrapped
                selector = selector.selector
        self.cluster = cluster
        self.selector = selector
        self.placement = placement
        self.power_model = power_model
        self.window_size = window_size
        self.min_batch = min_batch
        self.admission = admission or AdmitAll()
        self.faults = faults
        self.retry = retry or RetryPolicy()
        self.max_retries = max_retries
        self.telemetry = telemetry
        # causal per-job tracing, wall-clock self-profiling, and the
        # placement-decision latency clock — all pure observers: None
        # (the default) leaves every hot path byte-identical
        self.lifecycle = lifecycle
        self.profile = profile
        self.decision_clock = decision_clock
        self.exact_execution = exact_execution
        self.keep_history = keep_history
        self.now = float(start)
        self.stats = FleetStats()
        self.history: list[DispatchRecord] = []
        self.schedules: list = []
        self.snapshots: list[FleetSnapshot] = []
        self.events = EventHeap()
        self._pending: deque = deque()  # (Job, submit_time)
        # hierarchical-placement state; None/empty when placement is off
        # (the flag-off path never touches any of it)
        self.placements: list[tuple[str, int]] = []
        self.collect_windows = False
        self.collected_windows: list[tuple[str, ...]] = []
        if placement is not None:
            self._node_pending: list[deque] | None = [
                deque() for _ in cluster.nodes
            ]
            self._arrays: NodeArrays | None = NodeArrays(self._node_pending)
        else:
            self._node_pending = None
            self._arrays = None
        self._window_sigs: set[str] = set()
        self._attempts: dict[str, int] = {}  # crash re-queues per job id
        self._sources: list = []  # open-loop arrival iterators
        self._live_arrivals = 0  # ARRIVAL events currently in the heap
        self._live_requeues = 0  # REQUEUE events currently in the heap
        self._checkpoint_interval: float | None = None
        self._last_frame: tuple[float, int] = (self.now, 0)
        # batched telemetry mirror: the dispatch hot path increments
        # plain dicts; _sync_metrics flushes them to the registry at
        # checkpoints and end of run (constant facade cost per frame)
        self._policy_windows: dict[str, int] = {}
        self._batch_rounds: dict[int, int] = {}
        self._synced_counts: dict[str, int] = {}
        n = len(cluster.nodes)
        self._gen = [0] * n  # availability generation (outage bumps)
        self._is_idle = [True] * n
        self._idle_count = n
        # flat mode picks idle nodes earliest-available first from a
        # heap; placed mode cuts from the ready set (NodeArrays.nonempty)
        self._idle: list[tuple[float, int, int]] = []
        if self._arrays is None:
            self._idle = [
                (node.available_at, i, 0) for i, node in enumerate(cluster.nodes)
            ]
            heapq.heapify(self._idle)
        else:
            for i in range(n):
                self._sync_node(i)
        if faults is not None:
            for node in cluster.nodes:
                node.device.faults = faults
            faults.telemetry = telemetry
        for node in cluster.nodes:
            node.device.telemetry = telemetry

    # ------------------------------------------------------------------
    # feeding the heap
    # ------------------------------------------------------------------
    def submit(self, job: Job, at: float | None = None) -> None:
        """One closed submission at time ``at`` (default: now)."""
        t = self.now if at is None else float(at)
        if time_lt(t, self.now):
            raise SchedulingError("cannot submit in the past")
        self.events.push(t, EventKind.ARRIVAL, (None, job))
        self._live_arrivals += 1

    def submit_queue(self, queue, at: float | None = None) -> None:
        """Submit a whole :class:`JobQueue` at one instant (FIFO order)."""
        for job in queue:
            self.submit(job, at=at)

    def attach_arrivals(self, arrivals) -> None:
        """Attach an open-loop arrival process.

        ``arrivals`` is any iterable of ``(time, item)`` pairs in
        non-decreasing time order, where ``item`` is a benchmark name or
        a :class:`Job` — e.g. the generators in
        :mod:`repro.workloads.arrivals`. The engine pulls it lazily, one
        event in the heap per source, so a million-arrival process never
        materializes.
        """
        source = iter(arrivals)
        index = len(self._sources)
        self._sources.append(source)
        self._pull_arrival(index)

    def schedule_reconfig(self, node_name: str, at: float, duration: float) -> None:
        """A planned repartition pause: the node is unavailable for
        ``duration`` simulated seconds starting at ``at``."""
        self._push_node_event(EventKind.RECONFIG, node_name, at, duration)

    def schedule_fault(self, node_name: str, at: float, duration: float) -> None:
        """An injected node outage (crash + repair time)."""
        self._push_node_event(EventKind.FAULT, node_name, at, duration)

    def schedule_checkpoints(self, interval: float, first: float | None = None) -> None:
        """Snapshot fleet statistics every ``interval`` simulated
        seconds while the simulation still has work in flight."""
        if interval <= 0:
            raise SchedulingError("checkpoint interval must be positive")
        self._checkpoint_interval = float(interval)
        self.events.push(
            self.now + interval if first is None else float(first),
            EventKind.CHECKPOINT,
            None,
        )

    def _push_node_event(
        self, kind: EventKind, node_name: str, at: float, duration: float
    ) -> None:
        if duration < 0:
            raise SchedulingError("duration cannot be negative")
        for i, node in enumerate(self.cluster.nodes):
            if node.name == node_name:
                self.events.push(float(at), kind, (i, float(duration)))
                return
        raise SchedulingError(f"unknown node {node_name!r}")

    def _pull_arrival(self, index: int) -> None:
        source = self._sources[index]
        if source is None:
            return
        try:
            t, item = next(source)
        except StopIteration:
            self._sources[index] = None
            return
        self.events.push(float(t), EventKind.ARRIVAL, (index, item))
        self._live_arrivals += 1

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> FleetResult:
        """Pump the heap dry (or up to ``until``) and report.

        Every iteration pops the *batch* of events sharing the next
        timestamp, applies them, and runs one dispatch round — so nodes
        freed at the same instant share one batched serving pass. Only
        a full drain (no ``until``) relaxes ``min_batch`` to dispatch a
        final partial window; a horizon-limited run holds it back, since
        its caller may still submit more work.
        """
        drain = until is None
        if drain and self._queue_depth():
            # a horizon-limited run may have held a partial window back
            self._dispatch_round(drain)
        events = self.events
        timers = self.profile
        # the loop accumulates event_pop locally and flushes one
        # aggregate sample — per-iteration method calls would be the
        # profiler observing itself
        clk = timers.clock if timers is not None else None
        pop_seconds, pop_calls = 0.0, 0
        while events:
            t0 = clk() if clk is not None else 0.0
            t = events.peek_time()
            if until is not None and time_lt(until, t):
                break
            if t > self.now:
                self.now = t
            batch = [events.pop()]
            while events and time_le(events.peek_time(), t):
                batch.append(events.pop())
            for event_time, kind, payload in batch:
                self._handle(event_time, kind, payload)
            if clk is not None:
                pop_seconds += clk() - t0
                pop_calls += 1
            self._dispatch_round(drain)
        if timers is not None and pop_calls:
            timers.add("event_pop", pop_seconds, pop_calls)
        self._sync_metrics()
        stats = self.stats
        return FleetResult(
            stats=stats,
            makespan=self.cluster.makespan,
            utilization=self.cluster.utilization(),
            history=self.history,
            schedules=self.schedules,
            snapshots=self.snapshots,
            energy_joules=stats.energy_joules,
            joules_per_job=stats.joules_per_job,
            perf_per_watt=stats.perf_per_watt,
            fairness_jain=stats.fairness_jain,
            queue_wait_p50=stats.queue_wait_p50,
            queue_wait_p95=stats.queue_wait_p95,
            queue_wait_p99=stats.queue_wait_p99,
            placement_decision_p50_s=stats.decision_sketch.quantile(0.5),
            placement_decision_p95_s=stats.decision_sketch.quantile(0.95),
            placement_decision_p99_s=stats.decision_sketch.quantile(0.99),
            placements=self.placements,
        )

    def _handle(self, t: float, kind: EventKind, payload) -> None:
        if kind is EventKind.ARRIVAL:
            self._live_arrivals -= 1
            source_index, item = payload
            job = item if isinstance(item, Job) else Job.submit(item)
            self.stats.submitted += 1
            if self.admission.admit(self._queue_depth(), self.now):
                self.stats.admitted += 1
                if self.lifecycle is not None:
                    self.lifecycle.arrival(job, t, admitted=True)
                if self._node_pending is None:
                    self._pending.append((job, t))
                else:
                    self._route(job, t)
            else:
                self.stats.rejected += 1
                if self.lifecycle is not None:
                    self.lifecycle.arrival(job, t, admitted=False)
                if self.telemetry.enabled:
                    self.telemetry.count("fleet_rejected_total", 1)
            if source_index is not None:
                self._pull_arrival(source_index)
        elif kind is EventKind.COMPLETION:
            index, gen = payload
            if gen != self._gen[index]:
                return  # superseded by an outage/reconfig
            self._is_idle[index] = True
            self._idle_count += 1
            if self._arrays is None:
                heapq.heappush(
                    self._idle,
                    (self.cluster.nodes[index].available_at, index, gen),
                )
            else:
                self._sync_node(index)
        elif kind is EventKind.REQUEUE:
            self._live_requeues -= 1
            job, submit_time = payload
            if self._node_pending is None:
                self._pending.append((job, submit_time))
            else:
                # a crashed job is re-*placed* at its failure time — the
                # placement level sees requeues as fresh routing decisions
                self._route(job, submit_time)
        elif kind in (EventKind.RECONFIG, EventKind.FAULT):
            index, duration = payload
            node = self.cluster.nodes[index]
            if kind is EventKind.RECONFIG:
                self.stats.reconfigs += 1
            else:
                self.stats.outages += 1
            if self._is_idle[index]:
                self._is_idle[index] = False
                self._idle_count -= 1  # its idle-heap entry is now stale
            self._gen[index] += 1
            horizon = max(self.now, node.available_at) + duration
            node.device.clock = horizon  # unavailable until repaired
            if self._arrays is not None:
                self._sync_node(index)
            self.events.push(
                horizon, EventKind.COMPLETION, (index, self._gen[index])
            )
            if self.telemetry.enabled:
                self.telemetry.event(
                    "outage" if kind is EventKind.FAULT else "reconfig",
                    node.name,
                    self.now,
                    category="fleet",
                    duration=duration,
                )
        elif kind is EventKind.CHECKPOINT:
            self.stats.checkpoints += 1
            busy = len(self.cluster.nodes) - self._idle_count
            stats = self.stats
            frame_t, frame_windows = self._last_frame
            interval = self.now - frame_t
            rate = (
                (stats.windows - frame_windows) / interval
                if interval > 0.0
                else 0.0
            )
            self._last_frame = (self.now, stats.windows)
            p50, p95, p99 = stats.wait_sketch.quantiles((0.5, 0.95, 0.99))
            self.snapshots.append(
                FleetSnapshot(
                    time=self.now,
                    submitted=stats.submitted,
                    completed=stats.completed,
                    failed=stats.failed,
                    rejected=stats.rejected,
                    pending=self._queue_depth(),
                    busy_nodes=busy,
                    windows=stats.windows,
                    utilization=self.cluster.utilization(),
                    queue_wait_p50=p50,
                    queue_wait_p95=p95,
                    queue_wait_p99=p99,
                    decisions_per_sec=rate,
                    energy_joules=stats.energy_joules,
                )
            )
            self._sync_metrics()
            if self._checkpoint_interval is not None and (
                busy > 0 or self._queue_depth() > 0 or self._work_incoming()
            ):
                self.events.push(
                    self.now + self._checkpoint_interval,
                    EventKind.CHECKPOINT,
                    None,
                )

    def _sync_metrics(self) -> None:
        """Flush the engine-side telemetry mirror into the registry.

        Per-window facade calls cost a metric lookup, label-key sort,
        and a lock each; the engine instead accumulates plain
        dicts/ints on the hot path and bulk-syncs at checkpoints and
        end of run — identical final registry values at constant
        telemetry cost per frame. Fleet-level counters also keep label
        cardinality bounded (``policy``, not ``node``): per-node detail
        lives in the tracer's window spans, not in metric series.
        """
        if not self.telemetry.enabled:
            return
        tel = self.telemetry
        stats = self.stats
        tel.sync_sketch("fleet_queue_wait_seconds", stats.wait_sketch)
        tel.gauge("queue_depth", self._queue_depth())
        if self.power_model is not None:
            tel.gauge("energy_joules_total", stats.energy_joules)
        if self._policy_windows:
            for policy_name in sorted(self._policy_windows):
                tel.count(
                    "windows_dispatched_total",
                    self._policy_windows[policy_name],
                    policy=policy_name,
                )
            self._policy_windows.clear()
        synced = self._synced_counts
        for name, value in (
            ("jobs_completed_total", stats.completed),
            ("jobs_failed_total", stats.failed),
            ("job_requeues_total", stats.requeues),
            ("policy_fallbacks_total", stats.fallback_windows),
        ):
            delta = value - synced.get(name, 0)
            if delta:
                tel.count(name, delta)
                synced[name] = value
        if self._batch_rounds:
            for size in sorted(self._batch_rounds):
                tel.observe(
                    "dispatch_batch_windows",
                    float(size),
                    buckets=_BATCH_BUCKETS,
                    count=self._batch_rounds[size],
                )
            self._batch_rounds.clear()

    def _work_incoming(self) -> bool:
        return (
            self._live_arrivals > 0
            or self._live_requeues > 0
            or any(s is not None for s in self._sources)
        )

    # ------------------------------------------------------------------
    # hierarchical placement (cluster level)
    # ------------------------------------------------------------------
    def _queue_depth(self) -> int:
        if self._arrays is None:
            return len(self._pending)
        return int(self._arrays.depth.sum())

    def _sync_node(self, index: int) -> None:
        """Copy node ``index``'s busy flag and availability into its
        :class:`NodeArrays` row."""
        self._arrays.sync(
            index,
            not self._is_idle[index],
            self.cluster.nodes[index].available_at,
        )

    def _route(self, job: Job, submit_time: float) -> None:
        """Ask the placement level for a node and enqueue the job there."""
        clock = self.decision_clock
        t0 = clock() if clock is not None else 0.0
        info: dict | None = None
        if self.lifecycle is not None:
            # same decision, same RNG consumption — plus provenance
            # (top-k alternative ranking for learned placements)
            raw, info = self.placement.place_with_info(self, job, self.now)
        else:
            raw = self.placement.place(self, job, self.now)
        if clock is not None:
            self.stats.decision_sketch.add(max(clock() - t0, 0.0))
        index = int(raw)
        if not 0 <= index < len(self.cluster.nodes):
            raise SchedulingError(
                f"placement chose node {index}; fleet has "
                f"{len(self.cluster.nodes)} nodes"
            )
        self._node_pending[index].append((job, submit_time))
        self._arrays.joined(index, job)
        self.placements.append((job.benchmark_name, index))
        if self.lifecycle is not None:
            self.lifecycle.placed(
                job, self.now, index, self.cluster.nodes[index].name, info
            )

    def place_job(self, node_index: int, job: Job, at: float | None = None) -> None:
        """Externally-decided placement (the :class:`PlacementEnv` hook):
        admit ``job`` directly onto ``node_index`` at time ``at`` and run
        one dispatch round. Bypasses both the event heap's ARRIVAL path
        and the engine's own placement policy."""
        if self._node_pending is None:
            raise SchedulingError("place_job requires a placement-enabled engine")
        if not 0 <= node_index < len(self.cluster.nodes):
            raise SchedulingError(
                f"node index {node_index} out of range for "
                f"{len(self.cluster.nodes)} nodes"
            )
        t = self.now if at is None else float(at)
        if time_lt(t, self.now):
            raise SchedulingError("cannot place in the past")
        self.now = max(self.now, t)
        self.stats.submitted += 1
        self.stats.admitted += 1
        self._node_pending[node_index].append((job, t))
        self._arrays.joined(node_index, job)
        self.placements.append((job.benchmark_name, node_index))
        self._dispatch_round(drain=True)

    def advance_to(self, t: float) -> None:
        """Process every event up to ``t``, then move the clock there
        (even if no event lands exactly at ``t``)."""
        self.run(until=t)
        if t > self.now:
            self.now = float(t)

    def cancel(self, job_id: str) -> None:
        """Withdraw a job that has not been dispatched: one waiting in a
        queue, or a submission or requeue still in the heap. An admitted
        job is counted ``cancelled`` instead of ``completed``/``failed``;
        a submission still in the heap was never counted at all.
        """
        queues = self._node_pending if self._node_pending is not None else [self._pending]
        for index, queue in enumerate(queues):
            for entry in queue:
                if entry[0].job_id == job_id:
                    queue.remove(entry)
                    if self._arrays is not None:
                        self._arrays.left(index, (entry,))
                    self._withdrawn(entry[0])
                    return

        def holds(kind: EventKind, payload) -> bool:
            if kind is EventKind.ARRIVAL:
                item = payload[1]  # a Job or a benchmark name
                return isinstance(item, Job) and item.job_id == job_id
            return kind is EventKind.REQUEUE and payload[0].job_id == job_id

        taken = self.events.take(holds)
        if taken is None:
            raise SchedulingError(f"job {job_id} is not waiting in the engine")
        kind, payload = taken
        if kind is EventKind.REQUEUE:
            self._live_requeues -= 1
            self._withdrawn(payload[0])
        else:
            self._live_arrivals -= 1
            if payload[0] is not None:
                self._pull_arrival(payload[0])

    def _withdrawn(self, job: Job) -> None:
        """Account an admitted job that :meth:`cancel` removed."""
        self._attempts.pop(job.job_id, None)
        self.stats.cancelled += 1
        if self.lifecycle is not None:
            self.lifecycle.cancelled(job, self.now)

    # --- per-node observation accessors (PlacementObservation inputs) --
    def node_queue(self, index: int):
        """The (job, submit_time) deque routed to node ``index``."""
        if self._node_pending is None:
            raise SchedulingError("engine has no placement level")
        return self._node_pending[index]

    @property
    def node_arrays(self) -> NodeArrays:
        """Every node's placement state as arrays (placement engines
        only); rows are current after every event the engine applies."""
        if self._arrays is None:
            raise SchedulingError("engine has no placement level")
        return self._arrays

    def node_is_idle(self, index: int) -> bool:
        return self._is_idle[index]

    def node_mix(self, index: int) -> tuple[int, int, int]:
        """Class histogram (CI, MI, US) of the node's last-dispatched
        window — the running mix a newly-routed job would co-run after."""
        if self._arrays is None:
            return (0, 0, 0)
        ci, mi, us = self._arrays.mix[index].tolist()
        return (ci, mi, us)

    def window_seen(self, signature: str) -> bool:
        """Whether a window with this :func:`window_signature` has been
        dispatched before — a proxy for decision-cache hit likelihood."""
        return signature in self._window_sigs

    def _decision_cache(self):
        """The PR 6 fleet-wide :class:`DecisionCache`, when the wired
        selector carries one (lifecycle cache-hit provenance)."""
        co = getattr(self.selector, "co_scheduling", None)
        optimizer = getattr(co, "optimizer", None)
        return getattr(optimizer, "decision_cache", None)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch_round(self, drain: bool) -> int:
        """Cut one window per ready idle GPU and run the round.

        Same policy selection arguments and window cuts as
        :func:`~repro.cluster.reference.reference_dispatch`, so
        fault-free dispatch logs are bitwise-comparable to it. In a
        ``drain`` round with all arrival sources dry, the last partial
        window dispatches regardless of ``min_batch``.
        """
        if self._node_pending is not None:
            return self._dispatch_round_placed(drain)
        pending = self._pending
        min_batch = 1 if drain and not self._work_incoming() else self.min_batch
        if self._idle_count == 0 or len(pending) < min_batch:
            return 0
        # how many windows this round can cut
        n_free = self._idle_count
        remaining = len(pending)
        cuts_possible = 0
        while remaining >= min_batch and cuts_possible < n_free:
            remaining -= min(self.window_size, remaining)
            cuts_possible += 1
        # pop that many live idle nodes, earliest-available first, then
        # cut in node order (the old loops' round order)
        entries: list[tuple[float, int, int]] = []
        while self._idle and len(entries) < cuts_possible:
            avail, index, gen = heapq.heappop(self._idle)
            if gen == self._gen[index]:
                entries.append((avail, index, gen))
        entries.sort(key=lambda e: e[1])
        cuts: list[tuple] = []
        for k, (avail, index, gen) in enumerate(entries):
            take = min(self.window_size, len(pending))
            window = [pending.popleft() for _ in range(take)]
            policy = self.selector.select(
                queue_depth=len(pending) + take,
                free_gpus=max(n_free - k, 1),
            )
            cuts.append((index, window, policy))
        scheduled, round_hits = self._schedule_round(cuts)
        for (index, window, policy), (schedule, fell_back) in zip(cuts, scheduled):
            self._execute(index, window, policy, schedule, fell_back, round_hits)
        return len(cuts)

    def _schedule_round(self, cuts) -> tuple[list, int | None]:
        """One batched serving pass over the round's cuts, with the
        decision phase timed and the round's decision-cache hit delta
        captured for lifecycle provenance."""
        timers = self.profile
        cache = self._decision_cache() if self.lifecycle is not None else None
        hits_before = cache.stats.hits if cache is not None else 0
        t0 = timers.clock() if timers is not None else 0.0
        scheduled = self.selector.schedule_batch(
            [([job for job, _ in window], policy) for _, window, policy in cuts]
        )
        if timers is not None:
            timers.add("decision", timers.clock() - t0)
        round_hits = (
            cache.stats.hits - hits_before if cache is not None else None
        )
        if self.telemetry.enabled:
            n = len(cuts)
            self._batch_rounds[n] = self._batch_rounds.get(n, 0) + 1
        return scheduled, round_hits

    def _dispatch_round_placed(self, drain: bool) -> int:
        """Hierarchical round: one window per ready idle node, cut from
        that node's *own* queue (the placement level already decided
        which jobs live where). Crowding selection sees the node-local
        queue depth with ``free_gpus=1`` — each node is its own
        single-GPU serving domain below the placement level."""
        queues = self._node_pending
        min_batch = 1 if drain and not self._work_incoming() else self.min_batch
        if self._idle_count == 0:
            return 0
        is_idle = self._is_idle
        ready = sorted(  # node order, like the flat round
            i for i in self.node_arrays.nonempty
            if is_idle[i] and len(queues[i]) >= min_batch
        )
        if not ready:
            return 0
        cuts: list[tuple] = []
        for index in ready:
            queue = queues[index]
            take = min(self.window_size, len(queue))
            window = [queue.popleft() for _ in range(take)]
            self._arrays.left(index, window)
            policy = self.selector.select(
                queue_depth=len(queue) + take, free_gpus=1
            )
            cuts.append((index, window, policy))
        scheduled, round_hits = self._schedule_round(cuts)
        for (index, window, policy), (schedule, fell_back) in zip(cuts, scheduled):
            self._execute(index, window, policy, schedule, fell_back, round_hits)
        return len(cuts)

    def _execute(
        self, index, window, policy, schedule, fell_back, round_hits=None
    ) -> None:
        node = self.cluster.nodes[index]
        stats = self.stats
        timers = self.profile
        if fell_back:
            stats.fallback_windows += 1
        start = max(self.now, node.available_at)
        node.device.clock = start
        if fell_back and self.telemetry.enabled:
            self.telemetry.event(
                "fallback", node.name, start, category="fleet",
                policy=self.selector.fcfs.name,
            )
        t0 = timers.clock() if timers is not None else 0.0
        if self.exact_execution:
            outcome = node.execute_schedule_ft(schedule, self.retry)
        else:
            outcome = node.execute_schedule_fast(schedule, self.retry)
        if timers is not None:
            timers.add("replay", timers.clock() - t0)
        stats.windows += 1
        stats.dispatch_retries += outcome.retries
        stats.degraded_groups += outcome.degraded_groups
        if self.power_model is not None:
            joules = 0.0
            for group in schedule.groups:
                joules += self.power_model.group_power(
                    [j.model for j in group.jobs],
                    group.partition,
                    group.corun_time,
                ).energy_joules
            stats.energy_joules += joules
            stats.solo_work += schedule.total_solo_time
        lifecycle = self.lifecycle
        window_seen = False
        if self._node_pending is not None or lifecycle is not None:
            sig = window_signature(job.benchmark_name for job, _ in window)
            window_seen = sig in self._window_sigs
            self._window_sigs.add(sig)
        if self._arrays is not None:
            mix = [0, 0, 0]
            for job, _ in window:
                mix[job_class_index(job.benchmark_name)] += 1
            self._arrays.mix[index] = mix
        if self.collect_windows:
            self.collected_windows.append(
                tuple(job.benchmark_name for job, _ in window)
            )
        effective_policy = self.selector.fcfs.name if fell_back else policy.name
        terminal: list | None = [] if lifecycle is not None else None
        failed = set(outcome.failed_job_ids)
        for job, submit_time in window:
            jid = job.job_id
            if jid in failed:
                attempts = self._attempts.get(jid, 0)
                if attempts < self.max_retries:
                    self._attempts[jid] = attempts + 1
                    stats.requeues += 1
                    self._live_requeues += 1
                    # the crash happens at the job's failure time; the
                    # job re-enters the queue *then*, not retroactively
                    self.events.push(
                        outcome.finish_of[jid],
                        EventKind.REQUEUE,
                        (job, submit_time),
                    )
                    if terminal is not None:
                        terminal.append((job, submit_time, "requeue"))
                    if self.telemetry.enabled:
                        self.telemetry.event(
                            "requeue", node.name, outcome.finish_of[jid],
                            category="fleet", job=job.benchmark_name,
                            attempt=attempts + 1,
                        )
                else:
                    self._attempts.pop(jid, None)
                    stats.failed += 1
                    if terminal is not None:
                        terminal.append((job, submit_time, "failed"))
                    if self.telemetry.enabled:
                        self.telemetry.event(
                            "job_failed", node.name, outcome.finish_of[jid],
                            category="fleet", job=job.benchmark_name,
                        )
            else:
                self._attempts.pop(jid, None)
                stats.completed += 1
                wait = start - submit_time
                stats.wait_sum += wait
                stats.wait_sketch.add(wait)
                if wait > stats.wait_max:
                    stats.wait_max = wait
                turnaround = outcome.finish_of[jid] - submit_time
                stats.turnaround_sum += turnaround
                solo = job.solo_time
                if solo > 0.0:
                    slowdown = turnaround / solo
                    stats.slowdown_sum += slowdown
                    stats.slowdown_sq_sum += slowdown * slowdown
                    stats.slowdown_count += 1
                if terminal is not None:
                    terminal.append((job, submit_time, "completed"))
        self._is_idle[index] = False
        self._idle_count -= 1
        if self._arrays is not None:
            self._sync_node(index)
        self.events.push(
            outcome.end_time, EventKind.COMPLETION, (index, self._gen[index])
        )
        if lifecycle is not None and terminal is not None:
            t0 = timers.clock() if timers is not None else 0.0
            for job, submit_time, kind in terminal:
                finish = outcome.finish_of[job.job_id]
                lifecycle.attempt(
                    job,
                    start,
                    finish,
                    node.name,
                    effective_policy,
                    fell_back,
                    crashed=kind != "completed",
                    window_size=len(window),
                    window_seen=window_seen,
                    cache_hits=round_hits,
                )
                if kind == "requeue":
                    lifecycle.requeued(job, finish)
                elif kind == "failed":
                    lifecycle.failed(job, finish)
                else:
                    lifecycle.completed(job, finish, wait=start - submit_time)
            if timers is not None:
                timers.add("telemetry", timers.clock() - t0)
        if self.keep_history:
            self.history.append(
                DispatchRecord(
                    node_name=node.name,
                    policy_name=effective_policy,
                    window_size=len(window),
                    start_time=start,
                    end_time=outcome.end_time,
                    throughput_gain=schedule.throughput_gain,
                    retries=outcome.retries,
                    fell_back=fell_back,
                    n_failed=len(failed),
                )
            )
            self.schedules.append(schedule)
        if self.telemetry.enabled:
            t0 = timers.clock() if timers is not None else 0.0
            # only the trace span is emitted per window; counters and
            # gauges go through the batched mirror (_sync_metrics)
            self.telemetry.span(
                "window",
                node.name,
                start,
                outcome.end_time,
                category="fleet",
                policy=effective_policy,
                window_size=len(window),
                fell_back=fell_back,
            )
            pol = self._policy_windows
            pol[effective_policy] = pol.get(effective_policy, 0) + 1
            if timers is not None:
                timers.add("telemetry", timers.clock() - t0)

    # ------------------------------------------------------------------
    @property
    def pending_depth(self) -> int:
        return self._queue_depth()

    def summary(self) -> dict:
        """The stats dict plus fleet-level derived quantities."""
        doc = self.stats.to_dict()
        doc["nodes"] = len(self.cluster.nodes)
        doc["makespan"] = self.cluster.makespan
        doc["utilization"] = self.cluster.utilization()
        doc["pending"] = self._queue_depth()
        doc["placement"] = (
            getattr(self.placement, "name", type(self.placement).__name__)
            if self.placement is not None
            else None
        )
        if self.profile is not None:
            doc["phases"] = self.profile.to_dict()
        if isinstance(self.lifecycle, LifecycleTracer):
            doc["lifecycle_open_jobs"] = self.lifecycle.open_jobs
            doc["lifecycle_finished"] = self.lifecycle.finished
        return doc
