"""The benchmark's workloads, driven through the package's public API.

Each workload builds its state in :meth:`Workload.setup` and then runs
numbered *units* of timed work. A unit's inputs are a pure function of
``(seed, unit index)``: open-loop Poisson arrivals in simulated time for
the three fleet drains, a fresh training run for ``train``. Host time is
not coupled to simulated time, so a drain measures host throughput at a
stated size, not a sustainable arrival rate. All load comes from this
one process; no worker threads are started.

Untraced runs time exactly two boundaries, one clock pair per call:
``PolicySelector.schedule_batch`` on the drains (the DQN update
``train_step`` on ``train``, the bulk of training time) and the
placement policy's ``place`` on ``place-agent``. The traced pass (:mod:`tracer`) times everything else.
"""

from __future__ import annotations

import hashlib
import math
import time
from contextlib import nullcontext

from repro.cluster.fleet import FleetEngine
from repro.cluster.node import ClusterState
from repro.cluster.policy import CoSchedulingPolicy, FcfsPolicy, PolicySelector
from repro.core.actions import ActionCatalog
from repro.core.evaluation import profile_all_benchmarks
from repro.core.optimizer import OnlineOptimizer
from repro.core.serving import DecisionCache
from repro.core.trainer import OfflineTrainer
from repro.faults import FaultConfig, FaultInjector
from repro.gpu.partition import format_partition
from repro.hierarchy import JointTrainer
from repro.obs.phase import PhaseTimers
from repro.rl.dqn import DuelingDoubleDQNAgent
from repro.telemetry import Telemetry
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.suite import BENCHMARKS, TRAINING_SET

__all__ = ["WORKLOADS", "UnitResult", "Workload", "make_workload", "unit_seed"]

clock = time.perf_counter

#: jobs per node-level window and MIG slots per group for the drains
WINDOW = 6
C_MAX = 3
#: the node-level policy is part of the system under test, not an
#: input: it is trained from this fixed seed whatever ``--seed`` is
POLICY_SEED = 7
NODE_DQN = {
    "hidden": (64, 32),
    "warmup_transitions": 32,
    "batch_size": 16,
    "epsilon_decay_rate": 0.98,
}
HIERARCHY_POOL = ("hotspot3D", "lavaMD", "lud_A", "stream", "kmeans", "pathfinder")


def unit_seed(seed: int, index: int) -> int:
    """The input seed of unit ``index`` of a run with ``seed``."""
    return seed * 1_000_003 + index


def timed(fn, samples: list):
    """``fn`` appending its host seconds per call to ``samples``."""

    def call(*args, **kwargs):
        t0 = clock()
        result = fn(*args, **kwargs)
        samples.append(clock() - t0)
        return result

    return call


class UnitResult:
    """One timed unit: host wall, simulated outcome, and check failures."""

    def __init__(self, wall: float, jobs: int, attempted: int, failed: int):
        self.wall = wall
        self.jobs = jobs  # jobs completed (drains) / scheduled (train)
        self.attempted = attempted
        self.failed = failed
        self.errors: list[str] = []
        self.sim: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.digest = ""

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


def _fingerprint(schedules) -> list:
    """Job-id-free schedule fingerprints: job ids come from a process
    counter, so two processes agree on everything else only."""
    return [
        [
            (
                [job.benchmark_name for job in group.jobs],
                format_partition(group.partition),
                repr(group.corun_time),
                repr(group.solo_run_time),
            )
            for group in schedule.groups
        ]
        for schedule in schedules
    ]


def _digest(doc) -> str:
    return hashlib.blake2b(repr(doc).encode(), digest_size=16).hexdigest()


class Workload:
    """Base: ``setup`` once, then ``unit(i)`` for i = 0, 1, ..."""

    name = ""
    why = ""
    drain = True
    #: units every run executes, whatever ``--seconds`` says; the
    #: digest, the sim metrics and the traced pass cover exactly these
    digest_units = 2

    def __init__(self, seed: int, timing: bool = True) -> None:
        self.seed = seed
        self.timing = timing
        self.decide_samples: list[float] = []
        self.place_samples: list[float] = []

    def setup(self, tracer=None) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def unit(self, index: int, tracer=None) -> UnitResult:  # pragma: no cover
        raise NotImplementedError

    def reset_samples(self) -> None:
        self.decide_samples.clear()
        self.place_samples.clear()


# ----------------------------------------------------------------------
# the fleet drains
# ----------------------------------------------------------------------
class _Drain(Workload):
    nodes = 0
    rate = 0.0
    pool: tuple[str, ...] = ()
    unit_jobs = 0
    min_batch = 1
    crowding_threshold = 1

    def _train_node_policy(self) -> None:
        trainer = OfflineTrainer(
            window_size=WINDOW,
            c_max=C_MAX,
            n_training_queues=4,
            seed=POLICY_SEED,
            dqn_overrides=dict(NODE_DQN),
        )
        self.node_result = trainer.train(episodes=20)
        self.repository = self.node_result.repository.copy()
        profile_all_benchmarks(self.repository)

    def _selector(self) -> PolicySelector:
        optimizer = OnlineOptimizer(
            self.node_result.agent,
            self.repository,
            ActionCatalog(c_max=C_MAX),
            WINDOW,
            decision_cache=DecisionCache(),
        )
        selector = PolicySelector(
            co_scheduling=CoSchedulingPolicy(optimizer),
            fcfs=FcfsPolicy(),
            crowding_threshold=self.crowding_threshold,
        )
        if self.timing:
            selector.schedule_batch = timed(
                selector.schedule_batch, self.decide_samples
            )
        return selector

    def _engine_kwargs(self, arrival_seed: int) -> dict:
        return {"min_batch": self.min_batch}

    def _prepare(self, engine) -> None:
        """Per-drain engine configuration beyond the constructor."""

    def _drain(self, selector, n_jobs: int, arrival_seed: int, tracer=None):
        cache = selector.co_scheduling.optimizer.decision_cache
        cache_before = cache.stats
        corun_before = _corun_stats()
        t0 = clock()
        engine = FleetEngine(
            ClusterState.homogeneous(self.nodes),
            selector,
            window_size=WINDOW,
            keep_history=True,
            **self._engine_kwargs(arrival_seed),
        )
        self._prepare(engine)
        arrivals = PoissonArrivals(
            rate=self.rate, pool=self.pool, n_jobs=n_jobs, seed=arrival_seed
        )
        if tracer is not None:
            arrivals = tracer.wrap_iter(arrivals, "arrivals", "arrivals.jobs")
        engine.attach_arrivals(arrivals)
        fleet = engine.run()
        wall = clock() - t0

        stats = fleet.stats
        out = UnitResult(
            wall, stats.completed, stats.submitted, stats.failed + stats.rejected
        )
        out.check(stats.submitted == n_jobs, "an arrival never reached the engine")
        out.check(
            stats.submitted == stats.admitted + stats.rejected,
            "submitted != admitted + rejected",
        )
        out.check(
            stats.admitted == stats.completed + stats.failed,
            "admitted != completed + failed",
        )
        out.check(engine.pending_depth == 0, "jobs left pending after the drain")
        out.check(
            len(fleet.schedules) == stats.windows, "a window kept no schedule"
        )
        gains = [s.throughput_gain for s in fleet.schedules]
        out.sim = {
            "sim_makespan_s": fleet.makespan,
            "sim_wait_p99_s": fleet.queue_wait_p99,
            "sim_fairness": fleet.fairness_jain,
            "sim_gain": math.fsum(gains) / len(gains) if gains else 1.0,
        }
        cache_delta = cache.stats.delta(cache_before)
        out.counts = {
            "requeues": stats.requeues,
            "checkpoints": stats.checkpoints,
            "cache_hits": cache_delta.hits,
            "cache_lookups": cache_delta.lookups,
        }
        out.counts.update(_corun_delta(corun_before))
        deterministic = {
            key: getattr(stats, key)
            for key in (
                "submitted", "admitted", "rejected", "requeues", "completed",
                "failed", "windows", "fallback_windows", "dispatch_retries",
                "degraded_groups", "checkpoints", "wait_sum", "turnaround_sum",
            )
        }
        out.digest = _digest((
            deterministic,
            repr(fleet.makespan),
            repr(fleet.queue_wait_p99),
            repr(fleet.fairness_jain),
            _fingerprint(fleet.schedules),
            list(fleet.placements),
        ))
        return out


class FleetWarm(_Drain):
    name = "fleet-warm"
    why = (
        "warm decision cache, faults and the in-memory operator plane on: "
        "the engine loop, replay with retries and telemetry do the work"
    )
    nodes = 1000
    rate = 5000.0
    pool = tuple(sorted(TRAINING_SET)[:6])
    unit_jobs = 8_000
    #: full, always co-scheduled windows (as on decide-cold): the
    #: idle fleet's first thousand arrivals would otherwise run solo
    min_batch = WINDOW
    crowding_threshold = 0
    warmup_jobs = 12_000
    #: simulated seconds between checkpoint frames (~30 per unit)
    checkpoint_interval = 10.0
    #: crashed jobs are requeued up to this many times, so a job fails
    #: for good with odds 0.02**9: a run's jobs all complete, whereas
    #: the engine's default of 3 (odds 1.6e-7) fails a few of ~4M
    max_retries = 8
    digest_units = 4

    def setup(self, tracer=None) -> None:
        self._train_node_policy()
        self.selector = self._selector()
        with tracer.span("setup.warmup") if tracer is not None else nullcontext():
            self._drain(self.selector, self.warmup_jobs, unit_seed(self.seed, -1))

    def _engine_kwargs(self, arrival_seed: int) -> dict:
        return {
            "faults": FaultInjector(FaultConfig(
                seed=arrival_seed, job_failure_rate=0.02, transient_rate=0.01,
            )),
            "telemetry": Telemetry(),
            "profile": PhaseTimers(clock=clock),
            "decision_clock": clock,
            "max_retries": self.max_retries,
            **super()._engine_kwargs(arrival_seed),
        }

    def _prepare(self, engine) -> None:
        engine.schedule_checkpoints(self.checkpoint_interval)

    def unit(self, index: int, tracer=None) -> UnitResult:
        return self._drain(
            self.selector, self.unit_jobs, unit_seed(self.seed, index), tracer
        )


class DecideCold(_Drain):
    name = "decide-cold"
    why = (
        "all 27 programs and a fresh decision cache per unit: windows "
        "rarely repeat, so Q forward, rerank and env steps do the work"
    )
    nodes = 100
    rate = 200.0
    pool = tuple(sorted(BENCHMARKS))
    unit_jobs = 500
    #: nodes wait for a full window while arrivals continue and always
    #: co-schedule it, so every decision is a six-job agent choice (an
    #: idle fleet would otherwise run each early arrival solo, FCFS)
    min_batch = WINDOW
    crowding_threshold = 0
    digest_units = 6

    def setup(self, tracer=None) -> None:
        self._train_node_policy()

    def unit(self, index: int, tracer=None) -> UnitResult:
        return self._drain(
            self._selector(), self.unit_jobs, unit_seed(self.seed, index), tracer
        )


class PlaceAgent(_Drain):
    name = "place-agent"
    why = (
        "a frozen placement DQN routes every arrival over 500 nodes: "
        "observation, candidate mask and forward pass per job"
    )
    nodes = 500
    rate = 100.0
    pool = HIERARCHY_POOL
    unit_jobs = 150
    digest_units = 4

    def setup(self, tracer=None) -> None:
        trainer = JointTrainer(
            n_nodes=self.nodes,
            window_size=WINDOW,
            c_max=C_MAX,
            seed=POLICY_SEED,
            jobs_per_episode=100,
            arrival_rate=self.rate,
            pool=list(self.pool),
            node_episodes=6,
            prioritized=True,
            wait_weight=1.0,
            affinity_weight=0.5,
            terminal_weight=2.0,
            placement_overrides={
                "hidden": (64, 32),
                "candidate_k": 12,
                "gamma": 0.5,
                "warmup_transitions": 64,
                "batch_size": 32,
                "epsilon_decay_rate": 0.995,
            },
        )
        joint = trainer.train(episodes=1)
        self.selector = trainer.selector
        self.placement = joint.placement
        if self.timing:
            self.selector.schedule_batch = timed(
                self.selector.schedule_batch, self.decide_samples
            )
            self.placement.place = timed(self.placement.place, self.place_samples)

    def _engine_kwargs(self, arrival_seed: int) -> dict:
        return {"placement": self.placement, **super()._engine_kwargs(arrival_seed)}

    def unit(self, index: int, tracer=None) -> UnitResult:
        self.placement.reset()
        return self._drain(
            self.selector, self.unit_jobs, unit_seed(self.seed, index), tracer
        )


# ----------------------------------------------------------------------
# offline training
# ----------------------------------------------------------------------
class Train(Workload):
    name = "train"
    why = (
        "offline DDQN training with the Table VI network: env steps, "
        "updates, replay sampling, and the memo and co-run caches filling"
    )
    drain = False
    episodes = 30
    digest_units = 4
    #: the paper's Table VI hidden layers; updates start after 32
    #: transitions and take minibatches of 32 (defaults 256 and 64), so
    #: a short unit still learns and a run times over 1000 updates
    dqn = {"hidden": (512, 256, 128), "warmup_transitions": 32, "batch_size": 32}

    def setup(self, tracer=None) -> None:
        self.repository = OfflineTrainer(seed=self.seed).build_repository()

    def unit(self, index: int, tracer=None) -> UnitResult:
        corun_before = _corun_stats()
        t0 = clock()
        trainer = OfflineTrainer(
            seed=unit_seed(self.seed, index),
            dqn_overrides=dict(self.dqn),
        )
        if self.timing:
            # the agent is built inside train(): time its class's updates
            update = DuelingDoubleDQNAgent.train_step
            DuelingDoubleDQNAgent.train_step = timed(update, self.decide_samples)
            try:
                result = trainer.train(self.episodes, repository=self.repository)
            finally:
                DuelingDoubleDQNAgent.train_step = update
        else:
            result = trainer.train(self.episodes, repository=self.repository)
        wall = clock() - t0

        n = len(result.episode_returns)
        out = UnitResult(wall, n * trainer.window_size, self.episodes, 0)
        out.check(n == self.episodes, "training ran a different episode count")
        out.check(
            all(math.isfinite(g) and g > 0.0 for g in result.episode_throughputs),
            "an episode produced a non-positive throughput gain",
        )
        out.check(
            all(math.isfinite(r) for r in result.episode_returns),
            "an episode return is not finite",
        )
        out.sim = {"sim_gain": math.fsum(result.episode_throughputs) / n}
        memo = result.cache_stats["decisions"]
        out.counts = {
            "episodes": n,
            "env_steps": result.agent.env_steps,
            "memo_hits": memo.hits,
            "memo_lookups": memo.lookups,
        }
        out.counts.update(_corun_delta(corun_before))
        weights = hashlib.blake2b(digest_size=16)
        _hash_state(weights, result.agent.state_dict())
        out.digest = _digest((
            [repr(r) for r in result.episode_returns],
            [repr(g) for g in result.episode_throughputs],
            weights.hexdigest(),
        ))
        return out


# ----------------------------------------------------------------------
def _hash_state(h, value) -> None:
    """Feed a (nested) state dict into ``h``: array bytes, exact reprs."""
    if isinstance(value, dict):
        for key in sorted(value):
            h.update(str(key).encode())
            _hash_state(h, value[key])
    elif isinstance(value, (list, tuple)):
        for item in value:
            _hash_state(h, item)
    elif hasattr(value, "tobytes"):
        h.update(value.tobytes())
    else:
        h.update(repr(value).encode())


def _corun_stats():
    """The process-wide co-run cache counters, or None once a refactor
    has made that cache private (its layer is then reported absent)."""
    try:
        from repro.perfmodel.cache import corun_cache
    except ImportError:
        return None
    return corun_cache().stats


def _corun_delta(before) -> dict:
    after = _corun_stats()
    if before is None or after is None:
        return {}
    delta = after.delta(before)
    return {"corun_hits": delta.hits, "corun_lookups": delta.lookups}


WORKLOADS = {w.name: w for w in (FleetWarm, DecideCold, PlaceAgent, Train)}


def make_workload(name: str, seed: int, timing: bool = True) -> Workload:
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    return WORKLOADS[name](seed, timing=timing)
