"""The benchmark ratchet: fresh measurements against the committed
``BENCH_*.json`` baselines.

Five measurements, each returning one document:

* :func:`measure_training_bench` — offline training with the memoized
  fast path on vs off (``BENCH_training.json``);
* :func:`measure_serving_bench` — per-window ``optimize`` vs batched
  ``optimize_many`` with the decision cache (``BENCH_serving.json``);
* :func:`measure_fleet_bench` — simulated completions per wall-clock
  minute on the event engine (``BENCH_fleet.json``);
* :func:`measure_hierarchy_bench` — the trained two-level policy vs the
  single-level placement baselines (``BENCH_hierarchy.json``);
* :func:`measure_overhead_bench` — telemetry-on vs telemetry-off fleet
  throughput, judged against a fixed budget instead of a file.

The ``-m perf`` suites call them at full size and record the committed
baselines; :data:`CONTRACT` lists what the gate ratchets and
:func:`compare` judges one document. Run the gate from the repo root::

    python benchmarks/gate.py

It has no options. It measures every document at the sizes below,
writes ``bench_<name>_fresh.json`` to the working directory, prints
one verdict row per contract row, and exits 1 on any regression.
``CI=true``, which GitHub Actions sets, picks the loose bound pair
(shared runners are noisy); any other value, or none, the local pair.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT):  # the package, then tests.oracles and perfbench
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

#: (document, dotted key, direction). ``higher``/``lower`` values
#: regress when they leave the tolerance band around the baseline;
#: ``true`` flags regress whenever the fresh document says false.
CONTRACT = (
    ("training", "speedup.episodes_per_sec_fastpath", "higher"),
    ("training", "speedup.speedup", "higher"),
    ("training", "hit_rate.corun_cache_tail.hit_rate", "higher"),
    ("training", "speedup.identical_returns", "true"),
    ("serving", "serving.decisions_per_sec_batched", "higher"),
    ("serving", "serving.speedup", "higher"),
    ("serving", "serving.p99_decision_latency_s", "lower"),
    ("serving", "serving.identical_schedules", "true"),
    ("fleet", "fleet.completions_per_min", "higher"),
    ("fleet", "fleet.identical_schedules", "true"),
    ("hierarchy", "hierarchy.makespan_improvement", "higher"),
    ("hierarchy", "hierarchy.fairness_ratio", "higher"),
    ("hierarchy", "hierarchy.placements_per_sec", "higher"),
    ("hierarchy", "hierarchy.beats_baseline", "true"),
    ("hierarchy", "hierarchy.fairness_no_worse", "true"),
    ("hierarchy", "hierarchy.off_flag_identical", "true"),
    ("overhead", "overhead.throughput_ratio", "higher"),
    ("overhead", "overhead.identical_stats", "true"),
)

#: (tolerance, overhead budget) on CI runners and locally
CI_BOUNDS = (0.75, 0.75)
LOCAL_BOUNDS = (0.15, 0.85)

#: gate sizes for the two measurements the perf suites run larger
TRAINING_EPISODES = 30
TRAINING_TIMED_RUNS = 2


class Check(NamedTuple):
    """One contract row's verdict."""

    document: str
    key: str
    baseline: float
    candidate: float
    regressed: bool


def lookup(doc: dict, dotted: str):
    node = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            raise ValueError(f"benchmark document is missing {dotted!r}")
        node = node[part]
    return node


def overhead_baseline(budget: float) -> dict:
    """The overhead document's baseline: the budget as a floor."""
    if not 0.0 < budget <= 1.0:
        raise ValueError(f"overhead budget must be in (0, 1], got {budget}")
    return {"overhead": {"throughput_ratio": budget, "identical_stats": True}}


def compare(
    document: str, baseline: dict, candidate: dict, tolerance: float
) -> list[Check]:
    """Judge ``candidate`` against ``baseline`` on ``document``'s rows.

    A ``higher`` value regresses below ``baseline * (1 - tolerance)``,
    a ``lower`` one above ``baseline * (1 + tolerance)``.
    """
    checks = []
    for doc_name, key, direction in CONTRACT:
        if doc_name != document:
            continue
        b, c = float(lookup(baseline, key)), float(lookup(candidate, key))
        if direction == "higher":
            regressed = c < b * (1.0 - tolerance)
        elif direction == "lower":
            regressed = c > b * (1.0 + tolerance)
        else:
            regressed = not c
        checks.append(Check(document, key, b, c, regressed))
    return checks


def judge(fresh: dict[str, dict], tolerance: float, budget: float) -> list[Check]:
    """Every contract row of the fresh documents, keyed by document
    name: the overhead document against ``budget``, the others against
    their committed ``BENCH_<name>.json`` within ``tolerance``."""
    checks: list[Check] = []
    for name, doc in fresh.items():
        if name == "overhead":
            checks += compare(name, overhead_baseline(budget), doc, 0.0)
        else:
            with open(ROOT / f"BENCH_{name}.json") as fh:
                checks += compare(name, json.load(fh), doc, tolerance)
    return checks


def format_checks(checks: list[Check]) -> str:
    lines = [f"{'metric':<40s} {'baseline':>12s} {'candidate':>12s} {'ratio':>7s}  verdict"]
    for c in checks:
        ratio = c.candidate / c.baseline if c.baseline > 0 else math.inf
        lines.append(
            f"{c.key:<40s} {c.baseline:12.4f} {c.candidate:12.4f} {ratio:7.3f}  "
            + ("REGRESSED" if c.regressed else "ok")
        )
    return "\n".join(lines)


def record(doc: dict, path) -> None:
    """Write ``doc`` with a ``machine`` block saying where it was measured."""
    from perfbench.machine import metadata

    with open(path, "w") as fh:
        json.dump({**doc, "machine": metadata(ROOT)}, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# measurements
# ----------------------------------------------------------------------
def _small_trainer(seed: int):
    """The small node-level trainer every serving-shape bench uses."""
    from repro.core.trainer import OfflineTrainer

    return OfflineTrainer(
        window_size=6,
        c_max=3,
        n_training_queues=4,
        seed=seed,
        dqn_overrides={
            "hidden": (64, 32),
            "warmup_transitions": 32,
            "batch_size": 16,
            "epsilon_decay_rate": 0.98,
        },
    )


def _selector_factory(agent, repository, c_max: int, window_size: int):
    """Fresh decision-cached co-scheduling selectors over one agent."""
    from repro.cluster.policy import CoSchedulingPolicy, FcfsPolicy, PolicySelector
    from repro.core.actions import ActionCatalog
    from repro.core.optimizer import OnlineOptimizer
    from repro.core.serving import DecisionCache

    def make_selector() -> PolicySelector:
        optimizer = OnlineOptimizer(
            agent,
            repository,
            ActionCatalog(c_max=c_max),
            window_size,
            decision_cache=DecisionCache(),
        )
        return PolicySelector(
            co_scheduling=CoSchedulingPolicy(optimizer),
            fcfs=FcfsPolicy(),
            crowding_threshold=1,
        )

    return make_selector


def measure_training_bench(episodes: int, timed_runs: int) -> dict:
    """Offline training A/B: the memoized fast path vs
    ``corun_cache_disabled``, best of ``timed_runs`` after one warm-up
    pass per mode, the bitwise identity of both modes' returns, and the
    co-run cache's hit rate over a greedy rollout once past its fill."""
    from repro.core.env import CoSchedulingEnv
    from repro.core.trainer import OfflineTrainer
    from repro.perfmodel.cache import corun_cache, corun_cache_disabled, reset_corun_cache

    repository = OfflineTrainer().build_repository()
    tr_on = OfflineTrainer()
    tr_off = OfflineTrainer()

    with corun_cache_disabled():
        tr_off.train(episodes=episodes, repository=repository)
    reset_corun_cache()
    tr_on.train(episodes=episodes, repository=repository)

    off_times, on_times = [], []
    result_off = result_on = None
    for _ in range(timed_runs):
        with corun_cache_disabled():
            t0 = perf_counter()
            result_off = tr_off.train(episodes=episodes, repository=repository)
            off_times.append(perf_counter() - t0)
        t0 = perf_counter()
        result_on = tr_on.train(episodes=episodes, repository=repository)
        on_times.append(perf_counter() - t0)

    identical = (
        result_on.episode_returns == result_off.episode_returns
        and result_on.episode_throughputs == result_off.episode_throughputs
    )
    best_off, best_on = min(off_times), min(on_times)
    corun = result_on.cache_stats["corun"]
    decisions = result_on.cache_stats["decisions"]
    # each decision replayed from the step memo stands in for one
    # group evaluation
    evals = corun.lookups + decisions.hits

    # greedy rollout with the step memo off, so every group evaluation
    # reaches the co-run cache and the tail rate is the cache's own
    agent = result_on.agent
    agent.freeze()
    env = CoSchedulingEnv(
        windows=tr_on._windows,
        repository=repository,
        catalog=tr_on.catalog,
        window_size=tr_on.window_size,
        reward_config=tr_on.reward_config,
        seed=tr_on.seed,
        binding=tr_on.binding,
        memoize_decisions=False,
    )
    reset_corun_cache()
    warmup = min(10, max(episodes // 5, 1))
    snapshot = corun_cache().stats  # zero; overwritten at the warmup mark
    for episode in range(episodes):
        if episode == warmup:
            snapshot = corun_cache().stats
        obs, info = env.reset()
        done = False
        while not done:
            action = agent.act(obs, info["action_mask"])
            obs, _, terminated, truncated, info = env.step(action)
            done = terminated or truncated
    tail = corun_cache().stats.delta(snapshot)

    return {
        "speedup": {
            "episodes": episodes,
            "timed_runs": timed_runs,
            "off_times_s": off_times,
            "on_times_s": on_times,
            "episodes_per_sec_reference": episodes / best_off,
            "episodes_per_sec_fastpath": episodes / best_on,
            "speedup": best_off / best_on,
            "corun_evals_per_sec_fastpath": evals / best_on,
            "corun_cache": corun.to_dict(),
            "decision_memo": decisions.to_dict(),
            "identical_returns": identical,
        },
        "hit_rate": {
            "episodes": episodes,
            "measured_after_episode": warmup,
            "policy": "greedy",
            "corun_cache_tail": tail.to_dict(),
        },
    }


def measure_serving_bench(
    episodes: int = 20,
    n_windows: int = 64,
    distinct_windows: int = 8,
    batch_size: int = 16,
    timed_runs: int = 3,
) -> dict:
    """Serving throughput and latency on a stream of ``n_windows``
    windows drawn from ``distinct_windows`` contents (fresh submissions
    in permuted order: many nodes, few distinct workloads).

    The reference path runs ``OnlineOptimizer.optimize`` per window
    with no decision cache; the batched path runs ``optimize_many`` in
    chunks of ``batch_size`` over a ``DecisionCache``. A first pass
    through both is the identity check (it exercises the cold-miss and
    intra-batch-duplicate branches); the timed passes run cache-warm.
    """
    import numpy as np

    from repro.core.optimizer import OnlineOptimizer
    from repro.core.serving import DecisionCache, schedule_fingerprint
    from repro.workloads.generator import QueueGenerator
    from repro.workloads.jobs import Job

    seed = 7
    trainer = _small_trainer(seed)
    result = trainer.train(episodes=episodes)

    gen = QueueGenerator(seed=seed + 1, training_only=True)
    pool = [
        q.window(trainer.window_size)
        for q in gen.training_queues(n=distinct_windows, w=trainer.window_size)
    ]
    rng = np.random.default_rng(seed)
    stream = []
    for i in range(n_windows):
        base = pool[i % distinct_windows]
        stream.append([Job.submit(base[j].benchmark_name) for j in rng.permutation(len(base))])

    def make_optimizer(cache):
        return OnlineOptimizer(
            result.agent,
            result.repository,
            trainer.catalog,
            trainer.window_size,
            reward_config=trainer.reward_config,
            decision_cache=cache,
        )

    opt_ref = make_optimizer(None)
    cache = DecisionCache()
    opt_fast = make_optimizer(cache)
    chunks = [stream[i:i + batch_size] for i in range(0, n_windows, batch_size)]

    ref_decisions = [opt_ref.optimize(w) for w in stream]
    fast_decisions = [d for chunk in chunks for d in opt_fast.optimize_many(chunk)]
    identical = all(
        schedule_fingerprint(r.schedule) == schedule_fingerprint(f.schedule)
        for r, f in zip(ref_decisions, fast_decisions)
    )

    ref_times: list[float] = []
    fast_times: list[float] = []
    latencies: list[float] = []
    for _ in range(timed_runs):
        t0 = perf_counter()
        for w in stream:
            opt_ref.optimize(w)
        ref_times.append(perf_counter() - t0)
        t0 = perf_counter()
        run_decisions = [d for chunk in chunks for d in opt_fast.optimize_many(chunk)]
        fast_times.append(perf_counter() - t0)
        latencies = [d.decision_seconds for d in run_decisions]

    best_ref = max(min(ref_times), 1e-12)
    best_fast = max(min(fast_times), 1e-12)
    lat = np.asarray(latencies, dtype=np.float64)
    return {
        "serving": {
            "n_windows": n_windows,
            "distinct_windows": distinct_windows,
            "batch_size": batch_size,
            "timed_runs": timed_runs,
            "reference_times_s": ref_times,
            "batched_times_s": fast_times,
            "decisions_per_sec_reference": n_windows / best_ref,
            "decisions_per_sec_batched": n_windows / best_fast,
            "speedup": best_ref / best_fast,
            "p50_decision_latency_s": float(np.quantile(lat, 0.50)),
            "p99_decision_latency_s": float(np.quantile(lat, 0.99)),
            "decision_cache": cache.stats.to_dict(),
            "identical_schedules": bool(identical),
        },
    }


def _matches_reference(make_selector, window_size: int, seed: int) -> bool:
    """A fault-free ``FleetEngine`` drain of eight balanced windows over
    3 GPUs reproduces ``reference_dispatch``'s dispatch records and
    schedule fingerprints, float for float."""
    from repro.cluster.fleet import FleetEngine
    from repro.cluster.node import ClusterState
    from repro.core.serving import schedule_fingerprint
    from repro.workloads.generator import MixCategory, QueueGenerator
    from repro.workloads.jobs import Job
    from tests.oracles.dispatch import reference_dispatch

    gen = QueueGenerator(seed=seed, training_only=True)
    names: list[str] = []
    for _ in range(8):
        names.extend(gen.queue(MixCategory.BALANCED, w=window_size).benchmark_names)
    jobs = [Job.submit(name) for name in names]
    records, schedules = reference_dispatch(
        ClusterState.homogeneous(3), make_selector(), window_size, jobs
    )
    engine = FleetEngine(
        ClusterState.homogeneous(3), make_selector(),
        window_size=window_size, keep_history=True,
    )
    for job in jobs:
        engine.submit(job, at=0.0)
    result = engine.run()
    return records == result.history and [
        schedule_fingerprint(s) for s in schedules
    ] == [schedule_fingerprint(s) for s in result.schedules]


def measure_fleet_bench(n_jobs: int = 120_000, warmup_jobs: int = 20_000) -> dict:
    """Simulated completions per wall-clock minute: an open-loop
    Poisson stream of ``n_jobs`` drained over 1000 GPUs by the
    ``FleetEngine``, timed after a ``warmup_jobs`` drain has filled the
    decision cache, plus the engine's identity with the dispatch
    oracle on a small cluster."""
    from repro.cluster.fleet import FleetEngine
    from repro.cluster.node import ClusterState
    from repro.core.evaluation import profile_all_benchmarks
    from repro.workloads.arrivals import PoissonArrivals
    from repro.workloads.suite import TRAINING_SET

    n_nodes, seed, pool_size, arrival_rate = 1000, 7, 6, 5000.0
    trainer = _small_trainer(seed)
    result = trainer.train(episodes=20)
    repository = result.repository.copy()
    profile_all_benchmarks(repository)
    make_selector = _selector_factory(
        result.agent, repository, trainer.c_max, trainer.window_size
    )
    pool = sorted(TRAINING_SET)[:pool_size]
    selector = make_selector()

    def drain(jobs: int, arrival_seed: int):
        engine = FleetEngine(
            ClusterState.homogeneous(n_nodes), selector, window_size=trainer.window_size
        )
        engine.attach_arrivals(PoissonArrivals(
            rate=arrival_rate, pool=pool, n_jobs=jobs, seed=arrival_seed,
        ))
        t0 = perf_counter()
        fleet_result = engine.run()
        return fleet_result, perf_counter() - t0

    drain(warmup_jobs, arrival_seed=seed + 1)
    fleet_result, wall = drain(n_jobs, arrival_seed=seed + 2)
    wall = max(wall, 1e-12)
    identical = _matches_reference(make_selector, trainer.window_size, seed + 3)

    return {
        "fleet": {
            "n_nodes": n_nodes,
            "n_jobs": n_jobs,
            "warmup_jobs": warmup_jobs,
            "pool_size": pool_size,
            "arrival_rate": arrival_rate,
            "window_size": trainer.window_size,
            "wall_seconds": wall,
            "completions_per_min": fleet_result.stats.completed / wall * 60.0,
            "completed": fleet_result.stats.completed,
            "windows": fleet_result.stats.windows,
            "simulated_makespan": fleet_result.makespan,
            "utilization": fleet_result.utilization,
            "mean_wait": fleet_result.stats.mean_wait,
            "identical_schedules": bool(identical),
        },
    }


def measure_overhead_bench() -> dict:
    """Telemetry overhead on the same seeded fleet drain, three ways:

    * **off** — nothing observed;
    * **telemetry** — live ``Telemetry``, ``PhaseTimers``, a wall-clock
      decision timer and rollup frames at 1/32 of the makespan;
      ``throughput_ratio = wall_off / wall_telemetry`` is the gated
      number;
    * **full** — telemetry plus a ``LifecycleTracer`` streaming one
      span tree per job to JSONL, reported (``lifecycle_ratio``) but
      not gated.

    Each mode warms its own decision cache, and the timed repeats are
    interleaved and best-of, so the ratios compare steady states. All
    drains' simulated ``FleetStats`` must agree (``identical_stats``).
    """
    from repro.cluster.fleet import FleetEngine
    from repro.cluster.node import ClusterState
    from repro.core.evaluation import profile_all_benchmarks
    from repro.obs.phase import PhaseTimers
    from repro.obs.trace import LifecycleTracer
    from repro.telemetry import Telemetry
    from repro.workloads.arrivals import PoissonArrivals
    from repro.workloads.suite import TRAINING_SET

    n_nodes, n_jobs, warmup_jobs, timed_runs = 64, 3000, 500, 5
    seed, pool_size, arrival_rate, episodes = 7, 4, 200.0, 10
    trainer = _small_trainer(seed)
    result = trainer.train(episodes=episodes)
    repository = result.repository.copy()
    profile_all_benchmarks(repository)
    make_selector = _selector_factory(
        result.agent, repository, trainer.c_max, trainer.window_size
    )
    pool = sorted(TRAINING_SET)[:pool_size]

    def drain(selector, jobs: int, mode: str, lifecycle_path=None, checkpoint_interval=None):
        lifecycle = profile = None
        kwargs: dict = {}
        if mode != "off":
            profile = PhaseTimers(clock=perf_counter)
            kwargs = dict(telemetry=Telemetry(), profile=profile, decision_clock=perf_counter)
            if mode == "full":
                lifecycle = LifecycleTracer(seed=seed, path=lifecycle_path)
                kwargs["lifecycle"] = lifecycle
        engine = FleetEngine(
            ClusterState.homogeneous(n_nodes), selector,
            window_size=trainer.window_size, **kwargs,
        )
        if mode != "off" and checkpoint_interval is not None:
            engine.schedule_checkpoints(checkpoint_interval)
        engine.attach_arrivals(PoissonArrivals(
            rate=arrival_rate, pool=pool, n_jobs=jobs, seed=seed + 1,
        ))
        t0 = perf_counter()
        fleet_result = engine.run()
        wall = perf_counter() - t0
        if lifecycle is not None:
            lifecycle.close()
        return fleet_result, max(wall, 1e-12), profile

    with tempfile.TemporaryDirectory() as tmp:
        sel_off, sel_tel, sel_full = make_selector(), make_selector(), make_selector()
        result_off, _, _ = drain(sel_off, warmup_jobs, "off")
        drain(sel_tel, warmup_jobs, "telemetry")
        drain(sel_full, warmup_jobs, "full",
              lifecycle_path=os.path.join(tmp, "warmup_lifecycle.jsonl"))
        interval = max(result_off.makespan * (n_jobs / warmup_jobs) / 32.0, 1e-3)
        # interleaved so machine drift biases every mode equally
        wall_off = wall_tel = wall_full = math.inf
        for _ in range(timed_runs):
            result_off, wall, _ = drain(sel_off, n_jobs, "off")
            wall_off = min(wall_off, wall)
            result_tel, wall, profile = drain(
                sel_tel, n_jobs, "telemetry", checkpoint_interval=interval,
            )
            wall_tel = min(wall_tel, wall)
            result_full, wall, _ = drain(
                sel_full, n_jobs, "full",
                lifecycle_path=os.path.join(tmp, "lifecycle.jsonl"),
                checkpoint_interval=interval,
            )
            wall_full = min(wall_full, wall)

    def simulated_stats(fleet_result) -> dict:
        # the wall-clock decision timings and the checkpoint counter
        # exist only on observed runs
        return {
            k: v for k, v in fleet_result.stats.to_dict().items()
            if not k.startswith("placement_decision") and k != "checkpoints"
        }

    reference = simulated_stats(result_off)
    identical = (
        simulated_stats(result_tel) == reference
        and simulated_stats(result_full) == reference
    )
    return {
        "overhead": {
            "n_nodes": n_nodes,
            "n_jobs": n_jobs,
            "warmup_jobs": warmup_jobs,
            "pool_size": pool_size,
            "arrival_rate": arrival_rate,
            "episodes": episodes,
            "timed_runs": timed_runs,
            "window_size": trainer.window_size,
            "wall_seconds_off": wall_off,
            "wall_seconds_telemetry": wall_tel,
            "wall_seconds_full": wall_full,
            "completions_per_min_off": result_off.stats.completed / wall_off * 60.0,
            "completions_per_min_telemetry": result_tel.stats.completed / wall_tel * 60.0,
            "throughput_ratio": wall_off / wall_tel,
            "lifecycle_ratio": wall_off / wall_full,
            "phases": profile.to_dict(),
            "identical_stats": bool(identical),
        },
    }


#: two long CI programs, two MI, two short US: the widest spread in
#: pair affinity and solo time, the two signals the placement level can
#: exploit and the class-blind baselines cannot
HIERARCHY_BENCH_POOL = ("hotspot3D", "lavaMD", "lud_A", "stream", "kmeans", "pathfinder")


def measure_hierarchy_bench() -> dict:
    """The two-level policy at 100 nodes: ``JointTrainer`` trains the
    node-level DDQN and then the placement DQN, and one held-out
    Poisson stream is drained under the trained agent and under the
    least-loaded / round-robin / random baselines, all over the same
    node-level selector. Everything but the wall-clock fields is
    deterministic. ``off_flag_identical`` checks that a placement-free
    engine over the trained node level matches the dispatch oracle."""
    from repro.hierarchy import (
        JointTrainer,
        LeastLoadedPlacement,
        RandomPlacement,
        RoundRobinPlacement,
        evaluate_placement,
    )
    from repro.power.model import PowerModel
    from repro.workloads.arrivals import PoissonArrivals

    n_nodes, eval_jobs, arrival_rate, seed = 100, 2000, 40.0, 7
    node_episodes, placement_episodes, jobs_per_episode = 12, 10, 300
    pool = list(HIERARCHY_BENCH_POOL)
    trainer = JointTrainer(
        n_nodes=n_nodes,
        window_size=6,
        c_max=3,
        seed=seed,
        jobs_per_episode=jobs_per_episode,
        arrival_rate=arrival_rate,
        pool=pool,
        node_episodes=node_episodes,
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
    t0 = perf_counter()
    joint = trainer.train(episodes=placement_episodes)
    train_wall = perf_counter() - t0

    power = PowerModel()
    policies = [
        joint.placement,
        LeastLoadedPlacement(),
        RoundRobinPlacement(),
        RandomPlacement(seed),
    ]
    per_policy: dict[str, dict] = {}
    for policy in policies:
        t0 = perf_counter()
        fr = evaluate_placement(
            policy,
            trainer.selector,
            n_nodes,
            # held out: a seed no training episode uses
            PoissonArrivals(rate=arrival_rate, pool=pool, n_jobs=eval_jobs, seed=seed + 17),
            window_size=trainer.window_size,
            power_model=power,
        )
        wall = max(perf_counter() - t0, 1e-12)
        per_policy[policy.name] = {
            "makespan": fr.makespan,
            "fairness_jain": fr.fairness_jain,
            "mean_wait": fr.stats.mean_wait,
            "mean_turnaround": fr.stats.mean_turnaround,
            "utilization": fr.utilization,
            "completed": fr.stats.completed,
            "energy_joules": fr.energy_joules,
            "joules_per_job": fr.joules_per_job,
            "perf_per_watt": fr.perf_per_watt,
            "wall_seconds": wall,
        }
    agent = per_policy["agent"]
    least_loaded = per_policy["least-loaded"]
    baselines = {k: v for k, v in per_policy.items() if k != "agent"}
    best_name = min(baselines, key=lambda k: baselines[k]["makespan"])
    best = baselines[best_name]

    make_selector = _selector_factory(
        joint.node.agent, trainer.repository, trainer.c_max, trainer.window_size
    )
    off_flag_identical = _matches_reference(make_selector, trainer.window_size, seed + 3)

    return {
        "hierarchy": {
            "n_nodes": n_nodes,
            "eval_jobs": eval_jobs,
            "arrival_rate": arrival_rate,
            "window_size": trainer.window_size,
            "pool": pool,
            "node_episodes": node_episodes,
            "placement_episodes": placement_episodes,
            "jobs_per_episode": jobs_per_episode,
            "train_wall_seconds": train_wall,
            "policies": per_policy,
            "best_baseline": best_name,
            "makespan_improvement": least_loaded["makespan"] / agent["makespan"],
            "makespan_improvement_vs_best": best["makespan"] / agent["makespan"],
            "fairness_ratio": agent["fairness_jain"] / least_loaded["fairness_jain"],
            "placements_per_sec": eval_jobs / agent["wall_seconds"],
            "beats_baseline": bool(agent["makespan"] < best["makespan"]),
            "fairness_no_worse": bool(
                agent["fairness_jain"] >= least_loaded["fairness_jain"] - 0.01
            ),
            "off_flag_identical": bool(off_flag_identical),
        },
    }


def main() -> int:
    tolerance, budget = CI_BOUNDS if os.environ.get("CI") == "true" else LOCAL_BOUNDS
    measurements = {
        "training": lambda: measure_training_bench(TRAINING_EPISODES, TRAINING_TIMED_RUNS),
        "serving": measure_serving_bench,
        "fleet": measure_fleet_bench,
        "hierarchy": measure_hierarchy_bench,
        "overhead": measure_overhead_bench,
    }
    fresh = {}
    for name, measure in measurements.items():
        print(f"measuring {name} ...", flush=True)
        fresh[name] = measure()
        record(fresh[name], f"bench_{name}_fresh.json")
    checks = judge(fresh, tolerance, budget)
    print(f"tolerance {tolerance}, overhead budget {budget}")
    print(format_checks(checks))
    if any(c.regressed for c in checks):
        print("bench gate: REGRESSED")
        return 1
    print("bench gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
