"""Command-line interface: ``repro-gpu`` / ``python -m repro``.

Subcommands cover the pipeline stages:

* ``profile``  — profile suite programs, print the Table III counters,
  optionally persist the repository to JSON;
* ``classify`` — reproduce the Table IV CI/MI/US classification;
* ``variants`` — list partition variants per concurrency (Table VII)
  and the 19 MIG configurations;
* ``train``    — run offline training, report convergence, save weights;
* ``schedule`` — schedule one of the paper's queues (Q1..Q12) with a
  chosen method and print the resulting groups and metrics;
* ``cluster``  — drain a queue through the Slurm-like batch system on a
  multi-GPU cluster, optionally under seeded fault injection
  (``--faults RATE``) to exercise the retry/fallback machinery;
  ``--json PATH`` dumps the full accounting as one machine-readable
  document and ``--telemetry DIR`` writes trace/metrics artifacts;
* ``trace``    — run a cluster scenario with telemetry always on and
  write ``trace.json`` (Perfetto-loadable), ``metrics.prom``
  (Prometheus text format), and ``timeline.json`` (per-device busy
  intervals) to an output directory;
* ``alerts``   — run a cluster scenario with the insight anomaly/SLO
  detectors over its telemetry and print the raised alerts;
* ``fleet``    — drain an open-loop arrival process (Poisson or
  diurnal-burst, with a choice of admission policy) over a GPU fleet
  through the event engine; ``--placement`` picks the cluster-level
  router — the trained two-level ``agent`` or a classic baseline —
  and the report includes energy and fairness accounting;
* ``benchgate`` — diff a fresh training benchmark against the
  committed ``BENCH_training.json`` with tolerance bands; exits
  non-zero on regression (the CI perf gate);
* ``statcheck`` — run the repo's determinism-invariant linter
  (DESIGN.md §11) over the configured paths; exits non-zero on any
  finding not grandfathered in the baseline (the CI static gate).

``--insight DIR`` (on ``train``/``schedule``/``cluster``/``trace``/
``alerts``/``fleet``) attaches the decision flight recorder and writes
``decisions.jsonl`` plus the regret analysis (``regret.jsonl``,
``worst_decisions.txt``) to the directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from repro.core.actions import ActionCatalog
from repro.core.baselines import (
    MigMpsDefaultScheduler,
    MigOnlyScheduler,
    MpsOnlyScheduler,
    TimeSharingScheduler,
)
from repro.cluster import (
    BatchSystem,
    ClusterState,
    CoSchedulingPolicy,
    FcfsPolicy,
    JobState,
    PolicySelector,
)
from repro.core.evaluation import profile_all_benchmarks
from repro.core.metrics import evaluate_schedule
from repro.core.optimizer import OnlineOptimizer
from repro.core.trainer import OfflineTrainer
from repro.errors import ReproError
from repro.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.gpu.arch import A100_40GB
from repro.gpu.device import SimulatedGpu
from repro.gpu.mig import enumerate_gi_combinations
from repro.gpu.partition import format_partition
from repro.gpu.variants import enumerate_hierarchical, enumerate_mps_only
from repro.profiling.classify import classify
from repro.profiling.profiler import NsightProfiler
from repro.profiling.repository import ProfileRepository
from repro.telemetry import (
    NULL_TELEMETRY,
    Telemetry,
    device_timelines,
    utilization_from_timelines,
    write_artifacts,
)
from repro.workloads.generator import paper_queues
from repro.workloads.jobs import Job
from repro.workloads.suite import BENCHMARKS

__all__ = ["main"]


def _cmd_profile(args: argparse.Namespace) -> int:
    device = SimulatedGpu(A100_40GB)
    profiler = NsightProfiler(device, noise=args.noise)
    repo = ProfileRepository()
    names = args.programs or sorted(BENCHMARKS)
    print(f"{'program':<18s} {'solo[s]':>8s} {'1gpc[s]':>8s} "
          f"{'SM%':>6s} {'Mem%':>6s}")
    for name in names:
        job = Job.submit(name)
        profile = profiler.profile(job)
        repo.store(job, profile)
        c = profile.counters
        print(
            f"{name:<18s} {profile.solo_time:8.2f} {profile.one_gpc_time:8.2f} "
            f"{c.compute_sm_pct:6.1f} {c.memory_pct:6.1f}"
        )
    if args.output:
        repo.save(args.output)
        print(f"\nsaved {len(repo)} profiles to {args.output}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    device = SimulatedGpu(A100_40GB)
    profiler = NsightProfiler(device, noise=args.noise)
    by_class: dict[str, list[str]] = {"CI": [], "MI": [], "US": []}
    for name in sorted(BENCHMARKS):
        profile = profiler.profile(Job.submit(name))
        by_class[classify(profile)].append(name)
    for cls, members in by_class.items():
        print(f"{cls}: {', '.join(members)}")
    return 0


def _cmd_variants(args: argparse.Namespace) -> int:
    print("MIG GI configurations (19 on the A100):")
    for cfg in enumerate_gi_combinations(A100_40GB):
        print("  " + " + ".join(f"{w}g@{s}" for s, w in cfg))
    for c in range(2, args.c_max + 1):
        mps = enumerate_mps_only(c)
        hier = enumerate_hierarchical(A100_40GB, c)
        print(f"\nC={c}: {len(mps)} MPS-only, {len(hier)} MIG+MPS variants")
        if args.verbose:
            for v in hier:
                print(f"  {v.label}")
    return 0


def _make_recorder(args: argparse.Namespace):
    """A DecisionRecorder when ``--insight DIR`` was given, else None."""
    if not getattr(args, "insight", None):
        return None
    from repro.insight import DecisionRecorder

    return DecisionRecorder()


def _write_insight_artifacts(
    recorder, repository: ProfileRepository, out_dir: str, out=None
) -> dict[str, str]:
    """Write ``decisions.jsonl``, ``regret.jsonl`` and
    ``worst_decisions.txt`` from a populated recorder; prints the
    regret report. Returns ``{artifact_name: path}``."""
    from repro.analysis import regret_report
    from repro.insight import (
        RegretAnalyzer,
        write_decision_log,
        write_regret_jsonl,
    )

    out = out if out is not None else sys.stdout
    os.makedirs(out_dir, exist_ok=True)
    paths: dict[str, str] = {}

    paths["decisions"] = os.path.join(out_dir, "decisions.jsonl")
    n = write_decision_log(recorder, paths["decisions"])

    analyses = RegretAnalyzer(repository).analyze_recorder(recorder)
    paths["regret"] = os.path.join(out_dir, "regret.jsonl")
    write_regret_jsonl(analyses, paths["regret"])

    report = regret_report(analyses)
    paths["report"] = os.path.join(out_dir, "worst_decisions.txt")
    with open(paths["report"], "w") as fh:
        fh.write(report)

    print(f"\ninsight: {n} records over {len(analyses)} windows", file=out)
    print(report, end="", file=out)
    print("insight artifacts: " + "  ".join(paths.values()), file=out)
    return paths


def _cmd_train(args: argparse.Namespace) -> int:
    telemetry = Telemetry() if args.telemetry else NULL_TELEMETRY
    recorder = _make_recorder(args)
    trainer = OfflineTrainer(
        window_size=args.window,
        c_max=args.c_max,
        n_training_queues=args.queues,
        seed=args.seed,
        telemetry=telemetry,
        recorder=recorder,
    )
    print(
        f"training: W={args.window} C_max={args.c_max} "
        f"{args.queues} queues x {args.episodes} episodes"
    )
    result = trainer.train(episodes=args.episodes)
    h = result.episode_throughputs
    chunk = max(1, len(h) // 8)
    for i in range(0, len(h), chunk):
        print(
            f"  episodes {i:5d}-{min(i + chunk, len(h)):5d}: "
            f"mean gain {np.mean(h[i:i + chunk]):.3f}"
        )
    print(f"final epsilon: {result.agent.epsilon:.4f}")
    if args.output:
        from repro.rl.checkpoint import save_agent

        save_agent(result.agent, args.output)
        print(f"saved agent checkpoint to {args.output}")
    if args.telemetry:
        paths = write_artifacts(telemetry, args.telemetry)
        print("telemetry artifacts: " + "  ".join(paths.values()))
    if recorder is not None:
        _write_insight_artifacts(recorder, result.repository, args.insight)
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    queues = paper_queues()
    if args.queue not in queues:
        print(f"unknown queue {args.queue}; choose from {sorted(queues)}")
        return 2
    window = queues[args.queue].window(args.window)
    telemetry = Telemetry() if args.telemetry else NULL_TELEMETRY

    repo = ProfileRepository()
    profile_all_benchmarks(repo)
    recorder = _make_recorder(args)
    if recorder is not None and args.method != "rl":
        print("--insight records RL decisions only; ignoring for "
              f"method {args.method}")
        recorder = None

    if args.method == "rl":
        trainer = OfflineTrainer(
            window_size=args.window,
            c_max=args.c_max,
            seed=args.seed,
            telemetry=telemetry,
        )
        result = trainer.train(episodes=args.episodes)
        profile_all_benchmarks(result.repository)
        repo = result.repository
        optimizer = OnlineOptimizer(
            result.agent,
            result.repository,
            ActionCatalog(c_max=args.c_max),
            args.window,
            telemetry=telemetry,
            recorder=recorder,
        )
        schedule = optimizer.optimize(window).schedule
    elif args.method == "oracle":
        from repro.core.oracle import OracleScheduler

        scheduler = OracleScheduler(
            repo, ActionCatalog(c_max=args.c_max), window_size=args.window
        )
        schedule = scheduler.schedule(window)
    else:
        scheduler = {
            "timeshare": TimeSharingScheduler(),
            "mig": MigOnlyScheduler(repo),
            "mps": MpsOnlyScheduler(repo, args.c_max),
            "default": MigMpsDefaultScheduler(repo, args.c_max),
        }[args.method]
        schedule = scheduler.schedule(window)

    print(f"\nschedule for {args.queue} ({schedule.method}):")
    for i, group in enumerate(schedule.groups):
        names = ", ".join(j.benchmark_name for j in group.jobs)
        print(
            f"  group {i}: C={group.concurrency} "
            f"{format_partition(group.partition):<55s} "
            f"t={group.corun_time:7.1f}s  [{names}]"
        )
    metrics = evaluate_schedule(schedule)
    print(
        f"\nthroughput x{metrics.throughput_gain:.3f}  "
        f"avg slowdown {metrics.avg_slowdown:.3f}  "
        f"fairness {metrics.fairness:.3f}"
    )
    if args.telemetry:
        # One-shot schedulers execute nothing, so render the planned
        # schedule as back-to-back groups on a single synthetic device.
        start = 0.0
        for i, group in enumerate(schedule.groups):
            telemetry.span(
                "run_group",
                "device0",
                start,
                start + group.corun_time,
                category="schedule",
                group=i,
                concurrency=group.concurrency,
                partition=format_partition(group.partition),
                jobs=", ".join(j.benchmark_name for j in group.jobs),
            )
            start += group.corun_time
        paths = write_artifacts(
            telemetry, args.telemetry,
            makespan=schedule.total_time, n_tracks=1,
        )
        print("telemetry artifacts: " + "  ".join(paths.values()))
    if recorder is not None:
        _write_insight_artifacts(recorder, repo, args.insight)
    return 0


@dataclasses.dataclass
class _ClusterRun:
    """What ``_run_cluster_scenario`` hands back to the subcommands."""

    bs: BatchSystem
    injector: FaultInjector | None
    recorder: object | None
    repository: ProfileRepository


def _run_cluster_scenario(
    args: argparse.Namespace, telemetry: Telemetry, out=None
) -> _ClusterRun | None:
    """Train the node-local agent, assemble the batch system, drain the
    queue. Shared by ``cluster``/``trace``/``alerts``; returns ``None``
    (after printing a hint) for an unknown queue name. Progress lines go
    to ``out`` (stderr when ``--json -`` claims stdout for the document)."""
    out = out if out is not None else sys.stdout
    queues = paper_queues()
    if args.queue not in queues:
        print(
            f"unknown queue {args.queue}; choose from {sorted(queues)}",
            file=out,
        )
        return None
    names = queues[args.queue].benchmark_names * args.repeat

    trainer = OfflineTrainer(
        window_size=args.window,
        c_max=args.c_max,
        seed=args.seed,
        telemetry=telemetry,
    )
    print(
        f"training the node-local agent ({args.episodes} episodes) ...",
        file=out,
    )
    result = trainer.train(episodes=args.episodes)
    profile_all_benchmarks(result.repository)
    recorder = _make_recorder(args)
    optimizer = OnlineOptimizer(
        result.agent,
        result.repository,
        ActionCatalog(c_max=args.c_max),
        args.window,
        telemetry=telemetry,
        recorder=recorder,
    )
    selector = PolicySelector(
        co_scheduling=CoSchedulingPolicy(optimizer),
        fcfs=FcfsPolicy(),
        crowding_threshold=args.crowding,
    )
    injector = None
    if args.faults > 0:
        injector = FaultInjector(
            FaultConfig.uniform(args.faults, seed=args.fault_seed)
        )
    bs = BatchSystem(
        cluster=ClusterState.homogeneous(args.gpus),
        selector=selector,
        window_size=args.window,
        min_batch=2,
        faults=injector,
        retry=RetryPolicy(max_retries=args.max_retries),
        max_retries=args.max_retries,
        telemetry=telemetry,
    )
    for name in names:
        bs.sbatch(name)
    print(f"draining {len(names)} jobs over {args.gpus} GPUs ...", file=out)
    bs.drain()
    return _ClusterRun(bs, injector, recorder, result.repository)


def _cluster_document(
    args: argparse.Namespace, bs: BatchSystem, injector: FaultInjector | None
) -> dict:
    """The machine-readable run summary behind ``cluster --json``."""
    return {
        "queue": args.queue,
        "gpus": args.gpus,
        "window_size": args.window,
        "fault_rate": args.faults,
        "job_states": {s.value: len(bs.squeue(s)) for s in JobState},
        "sacct": bs.sacct(),
        "utilization": bs.cluster.utilization(),
        "fault_summary": injector.summary() if injector is not None else None,
        "dispatch_history": [dataclasses.asdict(r) for r in bs.history],
        "nodes": bs.sinfo(),
    }


def _cmd_cluster(args: argparse.Namespace) -> int:
    telemetry = Telemetry() if args.telemetry else NULL_TELEMETRY
    # With ``--json -`` stdout carries the document alone; the
    # human-readable report moves to stderr so the output stays pipeable.
    out = sys.stderr if args.json == "-" else sys.stdout
    run = _run_cluster_scenario(args, telemetry, out=out)
    if run is None:
        return 2
    bs, injector = run.bs, run.injector

    counts = {s.value: len(bs.squeue(s)) for s in JobState}
    print(
        "\njob states: " + "  ".join(f"{k}={v}" for k, v in counts.items()),
        file=out,
    )
    if args.json:
        doc = _cluster_document(args, bs, injector)
        if args.json == "-":
            json.dump(doc, sys.stdout, indent=1, sort_keys=True)
            sys.stdout.write("\n")
        else:
            with open(args.json, "w") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"wrote run document to {args.json}", file=out)
    if args.telemetry:
        paths = write_artifacts(
            telemetry,
            args.telemetry,
            makespan=bs.cluster.makespan,
            n_tracks=len(bs.cluster.nodes),
        )
        print("telemetry artifacts: " + "  ".join(paths.values()), file=out)
    if run.recorder is not None:
        _write_insight_artifacts(
            run.recorder, run.repository, args.insight, out=out
        )
    acct = bs.sacct()
    if acct["completed"] == 0:
        print("no job completed (fault rate too high?)", file=out)
        return 1
    for key in (
        "completed",
        "failed",
        "cancelled",
        "job_retries",
        "dispatch_retries",
        "fallback_windows",
        "degraded_groups",
    ):
        print(f"{key:<18s} {acct[key]:8d}", file=out)
    for key in ("mean_wait", "mean_turnaround", "makespan"):
        print(f"{key:<18s} {acct[key]:10.1f}s", file=out)
    print(f"{'utilization':<18s} {bs.cluster.utilization():10.3f}", file=out)
    if injector is not None:
        inj = injector.summary()
        print(
            "injected faults: "
            + "  ".join(f"{k}={v}" for k, v in inj.items()),
            file=out,
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    telemetry = Telemetry()
    run = _run_cluster_scenario(args, telemetry)
    if run is None:
        return 2
    bs, injector = run.bs, run.injector

    paths = write_artifacts(
        telemetry,
        args.out,
        makespan=bs.cluster.makespan,
        n_tracks=len(bs.cluster.nodes),
    )
    tracer = telemetry.tracer
    timelines = device_timelines(tracer)
    util = utilization_from_timelines(
        timelines, bs.cluster.makespan, len(bs.cluster.nodes)
    )
    print(f"\ntrace: {len(tracer)} records on {len(tracer.tracks())} tracks"
          f" ({tracer.dropped} dropped)")
    for track in tracer.tracks():
        n_spans = len(tracer.spans(track=track))
        n_events = len(tracer.events(track=track))
        print(f"  {track:<8s} {n_spans:4d} spans  {n_events:4d} events")
    print(f"utilization from timeline: {util:.3f} "
          f"(cluster reports {bs.cluster.utilization():.3f})")
    if injector is not None:
        inj = injector.summary()
        print("injected faults: " + "  ".join(f"{k}={v}" for k, v in inj.items()))
    for name, path in paths.items():
        print(f"{name:<9s} {path}")
    if run.recorder is not None:
        _write_insight_artifacts(run.recorder, run.repository, args.insight)
    return 0


def _cmd_alerts(args: argparse.Namespace) -> int:
    from repro.analysis import alerts_table
    from repro.insight import AlertEngine, write_alerts_jsonl

    telemetry = Telemetry()
    run = _run_cluster_scenario(args, telemetry)
    if run is None:
        return 2
    bs = run.bs

    alerts = AlertEngine(telemetry).scan()
    print()
    print(alerts_table(alerts), end="")
    if run.injector is not None:
        inj = run.injector.summary()
        print("injected faults: " + "  ".join(f"{k}={v}" for k, v in inj.items()))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        alerts_path = os.path.join(args.out, "alerts.jsonl")
        write_alerts_jsonl(alerts, alerts_path)
        paths = write_artifacts(
            telemetry,
            args.out,
            makespan=bs.cluster.makespan,
            n_tracks=len(bs.cluster.nodes),
        )
        print(
            "alert artifacts: "
            + "  ".join([alerts_path, *paths.values()])
        )
    if run.recorder is not None:
        _write_insight_artifacts(run.recorder, run.repository, args.insight)
    if alerts and args.fail_on_alert:
        return 1
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.cluster.fleet import (
        AdmitAll,
        BoundedQueue,
        FleetEngine,
        TokenBucket,
    )
    from repro.core.serving import DecisionCache
    from repro.hierarchy import (
        JointTrainer,
        LeastLoadedPlacement,
        RandomPlacement,
        RoundRobinPlacement,
    )
    from repro.power.model import PowerModel
    from repro.workloads.arrivals import DiurnalBurstArrivals, PoissonArrivals
    from repro.workloads.suite import TRAINING_SET

    from repro.clock import perf_clock
    from repro.obs import (
        LifecycleTracer,
        PhaseTimers,
        lifecycle_chrome_trace,
        read_lifecycle_jsonl,
        write_frames_jsonl,
    )

    telemetry = Telemetry() if args.telemetry else NULL_TELEMETRY
    out = sys.stderr if args.json == "-" else sys.stdout
    pool = sorted(TRAINING_SET)[: args.pool_size]

    lifecycle = profile = decision_clock = None
    if args.telemetry:
        os.makedirs(args.telemetry, exist_ok=True)
        lifecycle = LifecycleTracer(
            seed=args.seed,
            path=os.path.join(args.telemetry, "lifecycle.jsonl"),
        )
    if args.profile:
        # wall-clock self-profiling is opt-in so the default --json
        # document stays byte-deterministic
        profile = PhaseTimers(clock=perf_clock)
        decision_clock = perf_clock

    trainer = JointTrainer(
        n_nodes=args.nodes,
        window_size=args.window,
        c_max=args.c_max,
        seed=args.seed,
        jobs_per_episode=args.jobs_per_episode,
        arrival_rate=args.rate,
        pool=pool,
        node_episodes=args.episodes,
        prioritized=True,
        crowding_threshold=args.crowding,
        affinity_weight=0.5,
    )
    if args.placement == "agent":
        print(
            f"training both levels ({args.episodes} node episodes, "
            f"{args.placement_episodes} placement episodes) ...",
            file=out,
        )
        joint = trainer.train(episodes=args.placement_episodes)
        placement = joint.placement
        node_agent = joint.node.agent
    else:
        print(
            f"training the node-level agent ({args.episodes} episodes) ...",
            file=out,
        )
        node_agent = trainer.prepare_node_level().agent
        placement = {
            "least-loaded": LeastLoadedPlacement(),
            "round-robin": RoundRobinPlacement(),
            "random": RandomPlacement(args.seed),
        }[args.placement]

    # rebuild the serving selector so --telemetry/--insight attach to
    # the optimizer that actually schedules the drain
    recorder = _make_recorder(args)
    optimizer = OnlineOptimizer(
        node_agent,
        trainer.repository,
        ActionCatalog(c_max=args.c_max),
        args.window,
        telemetry=telemetry,
        recorder=recorder,
        decision_cache=DecisionCache(),
    )
    selector = PolicySelector(
        co_scheduling=CoSchedulingPolicy(optimizer),
        fcfs=FcfsPolicy(),
        crowding_threshold=args.crowding,
    )

    if args.admission == "bounded":
        admission = BoundedQueue(args.max_pending)
    elif args.admission == "token-bucket":
        admission = TokenBucket(
            args.admit_rate if args.admit_rate is not None else args.rate,
            burst=args.admit_burst,
        )
    else:
        admission = AdmitAll()

    if args.arrivals == "diurnal":
        peak = args.peak_rate if args.peak_rate is not None else 2.0 * args.rate
        arrivals = DiurnalBurstArrivals(
            base_rate=args.rate,
            peak_rate=peak,
            pool=pool,
            n_jobs=args.jobs,
            period=args.period,
            seed=args.seed + 17,
        )
    else:
        arrivals = PoissonArrivals(
            rate=args.rate, pool=pool, n_jobs=args.jobs, seed=args.seed + 17
        )

    placement.reset()
    engine = FleetEngine(
        ClusterState.homogeneous(args.nodes),
        selector,
        window_size=args.window,
        admission=admission,
        placement=placement,
        power_model=PowerModel(),
        telemetry=telemetry,
        lifecycle=lifecycle,
        profile=profile,
        decision_clock=decision_clock,
    )
    if args.telemetry:
        interval = args.checkpoint_interval
        if interval is None:
            # ~32 rollup frames across the expected arrival span
            interval = max((args.jobs / args.rate) / 32.0, 1e-3)
        engine.schedule_checkpoints(interval)
    engine.attach_arrivals(arrivals)
    print(
        f"draining {args.jobs} {args.arrivals} arrivals over "
        f"{args.nodes} nodes ({placement.name} placement) ...",
        file=out,
    )
    result = engine.run()

    summary = engine.summary()
    print(file=out)
    for key in (
        "submitted", "admitted", "rejected", "completed", "failed", "windows",
    ):
        print(f"{key:<18s} {summary[key]:10d}", file=out)
    print(f"{'makespan':<18s} {result.makespan:10.1f}s", file=out)
    print(f"{'utilization':<18s} {result.utilization:10.3f}", file=out)
    for key in ("mean_wait", "mean_turnaround"):
        print(f"{key:<18s} {summary[key]:10.1f}s", file=out)
    print(f"{'fairness_jain':<18s} {summary['fairness_jain']:10.3f}", file=out)
    print(f"{'energy_joules':<18s} {summary['energy_joules']:10.0f}", file=out)
    print(f"{'joules_per_job':<18s} {summary['joules_per_job']:10.1f}", file=out)
    print(f"{'perf_per_watt':<18s} {summary['perf_per_watt']:10.4f}", file=out)
    for key in ("queue_wait_p50", "queue_wait_p95", "queue_wait_p99"):
        print(f"{key:<18s} {summary[key]:10.1f}s", file=out)
    if args.profile:
        for key in (
            "placement_decision_p50_s",
            "placement_decision_p95_s",
            "placement_decision_p99_s",
        ):
            print(f"{key:<25s} {summary[key] * 1e6:10.1f}us", file=out)
        phases = profile.to_dict()
        print(f"{'profile_total':<25s} "
              f"{phases['total_seconds'] * 1e3:10.1f}ms", file=out)
        for name, row in phases["phases"].items():
            print(f"  {name:<16s} {row['seconds'] * 1e3:8.1f}ms "
                  f"({row['fraction'] * 100:5.1f}%, "
                  f"{row['calls']} calls)", file=out)

    if args.json:
        doc = {
            "nodes": args.nodes,
            "jobs": args.jobs,
            "rate": args.rate,
            "arrivals": args.arrivals,
            "admission": args.admission,
            "placement": placement.name,
            "window_size": args.window,
            "seed": args.seed,
            "summary": summary,
            "makespan": result.makespan,
            "utilization": result.utilization,
            "placements": [list(p) for p in result.placements],
        }
        if args.profile:
            doc["phases"] = profile.to_dict()
        if args.json == "-":
            json.dump(doc, sys.stdout, indent=1, sort_keys=True)
            sys.stdout.write("\n")
        else:
            with open(args.json, "w") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"wrote run document to {args.json}", file=out)
    if args.telemetry:
        lifecycle.close()
        paths = write_artifacts(
            telemetry,
            args.telemetry,
            makespan=engine.cluster.makespan,
            n_tracks=len(engine.cluster.nodes),
        )
        frames_path = os.path.join(args.telemetry, "frames.jsonl")
        write_frames_jsonl(engine.snapshots, frames_path)
        paths["frames"] = frames_path
        lifecycle_path = os.path.join(args.telemetry, "lifecycle.jsonl")
        chrome_path = os.path.join(args.telemetry, "lifecycle_trace.json")
        with open(chrome_path, "w") as fh:
            json.dump(
                lifecycle_chrome_trace(read_lifecycle_jsonl(lifecycle_path)),
                fh, sort_keys=True,
            )
            fh.write("\n")
        paths["lifecycle"] = lifecycle_path
        paths["lifecycle_trace"] = chrome_path
        summary_path = os.path.join(args.telemetry, "fleet.json")
        with open(summary_path, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
        paths["fleet"] = summary_path
        print("telemetry artifacts: " + "  ".join(paths.values()), file=out)
    if recorder is not None:
        _write_insight_artifacts(
            recorder, trainer.repository, args.insight, out=out
        )
    if summary["completed"] == 0:
        print("no job completed (admission too tight?)", file=out)
        return 1
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.insight import BurnRateConfig, scan_burn_rate
    from repro.obs import load_run, render_top

    run = load_run(args.dir)
    alerts = scan_burn_rate(
        run["frames"], BurnRateConfig(slo_wait_seconds=args.slo)
    )
    print(render_top(run, alerts=alerts, width=args.width))
    if alerts and args.fail_on_burn:
        return 1
    return 0


def _cmd_benchgate(args: argparse.Namespace) -> int:
    from repro.insight import benchgate as bg

    baseline = bg.load_bench(args.baseline)
    if args.candidate:
        candidate = bg.load_bench(args.candidate)
    elif args.measure:
        print(
            f"measuring a fresh training benchmark "
            f"({args.episodes} episodes x {args.timed_runs} timed runs) ..."
        )
        candidate = bg.measure_training_bench(
            episodes=args.episodes, timed_runs=args.timed_runs
        )
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(candidate, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote measured candidate to {args.out}")
    else:
        print("benchgate needs --candidate PATH or --measure")
        return 2

    checks = bg.compare_bench(baseline, candidate, tolerance=args.tolerance)
    print(bg.format_checks(checks))

    serving_checks = []
    if args.serving_baseline:
        serving_baseline = bg.load_bench(args.serving_baseline)
        if args.serving_candidate:
            serving_candidate = bg.load_bench(args.serving_candidate)
        else:
            print("measuring a fresh serving benchmark ...")
            serving_candidate = bg.measure_serving_bench()
            if args.serving_out:
                with open(args.serving_out, "w") as fh:
                    json.dump(serving_candidate, fh, indent=2, sort_keys=True)
                    fh.write("\n")
                print(f"wrote measured serving candidate to {args.serving_out}")
        serving_checks = bg.compare_serving_bench(
            serving_baseline, serving_candidate, tolerance=args.tolerance
        )
        print(bg.format_checks(serving_checks))

    fleet_checks = []
    if args.fleet_baseline:
        fleet_baseline = bg.load_bench(args.fleet_baseline)
        if args.fleet_candidate:
            fleet_candidate = bg.load_bench(args.fleet_candidate)
        else:
            print("measuring a fresh fleet benchmark ...")
            fleet_candidate = bg.measure_fleet_bench()
            if args.fleet_out:
                with open(args.fleet_out, "w") as fh:
                    json.dump(fleet_candidate, fh, indent=2, sort_keys=True)
                    fh.write("\n")
                print(f"wrote measured fleet candidate to {args.fleet_out}")
        fleet_checks = bg.compare_fleet_bench(
            fleet_baseline, fleet_candidate, tolerance=args.tolerance
        )
        print(bg.format_checks(fleet_checks))

    hierarchy_checks = []
    if args.hierarchy_baseline:
        hierarchy_baseline = bg.load_bench(args.hierarchy_baseline)
        if args.hierarchy_candidate:
            hierarchy_candidate = bg.load_bench(args.hierarchy_candidate)
        else:
            print("measuring a fresh hierarchy benchmark ...")
            hierarchy_candidate = bg.measure_hierarchy_bench()
            if args.hierarchy_out:
                with open(args.hierarchy_out, "w") as fh:
                    json.dump(hierarchy_candidate, fh, indent=2, sort_keys=True)
                    fh.write("\n")
                print(
                    "wrote measured hierarchy candidate to "
                    f"{args.hierarchy_out}"
                )
        hierarchy_checks = bg.compare_hierarchy_bench(
            hierarchy_baseline, hierarchy_candidate, tolerance=args.tolerance
        )
        print(bg.format_checks(hierarchy_checks))

    overhead_checks = []
    if args.overhead:
        print("measuring telemetry overhead (off vs telemetry vs full) ...")
        overhead_doc = bg.measure_overhead_bench(
            n_jobs=args.overhead_jobs, timed_runs=args.overhead_runs
        )
        if args.overhead_out:
            with open(args.overhead_out, "w") as fh:
                json.dump(overhead_doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote measured overhead document to {args.overhead_out}")
        overhead_checks = bg.compare_overhead_bench(
            overhead_doc, budget=args.overhead_budget
        )
        print(bg.format_checks(overhead_checks))

    if (
        bg.gate_passes(checks)
        and bg.gate_passes(serving_checks)
        and bg.gate_passes(fleet_checks)
        and bg.gate_passes(hierarchy_checks)
        and bg.gate_passes(overhead_checks)
    ):
        print("bench gate: PASS")
        return 0
    print("bench gate: REGRESSED")
    return 1


def _cmd_statcheck(args: argparse.Namespace) -> int:
    from repro.statcheck import (
        StatcheckError,
        check_paths,
        load_config,
        update_baseline,
    )
    from repro.statcheck.sarif import to_sarif

    fmt = "json" if args.json else args.format
    try:
        config = load_config(args.root)
        report = check_paths(
            paths=args.paths or None,
            config=config,
            use_baseline=not args.no_baseline,
        )
        if args.write_baseline:
            path = update_baseline(report, config)
            print(
                f"wrote {len(report.new) + len(report.grandfathered)} "
                f"finding(s) to {path}",
                file=sys.stderr,
            )
            return 0
    except StatcheckError as exc:
        print(f"statcheck: error: {exc}", file=sys.stderr)
        return 2
    if fmt == "json":
        json.dump(report.to_dict(), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
    elif fmt == "sarif":
        json.dump(to_sarif(report), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(report.render(verbose=args.verbose))
    return 0 if report.clean else 1


def _int_at_least(low: int):
    """An argparse ``type`` for integers ``>= low``, so a bad count is
    rejected before any training starts."""

    def count(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid count value"
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return count


def _float_above(low: float):
    """An argparse ``type`` for finite floats ``> low``."""

    def number(text: str) -> float:
        value = float(text)  # argparse reports a ValueError as "invalid number value"
        if not low < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be > {low}, got {value}")
        return value

    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gpu",
        description="Hierarchical GPU resource partitioning via RL "
        "(CLUSTER 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    positive = _int_at_least(1)

    p = sub.add_parser("profile", help="profile suite programs")
    p.add_argument("programs", nargs="*", help="program names (default: all)")
    p.add_argument("--noise", type=float, default=0.01)
    p.add_argument("--output", help="save repository JSON here")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("classify", help="reproduce Table IV")
    p.add_argument("--noise", type=float, default=0.02)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("variants", help="list partition variants")
    p.add_argument("--c-max", type=int, default=4)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=_cmd_variants)

    p = sub.add_parser("train", help="offline RL training")
    p.add_argument("--window", type=positive, default=12)
    p.add_argument("--c-max", type=int, default=4)
    p.add_argument("--queues", type=int, default=20)
    p.add_argument("--episodes", type=positive, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="save the trained agent checkpoint (.npz) here")
    p.add_argument("--telemetry", metavar="DIR",
                   help="record training metrics and write telemetry "
                        "artifacts to this directory")
    p.add_argument("--insight", metavar="DIR",
                   help="record per-step decisions and write decisions/"
                        "regret artifacts to this directory")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("schedule", help="schedule a Table V queue")
    p.add_argument("queue", help="Q1..Q12")
    p.add_argument(
        "--method",
        choices=("rl", "oracle", "timeshare", "mig", "mps", "default"),
        default="rl",
    )
    p.add_argument("--window", type=positive, default=12)
    p.add_argument("--c-max", type=int, default=4)
    p.add_argument("--episodes", type=positive, default=800)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--telemetry", metavar="DIR",
                   help="write trace/metrics/timeline artifacts for the "
                        "planned schedule to this directory")
    p.add_argument("--insight", metavar="DIR",
                   help="(rl only) record the optimizer's decisions and "
                        "write decisions/regret artifacts here")
    p.set_defaults(fn=_cmd_schedule)

    def add_cluster_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("queue", nargs="?", default="Q1", help="Q1..Q12")
        p.add_argument("--gpus", type=positive, default=2)
        p.add_argument("--repeat", type=positive, default=1,
                       help="submit the queue this many times")
        p.add_argument("--window", type=positive, default=12)
        p.add_argument("--c-max", type=int, default=4)
        p.add_argument("--episodes", type=positive, default=800)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--crowding", type=int, default=2,
                       help="queue depth per free GPU that triggers "
                            "co-scheduling")
        p.add_argument("--faults", type=float, default=0.0,
                       help="per-decision fault rate for every fault kind "
                            "(0 disables injection)")
        p.add_argument("--fault-seed", type=int, default=0,
                       help="seed for the deterministic fault injector")
        p.add_argument("--max-retries", type=_int_at_least(0), default=3,
                       help="retry cap for transient faults and job re-queues")
        p.add_argument("--insight", metavar="DIR",
                       help="record per-window RL decisions and write "
                            "decisions/regret artifacts to this directory")

    p = sub.add_parser(
        "cluster",
        help="drain a queue through the Slurm-like batch system",
    )
    add_cluster_args(p)
    p.add_argument("--json", metavar="PATH",
                   help="dump accounting, job states, utilization, fault "
                        "summary, and dispatch history as one JSON document "
                        "('-' for stdout)")
    p.add_argument("--telemetry", metavar="DIR",
                   help="record traces/metrics and write trace.json, "
                        "metrics.prom, and timeline.json to this directory")
    p.set_defaults(fn=_cmd_cluster)

    p = sub.add_parser(
        "trace",
        help="run a cluster scenario with telemetry on and export "
             "Perfetto/Prometheus/timeline artifacts",
    )
    add_cluster_args(p)
    p.add_argument("--out", metavar="DIR", default="out",
                   help="artifact directory (default: out/)")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "alerts",
        help="run a cluster scenario and scan its telemetry with the "
             "insight anomaly/SLO detectors",
    )
    add_cluster_args(p)
    p.add_argument("--out", metavar="DIR",
                   help="also write alerts.jsonl plus the trace/metrics/"
                        "timeline artifacts here")
    p.add_argument("--fail-on-alert", action="store_true",
                   help="exit 1 if any alert is raised (CI gating)")
    p.set_defaults(fn=_cmd_alerts)

    p = sub.add_parser(
        "fleet",
        help="drain an open-loop arrival process over a GPU fleet "
             "through the event engine, with a choice of placement "
             "policy (two-level agent or classic baselines)",
    )
    p.add_argument("--nodes", type=positive, default=16,
                   help="fleet size in single-GPU nodes")
    p.add_argument("--jobs", type=positive, default=400,
                   help="arrivals to drain")
    p.add_argument("--rate", type=_float_above(0.0), default=8.0,
                   help="mean arrival rate, jobs per simulated second")
    p.add_argument("--arrivals", choices=("poisson", "diurnal"),
                   default="poisson",
                   help="arrival process shape")
    p.add_argument("--peak-rate", type=_float_above(0.0), default=None,
                   help="diurnal crest rate (default: 2x --rate)")
    p.add_argument("--period", type=_float_above(0.0), default=600.0,
                   help="diurnal period in simulated seconds")
    p.add_argument("--pool-size", type=positive, default=6,
                   help="distinct benchmarks in the arrival mix")
    p.add_argument("--admission",
                   choices=("admit-all", "bounded", "token-bucket"),
                   default="admit-all",
                   help="backpressure policy at the fleet door")
    p.add_argument("--max-pending", type=positive, default=512,
                   help="queue bound (with --admission bounded)")
    p.add_argument("--admit-rate", type=_float_above(0.0), default=None,
                   help="token refill rate (with --admission "
                        "token-bucket; default: --rate)")
    p.add_argument("--admit-burst", type=float, default=16.0,
                   help="token bucket burst capacity")
    p.add_argument("--placement",
                   choices=("agent", "least-loaded", "round-robin", "random"),
                   default="least-loaded",
                   help="cluster-level routing policy (agent trains the "
                        "placement DQN first)")
    p.add_argument("--window", type=positive, default=6)
    p.add_argument("--c-max", type=positive, default=3)
    p.add_argument("--episodes", type=positive, default=12,
                   help="node-level offline training episodes")
    p.add_argument("--placement-episodes", type=positive, default=10,
                   help="placement-level rollout episodes "
                        "(with --placement agent)")
    p.add_argument("--jobs-per-episode", type=positive, default=100,
                   help="arrivals per placement training rollout")
    p.add_argument("--crowding", type=int, default=1,
                   help="queue depth per free GPU that triggers "
                        "co-scheduling")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", metavar="PATH",
                   help="dump accounting, energy/fairness, and the "
                        "placement trace as one JSON document "
                        "('-' for stdout)")
    p.add_argument("--telemetry", metavar="DIR",
                   help="record metrics/traces plus the observability "
                        "artifacts (lifecycle.jsonl span trees, "
                        "frames.jsonl rollups, lifecycle_trace.json, "
                        "fleet.json) to this directory")
    p.add_argument("--checkpoint-interval", type=float, default=None,
                   help="rollup frame cadence in simulated seconds "
                        "(default: ~32 frames across the arrival span; "
                        "with --telemetry)")
    p.add_argument("--profile", action="store_true",
                   help="attribute wall-clock time to engine phases and "
                        "time placement decisions (non-deterministic "
                        "fields; off by default)")
    p.add_argument("--insight", metavar="DIR",
                   help="record per-window RL decisions and write "
                        "decisions/regret artifacts to this directory")
    p.set_defaults(fn=_cmd_fleet)

    p = sub.add_parser(
        "top",
        help="render fleet health (rollup sparklines, lifecycle outcome "
             "mix, burn-rate SLO status) from a fleet run directory",
    )
    p.add_argument("dir", nargs="?", default="out",
                   help="fleet run directory holding frames.jsonl / "
                        "lifecycle.jsonl / fleet.json (default: out/)")
    p.add_argument("--slo", type=float, default=7200.0,
                   help="queue-wait p95 SLO in simulated seconds for the "
                        "burn-rate scan")
    p.add_argument("--width", type=int, default=48,
                   help="sparkline width in characters")
    p.add_argument("--fail-on-burn", action="store_true",
                   help="exit 1 if the burn-rate monitor fires (CI gating)")
    p.set_defaults(fn=_cmd_top)

    p = sub.add_parser(
        "benchgate",
        help="diff a training benchmark against the committed baseline "
             "and fail on regression",
    )
    p.add_argument("--baseline", default="BENCH_training.json",
                   help="committed baseline JSON "
                        "(default: BENCH_training.json)")
    p.add_argument("--candidate", metavar="PATH",
                   help="candidate benchmark JSON to compare")
    p.add_argument("--measure", action="store_true",
                   help="measure a fresh candidate in-process instead of "
                        "reading one")
    p.add_argument("--episodes", type=int, default=30,
                   help="episodes per measured run (with --measure)")
    p.add_argument("--timed-runs", type=int, default=2,
                   help="timed repetitions, best-of (with --measure)")
    p.add_argument("--tolerance", type=float, default=None,
                   help="allowed fractional drop per ratio check "
                        "(default 0.15)")
    p.add_argument("--out", metavar="PATH",
                   help="write the measured candidate JSON here")
    p.add_argument("--serving-baseline", metavar="PATH",
                   help="also gate the serving benchmark against this "
                        "baseline (e.g. BENCH_serving.json)")
    p.add_argument("--serving-candidate", metavar="PATH",
                   help="serving candidate JSON to compare (default: "
                        "measure a fresh one in-process)")
    p.add_argument("--serving-out", metavar="PATH",
                   help="write the measured serving candidate JSON here")
    p.add_argument("--fleet-baseline", metavar="PATH",
                   help="also gate the fleet benchmark against this "
                        "baseline (e.g. BENCH_fleet.json)")
    p.add_argument("--fleet-candidate", metavar="PATH",
                   help="fleet candidate JSON to compare (default: "
                        "measure a fresh one in-process)")
    p.add_argument("--fleet-out", metavar="PATH",
                   help="write the measured fleet candidate JSON here")
    p.add_argument("--hierarchy-baseline", metavar="PATH",
                   help="also gate the two-level placement benchmark "
                        "against this baseline (e.g. BENCH_hierarchy.json)")
    p.add_argument("--hierarchy-candidate", metavar="PATH",
                   help="hierarchy candidate JSON to compare (default: "
                        "measure a fresh one in-process)")
    p.add_argument("--hierarchy-out", metavar="PATH",
                   help="write the measured hierarchy candidate JSON here")
    p.add_argument("--overhead", action="store_true",
                   help="also measure the telemetry-overhead benchmark "
                        "and gate the telemetry-plane throughput ratio "
                        "against --overhead-budget")
    p.add_argument("--overhead-budget", type=float, default=0.85,
                   help="minimum telemetry-on / telemetry-off fleet "
                        "throughput ratio (default: 0.85)")
    p.add_argument("--overhead-jobs", type=int, default=3000,
                   help="fleet drain size for the overhead benchmark")
    p.add_argument("--overhead-runs", type=int, default=5,
                   help="interleaved timed repetitions, best-of")
    p.add_argument("--overhead-out", metavar="PATH",
                   help="write the measured overhead document JSON here")
    p.set_defaults(fn=_cmd_benchgate)

    p = sub.add_parser(
        "statcheck",
        help="run the determinism-invariant linter (DET/OBS/HYG rules); "
             "exits 1 on any finding not in the baseline",
    )
    p.add_argument("paths", nargs="*",
                   help="files/directories to check "
                        "(default: [tool.statcheck] paths)")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable report on stdout "
                        "(alias for --format json)")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text",
                   help="report format; sarif emits a SARIF 2.1.0 log "
                        "for code-scanning upload (default: text)")
    p.add_argument("--root", metavar="DIR",
                   help="repo root holding pyproject.toml "
                        "(default: discovered from cwd)")
    p.add_argument("--no-baseline", action="store_true",
                   help="report every finding, ignoring the baseline file")
    p.add_argument("--write-baseline", action="store_true",
                   help="accept the current findings as the new baseline "
                        "(the ratchet step; the file may only shrink)")
    p.add_argument("--verbose", action="store_true",
                   help="append each rule's fix-it guidance to the report")
    p.set_defaults(fn=_cmd_statcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        # a domain error is a bad input, not a crash: one line, exit 2
        print(f"repro-gpu {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
