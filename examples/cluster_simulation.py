#!/usr/bin/env python3
"""Multi-GPU cluster simulation — the paper's Section VI extension.

Scenario: a 4-GPU node pool draining a 96-job backlog. The two-level
scheduler (the event-driven fleet engine) dispatches 12-job windows to
GPUs as they free up; the
per-window policy switches between the RL co-scheduler (crowded) and
FCFS (light load) via the policy selector the paper sketches as future
work. The run is repeated with plain FCFS everywhere to quantify the
cluster-level benefit of node-local co-scheduling.

Run:  python examples/cluster_simulation.py [episodes]
"""

import sys

from repro import ActionCatalog, MixCategory, OfflineTrainer, OnlineOptimizer, QueueGenerator
from repro.cluster import ClusterState, CoSchedulingPolicy, FcfsPolicy, FleetEngine, PolicySelector
from repro.core.evaluation import profile_all_benchmarks
from repro.workloads.jobs import JobQueue

EPISODES = int(sys.argv[1]) if len(sys.argv) > 1 else 400
N_GPUS = 4
BACKLOG = 96


def build_backlog(seed: int) -> JobQueue:
    gen = QueueGenerator(seed=seed, training_only=False)
    names: list[str] = []
    cats = list(MixCategory)
    for i in range(BACKLOG // 12):
        names.extend(gen.queue(cats[i % 4], w=12).benchmark_names)
    return JobQueue.from_benchmarks(names, name="backlog")


def drain(selector: PolicySelector) -> dict:
    """Dispatch the backlog over a fresh cluster and summarise the run."""
    engine = FleetEngine(
        ClusterState.homogeneous(N_GPUS), selector, window_size=12, keep_history=True
    )
    engine.submit_queue(build_backlog(seed=42))
    result = engine.run()
    history = result.history
    per_node: dict[str, int] = {}
    for r in history:
        per_node[r.node_name] = per_node.get(r.node_name, 0) + 1
    return {
        "makespan": result.makespan,
        "utilization": result.utilization,
        "windows_dispatched": len(history),
        "mean_window_gain": sum(r.throughput_gain for r in history) / len(history),
        "windows_per_node": per_node,
    }


def main() -> None:
    print(f"training the node-local agent ({EPISODES} episodes) ...")
    trainer = OfflineTrainer(window_size=12, c_max=4, seed=0)
    result = trainer.train(episodes=EPISODES)
    profile_all_benchmarks(result.repository)

    optimizer = OnlineOptimizer(
        result.agent, result.repository, ActionCatalog(c_max=4), 12
    )
    selector = PolicySelector(
        co_scheduling=CoSchedulingPolicy(optimizer),
        fcfs=FcfsPolicy(),
        crowding_threshold=4,
    )

    print(f"\ndispatching {BACKLOG} jobs over {N_GPUS} GPUs (co-scheduling) ...")
    co = drain(selector)

    print("re-running the same backlog with FCFS only ...")
    fcfs_selector = PolicySelector(
        co_scheduling=CoSchedulingPolicy(optimizer),
        fcfs=FcfsPolicy(),
        crowding_threshold=10**9,  # never crowded -> always FCFS
    )
    fc = drain(fcfs_selector)

    print("\n=== cluster results ===")
    print(f"{'':<24s} {'co-scheduling':>14s} {'FCFS':>10s}")
    print(f"{'makespan [s]':<24s} {co['makespan']:14.1f} {fc['makespan']:10.1f}")
    print(f"{'mean window gain':<24s} {co['mean_window_gain']:14.3f} {fc['mean_window_gain']:10.3f}")
    print(f"{'utilization':<24s} {co['utilization']:14.3f} {fc['utilization']:10.3f}")
    print(f"{'windows dispatched':<24s} {co['windows_dispatched']:14d} {fc['windows_dispatched']:10d}")
    speedup = fc["makespan"] / co["makespan"]
    print(f"\ncluster-level speedup from node-local co-scheduling: x{speedup:.2f}")
    print("windows per GPU:", co["windows_per_node"])


if __name__ == "__main__":
    main()
