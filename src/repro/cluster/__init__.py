"""Cluster-scale extension (paper Section VI).

The paper argues the node-local optimization carries over to clusters
by adding one more level of resource assignment — node/GPU selection —
on top of the hierarchical partitioning. This package implements that
extension:

* :mod:`repro.cluster.node` — a node hosting one or more simulated
  GPUs, each with its own wall clock;
* :mod:`repro.cluster.policy` — the policy-selection mechanism the
  paper sketches: co-scheduling for over-crowded queues, plain FCFS
  when the system is lightly loaded;
* :mod:`repro.cluster.fleet` — the two-level scheduler as a
  discrete-event engine: the top level dispatches job windows to GPUs
  as they free up, the bottom level is the node-local RL optimizer (or
  any window scheduler); open-loop arrivals and admission control
  scale it to thousands of nodes and millions of jobs;
* :mod:`repro.cluster.batch` — a Slurm-shaped batch-system facade
  (sbatch/squeue/sinfo/scancel/sacct) over the fleet engine, the
  integration surface the paper names as future work;
* :mod:`repro.cluster.reference` — the fault-free per-round dispatch
  loop, kept as the engine's bitwise identity oracle.

The engine is failure-aware: attach a
:class:`repro.faults.FaultInjector` and it retries transient device /
MIG-reconfiguration faults with exponential backoff, degrades
unconfigurable groups to solo runs, re-queues crashed jobs up to a
retry cap, and falls back to FCFS when the window policy raises.
"""

from repro.faults import FaultConfig, FaultInjector, FaultKind, RetryPolicy
from repro.cluster.node import ExecutionOutcome, GpuNode, ClusterState
from repro.cluster.policy import PolicySelector, FcfsPolicy, CoSchedulingPolicy
from repro.cluster.batch import BatchSystem, BatchJob, JobState
from repro.cluster.fleet import (
    AdmissionPolicy,
    AdmitAll,
    BoundedQueue,
    DispatchRecord,
    EventHeap,
    EventKind,
    FleetEngine,
    FleetResult,
    FleetSnapshot,
    FleetStats,
    TokenBucket,
)

__all__ = [
    "FaultConfig",
    "FaultInjector",
    "FaultKind",
    "RetryPolicy",
    "ExecutionOutcome",
    "GpuNode",
    "ClusterState",
    "DispatchRecord",
    "PolicySelector",
    "FcfsPolicy",
    "CoSchedulingPolicy",
    "BatchSystem",
    "BatchJob",
    "JobState",
    "AdmissionPolicy",
    "AdmitAll",
    "BoundedQueue",
    "EventHeap",
    "EventKind",
    "FleetEngine",
    "FleetResult",
    "FleetSnapshot",
    "FleetStats",
    "TokenBucket",
]
