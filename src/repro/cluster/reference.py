"""The fault-free two-level dispatch round, kept as an identity oracle.

:class:`~repro.cluster.fleet.FleetEngine` is the only production
dispatch loop; tests and ``benchgate`` check its fault-free dispatch
log bitwise against the plain per-round loop it grew out of: each
round takes every GPU that frees at the earliest time, cuts one FIFO
window per GPU in node order, and schedules the round as one batch.
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.clock import time_le
from repro.errors import SchedulingError
from repro.faults import RetryPolicy
from repro.cluster.fleet import DispatchRecord
from repro.cluster.node import ClusterState
from repro.cluster.policy import PolicySelector
from repro.workloads.jobs import Job

__all__ = ["reference_dispatch"]


def reference_dispatch(
    cluster: ClusterState,
    selector: PolicySelector,
    window_size: int,
    jobs: list[Job],
) -> tuple[list[DispatchRecord], list]:
    """Dispatch ``jobs`` FIFO over ``cluster``; returns the dispatch
    records and the schedule of every window, in dispatch order."""
    if window_size < 1:
        raise SchedulingError("window size must be positive")
    queue = deque(jobs)
    records: list[DispatchRecord] = []
    schedules: list = []
    nodes = cluster.nodes
    avail_heap = [(node.available_at, i) for i, node in enumerate(nodes)]
    heapq.heapify(avail_heap)
    while queue:
        t_min = avail_heap[0][0]
        popped = [heapq.heappop(avail_heap)]
        while avail_heap and time_le(avail_heap[0][0], t_min):
            popped.append(heapq.heappop(avail_heap))
        popped.sort(key=lambda entry: entry[1])
        cuts: list[tuple] = []
        for k, (_, i) in enumerate(popped):
            if not queue:
                break
            w = min(window_size, len(queue))
            window = [queue.popleft() for _ in range(w)]
            policy = selector.select(
                queue_depth=len(queue) + w, free_gpus=len(popped) - k
            )
            cuts.append((nodes[i], window, policy))
        scheduled = selector.schedule_batch(
            [(window, policy) for _, window, policy in cuts]
        )
        for (node, window, policy), (schedule, fell_back) in zip(cuts, scheduled):
            if fell_back:
                policy = selector.fcfs
            start = node.available_at
            outcome = node.execute_schedule_ft(schedule, RetryPolicy())
            records.append(DispatchRecord(
                node_name=node.name,
                policy_name=policy.name,
                window_size=len(window),
                start_time=start,
                end_time=outcome.end_time,
                throughput_gain=schedule.throughput_gain,
                retries=outcome.retries,
                fell_back=fell_back,
                n_failed=len(outcome.failed_job_ids),
            ))
            schedules.append(schedule)
        for _, i in popped:
            heapq.heappush(avail_heap, (nodes[i].available_at, i))
    return records, schedules
