"""Per-node loop oracle for the placement level's array fast path.

These are the original walks over every node and every queued job that
:class:`repro.hierarchy.features.PlacementObservation` and
:class:`repro.hierarchy.placement.LeastLoadedPlacement` replaced with
reads of the engine's :class:`~repro.cluster.fleet.NodeArrays`. They
read only the engine's per-node accessors (queues, idle flags, running
mixes, ``cluster.nodes``), never the arrays, so the tests can pin the
fast path bitwise against them.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.fleet import FleetEngine, window_signature
from repro.hierarchy.features import (
    _CLIP,
    CORUN_SPEED,
    N_GLOBAL_FEATURES,
    N_NODE_FEATURES,
    PlacementObservation,
    job_class_index,
)


def node_backlog_seconds(engine: FleetEngine, index: int) -> float:
    """Queued solo seconds on node ``index`` compressed by the assumed
    co-run speed."""
    total = 0.0
    for job, _ in engine.node_queue(index):
        total += job.solo_time
    return total / CORUN_SPEED


def node_finish_estimate(engine: FleetEngine, index: int) -> float:
    """Availability horizon plus the queued backlog estimate."""
    until_free = max(
        engine.cluster.nodes[index].available_at - engine.now, 0.0
    )
    return until_free + node_backlog_seconds(engine, index)


def observe(
    obs: PlacementObservation, engine: FleetEngine, benchmark_name: str
) -> np.ndarray:
    """The placement observation, one node and one queued job at a time."""
    x = np.zeros(obs.n_nodes * N_NODE_FEATURES + N_GLOBAL_FEATURES)
    now = engine.now
    w = float(obs.window_size)
    nodes = engine.cluster.nodes
    total_pending = 0
    idle_nodes = 0
    for i in range(obs.n_nodes):
        queue = engine.node_queue(i)
        depth = len(queue)
        total_pending += depth
        base = i * N_NODE_FEATURES
        x[base] = min(depth / w, _CLIP)
        if engine.node_is_idle(i):
            idle_nodes += 1
        else:
            x[base + 1] = 1.0
        until_free = max(nodes[i].available_at - now, 0.0)
        x[base + 2] = min(until_free / obs.time_scale, _CLIP)
        if depth:
            hist = [0, 0, 0]
            for job, _ in queue:
                hist[job_class_index(job.benchmark_name)] += 1
            for c in range(3):
                x[base + 3 + c] = hist[c] / depth
        mix = engine.node_mix(i)
        running = mix[0] + mix[1] + mix[2]
        if running:
            for c in range(3):
                x[base + 6 + c] = mix[c] / running
        x[base + 9] = min(
            node_backlog_seconds(engine, i) / obs.time_scale, _CLIP
        )
        names = [job.benchmark_name for job, _ in queue]
        names = names[: obs.window_size - 1]
        names.append(benchmark_name)
        if engine.window_seen(window_signature(names)):
            x[base + 10] = 1.0
    g = obs.n_nodes * N_NODE_FEATURES
    x[g] = min(total_pending / (obs.n_nodes * w), _CLIP)
    x[g + 1] = idle_nodes / obs.n_nodes
    x[g + 2 + job_class_index(benchmark_name)] = 1.0
    return x


def candidate_mask(
    obs: PlacementObservation, engine: FleetEngine, k: int
) -> np.ndarray:
    """The ``k`` earliest-finishing nodes, ties by index."""
    n = obs.n_nodes
    if k <= 0 or k >= n:
        return np.ones(n, dtype=bool)
    order = sorted(
        range(n), key=lambda i: (node_finish_estimate(engine, i), i)
    )
    mask = np.zeros(n, dtype=bool)
    for i in order[:k]:
        mask[i] = True
    return mask


def least_loaded(engine: FleetEngine) -> int:
    """Shortest queue, then earliest available, then lowest index."""
    nodes = engine.cluster.nodes
    best = 0
    best_key = None
    for i in range(len(nodes)):
        key = (len(engine.node_queue(i)), nodes[i].available_at, i)
        if best_key is None or key < best_key:
            best_key = key
            best = i
    return best
