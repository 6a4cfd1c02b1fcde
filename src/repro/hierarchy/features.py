"""Fleet-level observation builder for the placement agent.

The cluster level sees a different world than the node level: not
kernel counters, but queueing structure. Per node the observation
carries

* queue depth (in windows) and busy/idle state,
* time until the node frees up (in units of ``time_scale``),
* the class histogram (CI/MI/US, Table IV) of the jobs already routed
  there — what the arriving job would co-run *with*,
* the class mix of the node's last-dispatched window (its running mix),
* the queued **solo-work backlog** in seconds — profiles make solo
  times known at placement time, and duration-aware backlog is what
  separates good routing from count-based least-loaded,
* the decision-cache hit likelihood: whether the window the node would
  cut next has been scheduled somewhere in the fleet before (the
  fleet-wide decision cache would then serve it from memory).

Globally it carries total backlog, the idle fraction, and a one-hot of
the arriving job's class. Everything is normalized to O(1) ranges so
one network serves fleets of any load.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from repro.cluster.fleet import (
    FleetEngine,
    NodeArrays,
    job_class_index,
    window_signature,
)
from repro.errors import ConfigurationError

__all__ = [
    "N_NODE_FEATURES",
    "N_GLOBAL_FEATURES",
    "CORUN_SPEED",
    "job_class_index",
    "node_finish_estimate",
    "PlacementObservation",
]

#: per-node feature block width
N_NODE_FEATURES = 11
#: trailing global feature block width
N_GLOBAL_FEATURES = 5

#: saturation ceiling for unbounded ratios (queue depths, horizons)
_CLIP = 4.0

#: assumed effective co-run concurrency when converting queued solo
#: seconds into wall seconds (the node level typically packs ~2 jobs'
#: worth of progress per unit time under C_max = 3..4)
CORUN_SPEED = 2.0


def node_finish_estimate(engine: FleetEngine, index: int) -> float:
    """When node ``index`` would finish the work already routed to it:
    its availability horizon plus the queued solo backlog compressed by
    the assumed co-run speed."""
    arrays = engine.node_arrays
    until_free = max(float(arrays.available_at[index]) - engine.now, 0.0)
    return until_free + float(arrays.solo[index]) / CORUN_SPEED


class PlacementObservation:
    """Builds the placement agent's observation from a live engine.

    Pure read of the engine's :class:`~repro.cluster.fleet.NodeArrays`:
    consumes no RNG and mutates neither the engine nor any queue, so
    observing is bitwise-repeatable at a decision point.
    """

    def __init__(
        self, n_nodes: int, window_size: int, time_scale: float = 60.0
    ) -> None:
        if n_nodes < 1:
            raise ConfigurationError("placement needs at least one node")
        if window_size < 1:
            raise ConfigurationError("window size must be positive")
        if time_scale <= 0:
            raise ConfigurationError("time scale must be positive")
        self.n_nodes = int(n_nodes)
        self.window_size = int(window_size)
        self.time_scale = float(time_scale)

    @property
    def n_inputs(self) -> int:
        return self.n_nodes * N_NODE_FEATURES + N_GLOBAL_FEATURES

    def _arrays(self, engine: FleetEngine) -> NodeArrays:
        fleet = len(engine.cluster.nodes)
        if fleet != self.n_nodes:
            raise ConfigurationError(
                f"observation is built for {self.n_nodes} nodes but the "
                f"engine has {fleet}"
            )
        return engine.node_arrays

    # ------------------------------------------------------------------
    def observe(self, engine: FleetEngine, benchmark_name: str) -> np.ndarray:
        """The observation for routing ``benchmark_name`` now."""
        arrays = self._arrays(engine)
        n = self.n_nodes
        w = float(self.window_size)
        x = np.zeros(self.n_inputs, dtype=np.float64)
        v = x[: n * N_NODE_FEATURES].reshape(n, N_NODE_FEATURES)
        depth = arrays.depth
        v[:, 0] = np.minimum(depth / w, _CLIP)
        v[:, 1] = arrays.busy
        until_free = np.maximum(arrays.available_at - engine.now, 0.0)
        v[:, 2] = np.minimum(until_free / self.time_scale, _CLIP)
        # an empty row's counts are all zero, so dividing it by 1 keeps
        # its fractions at exactly 0.0
        np.divide(arrays.classes, np.maximum(depth, 1)[:, None], out=v[:, 3:6])
        mix = arrays.mix
        running = mix[:, 0] + mix[:, 1] + mix[:, 2]
        np.divide(mix, np.maximum(running, 1)[:, None], out=v[:, 6:9])
        v[:, 9] = np.minimum(arrays.solo / CORUN_SPEED / self.time_scale, _CLIP)
        self._cache_column(engine, arrays, benchmark_name, v[:, 10])
        g = n * N_NODE_FEATURES
        x[g] = min(int(depth.sum()) / (n * w), _CLIP)
        x[g + 1] = (n - int(arrays.busy.sum())) / n
        x[g + 2 + job_class_index(benchmark_name)] = 1.0
        return x

    def _cache_column(
        self, engine: FleetEngine, arrays: NodeArrays, benchmark_name: str,
        out: np.ndarray,
    ) -> None:
        """Cache-hit likelihood per node: whether the window the node
        would cut next, if the arriving job lands there, has been
        dispatched before. One lookup for every empty queue, then one
        per distinct queued prefix."""
        out[:] = float(engine.window_seen(window_signature((benchmark_name,))))
        cut = self.window_size - 1
        seen: dict[tuple[str, ...], float] = {}
        for i in arrays.nonempty:
            prefix = tuple(
                job.benchmark_name for job, _ in islice(engine.node_queue(i), cut)
            )
            hit = seen.get(prefix)
            if hit is None:
                hit = seen[prefix] = float(
                    engine.window_seen(window_signature(prefix + (benchmark_name,)))
                )
            out[i] = hit

    def candidate_mask(self, engine: FleetEngine, k: int) -> np.ndarray:
        """Restrict actions to the ``k`` earliest-finishing nodes
        (availability horizon + queued solo backlog, ties by index).

        ``k <= 0`` (or ``k >= n_nodes``) means no restriction. Masking
        keeps the agent's exploration from ever producing a
        catastrophically imbalanced fleet — it chooses *which* of the
        temporally-best nodes gets the job, the dimension where
        workload-mix awareness pays.
        """
        arrays = self._arrays(engine)
        n = self.n_nodes
        if k <= 0 or k >= n:
            return np.ones(n, dtype=bool)
        finish = (
            np.maximum(arrays.available_at - engine.now, 0.0)
            + arrays.solo / CORUN_SPEED
        )
        mask = np.zeros(n, dtype=bool)
        # a stable sort keeps the lower index first among equal finishes
        mask[np.argsort(finish, kind="stable")[:k]] = True
        return mask
