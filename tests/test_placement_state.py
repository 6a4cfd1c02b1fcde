"""The placement level's array state against the per-node loop oracle.

A placement-enabled :class:`FleetEngine` keeps each node's queue depth,
class counts, queued solo seconds, running mix, busy flag and
availability in :class:`NodeArrays`, and the placement level reads
only those arrays. This suite drives placed engines through random
arrivals, external placements, crash requeues, outages, reconfigs and
cancellations, at clock 0 and at 2**42, and after every event checks:

* every array row equals a from-scratch recompute from the node's
  queue and ``cluster.nodes``;
* ``PlacementObservation.observe`` is byte-equal to the oracle's loop
  (including observations whose window differs from the engine's);
* ``candidate_mask`` equals the oracle's for every ``k``;
* least-loaded routing and ``node_finish_estimate`` equal the oracle's.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.fleet import FleetEngine
from repro.cluster.node import ClusterState
from repro.cluster.policy import CoSchedulingPolicy, FcfsPolicy, PolicySelector
from repro.errors import SchedulingError
from repro.faults import FaultConfig, FaultInjector
from repro.hierarchy import (
    LeastLoadedPlacement,
    PlacementObservation,
    RandomPlacement,
    job_class_index,
)
from repro.hierarchy.features import node_finish_estimate
from repro.workloads.jobs import Job
from tests.oracles import placement as oracle

pytestmark = pytest.mark.hierarchy

POOL = ["stream", "kmeans", "hotspot3D", "pathfinder"]
LARGE_OFFSET = float(2**42)


def fcfs_selector() -> PolicySelector:
    return PolicySelector(
        co_scheduling=CoSchedulingPolicy(None),  # type: ignore[arg-type]
        fcfs=FcfsPolicy(),
        crowding_threshold=10**9,
    )


class CheckedEngine(FleetEngine):
    """A placed engine that checks its arrays after every event it
    applies and every dispatch round it runs."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        n = len(self.cluster.nodes)
        self.last_mix = [[0, 0, 0] for _ in range(n)]
        w = self.window_size
        self.observations = [
            PlacementObservation(n, size) for size in sorted({max(w - 1, 1), w, w + 2})
        ]
        self.checks = 0

    def _handle(self, t, kind, payload) -> None:
        super()._handle(t, kind, payload)
        assert_matches_oracle(self)

    def _dispatch_round(self, drain: bool) -> int:
        cut = super()._dispatch_round(drain)
        assert_matches_oracle(self)
        return cut

    def _execute(self, index, window, *args, **kwargs) -> None:
        mix = [0, 0, 0]
        for job, _ in window:
            mix[job_class_index(job.benchmark_name)] += 1
        self.last_mix[index] = mix
        super()._execute(index, window, *args, **kwargs)


def assert_matches_oracle(engine: CheckedEngine) -> None:
    arrays = engine.node_arrays
    nodes = engine.cluster.nodes
    n = len(nodes)
    for i in range(n):
        queue = engine.node_queue(i)
        classes = [0, 0, 0]
        solo = 0.0
        for job, _ in queue:
            classes[job_class_index(job.benchmark_name)] += 1
            solo += job.solo_time
        assert arrays.depth[i] == len(queue)
        assert arrays.classes[i].tolist() == classes
        assert arrays.solo[i] == solo
        assert arrays.mix[i].tolist() == engine.last_mix[i]
        assert bool(arrays.busy[i]) == (not engine.node_is_idle(i))
        assert arrays.available_at[i] == nodes[i].available_at
        assert node_finish_estimate(engine, i) == oracle.node_finish_estimate(
            engine, i
        )
    assert arrays.nonempty == {i for i in range(n) if engine.node_queue(i)}
    assert engine.pending_depth == sum(len(engine.node_queue(i)) for i in range(n))
    for obs in engine.observations:
        for name in POOL:
            fast = obs.observe(engine, name)
            assert fast.tobytes() == oracle.observe(obs, engine, name).tobytes()
    obs = engine.observations[0]
    for k in range(n + 1):
        assert np.array_equal(
            obs.candidate_mask(engine, k), oracle.candidate_mask(obs, engine, k)
        )
    assert LeastLoadedPlacement().place(
        engine, None, engine.now
    ) == oracle.least_loaded(engine)
    engine.checks += 1


# one driver step: (verb, node or job pick, delay, duration, benchmark)
steps = st.tuples(
    st.sampled_from(["arrive", "arrive", "place", "place", "cancel",
                     "withdraw", "outage", "reconfig", "advance"]),
    st.integers(min_value=0, max_value=63),
    st.floats(min_value=0.0, max_value=4.0),
    st.floats(min_value=0.0, max_value=20.0),
    st.sampled_from(POOL),
)


@pytest.mark.parametrize("start", [0.0, LARGE_OFFSET])
@settings(max_examples=40, deadline=None)
@given(
    n_nodes=st.integers(min_value=1, max_value=4),
    window=st.integers(min_value=1, max_value=4),
    min_batch=st.integers(min_value=1, max_value=3),
    router=st.sampled_from(["least-loaded", "random"]),
    fault_seed=st.integers(min_value=0, max_value=2**16),
    crash_rate=st.sampled_from([0.0, 0.3]),
    script=st.lists(steps, min_size=1, max_size=30),
)
def test_arrays_match_oracle_after_every_event(
    start, n_nodes, window, min_batch, router, fault_seed, crash_rate, script
):
    engine = CheckedEngine(
        ClusterState.homogeneous(n_nodes),
        fcfs_selector(),
        window_size=window,
        min_batch=min_batch,
        placement=(
            LeastLoadedPlacement() if router == "least-loaded"
            else RandomPlacement(seed=fault_seed)
        ),
        faults=FaultInjector(
            FaultConfig(seed=fault_seed, job_failure_rate=crash_rate)
        ),
        max_retries=2,
        start=start,
    )
    assert_matches_oracle(engine)
    job_ids: list[str] = []
    for verb, pick, delay, duration, name in script:
        node = pick % n_nodes
        node_name = engine.cluster.nodes[node].name
        if verb == "arrive":
            job = Job.submit(name)
            job_ids.append(job.job_id)
            engine.submit(job, at=engine.now + delay)
        elif verb == "place":
            job = Job.submit(name)
            job_ids.append(job.job_id)
            engine.place_job(node, job)
        elif verb == "cancel":  # a job waiting in some node's queue
            queued = [
                job.job_id
                for i in range(n_nodes)
                for job, _ in engine.node_queue(i)
            ]
            if queued:
                engine.cancel(queued[pick % len(queued)])
                assert_matches_oracle(engine)
        elif verb == "withdraw" and job_ids:  # any job seen so far
            try:
                engine.cancel(job_ids[pick % len(job_ids)])
            except SchedulingError:
                pass  # already dispatched, or cancelled before
            assert_matches_oracle(engine)
        elif verb == "outage":
            engine.schedule_fault(node_name, engine.now + delay, duration)
        elif verb == "reconfig":
            engine.schedule_reconfig(node_name, engine.now + delay, duration)
        elif verb == "advance":
            engine.advance_to(engine.now + delay)
    engine.run()
    stats = engine.stats
    assert engine.pending_depth == 0
    assert stats.admitted == stats.completed + stats.failed + stats.cancelled
    assert engine.checks > 0
