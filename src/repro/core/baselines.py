"""Compared scheduling policies (paper Section V-A4).

* :class:`TimeSharingScheduler` — the baseline: every job runs alone
  with the full device.
* :class:`MigOnlyScheduler` — concurrency-2 MIG co-scheduling (after
  Arima 2022 / Saba 2022): jobs are paired optimally (minimum-weight
  perfect matching over exhaustively evaluated pair costs), each pair
  on the best of the 3+4 shared / private MIG splits; pairs that lose
  to time sharing fall back to solo runs.
* :class:`MpsOnlyScheduler` — MPS-only with concurrency up to
  ``C_max``: exact set-partition dynamic program over the window, each
  group costed by exhaustive sweep of the decile MPS splits and slot
  assignments.
* :class:`MigMpsDefaultScheduler` — hierarchical but *static*: the MIG
  layout is fixed (3+4 private, the layout maximizing average Q1–Q12
  throughput), MPS runs in default mode (clients time-share their CI
  with equal effective shares); group selection is exhaustive.

All searches rank candidates with the profile-based
:class:`~repro.core.predictor.AnalyticPredictor` — a scheduler cannot
execute every candidate grouping to measure it (the full space is ~10^5
runs per window), so selection quality is bounded by what solo profiles
predict. The *chosen* groups are then actually executed; a group whose
measured co-run loses to time sharing is split back into solo runs
(constraint 1 of the problem definition). Predicted costs depend only
on the benchmark multiset, so they are memoized per scheduler instance.
"""

from __future__ import annotations

import itertools

from repro.errors import SchedulingError
from repro.core.assignment import iter_slot_assignments
from repro.core.predictor import AnalyticPredictor
from repro.core.problem import Schedule, ScheduledGroup
from repro.gpu.arch import A100_40GB, GpuSpec
from repro.gpu.partition import CiNode, GiNode, MpsShare, PartitionTree
from repro.gpu.variants import (
    PartitionVariant,
    enumerate_mig_only,
    enumerate_mps_only,
)
from repro.perfmodel.cache import CoRunCache
from repro.profiling.repository import ProfileRepository
from repro.workloads.jobs import Job

__all__ = [
    "TimeSharingScheduler",
    "MigOnlyScheduler",
    "MpsOnlyScheduler",
    "MigMpsDefaultScheduler",
]


class _PredictiveScheduler:
    """Shared machinery: predictor-ranked group search + real execution."""

    name = "predictive"

    #: Bound on the per-scheduler predicted-cost memo. Window searches
    #: touch at most ``sum(C(W, c))`` groups (~800 at W=12, C_max=4);
    #: the bound only matters for long-lived schedulers fed unbounded
    #: job diversity.
    COST_CACHE_SIZE = 16384

    def __init__(self, repository: ProfileRepository):
        self.repository = repository
        self.predictor = AnalyticPredictor()
        # names tuple -> (cost, variant, binding), LRU-bounded
        self._cost_cache = CoRunCache(maxsize=self.COST_CACHE_SIZE)

    # -- candidate evaluation -------------------------------------------
    def _variants_for(self, c: int) -> list[PartitionVariant]:  # pragma: no cover
        raise NotImplementedError

    def _predicted_best(
        self, jobs: list[Job]
    ) -> tuple[float, PartitionVariant | None, tuple[int, ...]]:
        """Best predicted (cost, variant, binding) for a group, compared
        against predicted time sharing. ``variant is None`` means solo
        runs are predicted to win."""
        names = tuple(j.benchmark_name for j in jobs)
        cached = self._cost_cache.get(names)
        if cached is not None:
            return cached
        profiles = [self.repository.lookup(j) for j in jobs]
        solo_sum = sum(p.solo_time for p in profiles)
        best: tuple[float, PartitionVariant | None, tuple[int, ...]] = (
            solo_sum,
            None,
            tuple(range(len(jobs))),
        )
        if len(jobs) > 1:
            for variant in self._variants_for(len(jobs)):
                for perm in iter_slot_assignments(variant.tree, len(jobs)):
                    pred = self.predictor.predict_group(
                        [profiles[i] for i in perm], variant.tree
                    )
                    if pred.makespan < best[0]:
                        best = (pred.makespan, variant, perm)
        self._cost_cache.put(names, best)
        return best

    def _execute_group(self, jobs: list[Job]) -> list[ScheduledGroup]:
        """Run the predicted-best configuration for ``jobs``; split into
        solo runs when prediction said solo, or when the measured co-run
        violates the time-sharing constraint."""
        _, variant, perm = self._predicted_best(jobs)
        if variant is None:
            return [ScheduledGroup.run_solo(j) for j in jobs]
        group = ScheduledGroup.run([jobs[i] for i in perm], variant.tree)
        if not group.result.beats_time_sharing():
            return [ScheduledGroup.run_solo(j) for j in jobs]
        return [group]


class TimeSharingScheduler:
    """Jobs run one by one with exclusive use of the whole GPU."""

    name = "Time Sharing"

    def schedule(self, window: list[Job]) -> Schedule:
        if not window:
            raise SchedulingError("empty window")
        sched = Schedule(method=self.name)
        for job in window:
            sched.append(ScheduledGroup.run_solo(job))
        return sched


class MigOnlyScheduler(_PredictiveScheduler):
    """MIG-only co-scheduling at concurrency 2 with optimal pairing."""

    name = "MIG Only (C=2)"

    def __init__(self, repository: ProfileRepository, spec: GpuSpec = A100_40GB):
        super().__init__(repository)
        self.spec = spec
        self._variants = enumerate_mig_only(spec, 2)

    def _variants_for(self, c: int) -> list[PartitionVariant]:
        if c != 2:
            raise SchedulingError("MIG Only co-schedules pairs")
        return self._variants

    def schedule(self, window: list[Job]) -> Schedule:
        if not window:
            raise SchedulingError("empty window")
        import networkx as nx  # the only user; kept off ``import repro``

        n = len(window)
        g = nx.Graph()
        g.add_nodes_from(range(n))
        for i, j in itertools.combinations(range(n), 2):
            cost, _, _ = self._predicted_best([window[i], window[j]])
            g.add_edge(i, j, weight=cost)
        matching = nx.min_weight_matching(g)
        sched = Schedule(method=self.name)
        paired: set[int] = set()
        for i, j in matching:
            paired.update((i, j))
            for grp in self._execute_group([window[i], window[j]]):
                sched.append(grp)
        for i in range(n):
            if i not in paired:
                sched.append(ScheduledGroup.run_solo(window[i]))
        return sched


class _SetPartitionScheduler(_PredictiveScheduler):
    """Exact set-partition DP over predicted group costs.

    Minimizes the predicted total time over all partitions of the
    window into groups of size 1..C_max, then executes the chosen
    groups.
    """

    def __init__(self, repository: ProfileRepository, c_max: int):
        super().__init__(repository)
        if c_max < 1:
            raise SchedulingError("C_max must be at least 1")
        self.c_max = c_max

    def schedule(self, window: list[Job]) -> Schedule:
        n = len(window)
        if n == 0:
            raise SchedulingError("empty window")
        full = (1 << n) - 1
        best_cost = [float("inf")] * (full + 1)
        best_split = [0] * (full + 1)
        best_cost[0] = 0.0
        for s in range(1, full + 1):
            low = s & -s  # anchor: lowest remaining job is in this group
            rest = s ^ low
            sub = rest
            while True:
                group = low | sub
                if bin(group).count("1") <= self.c_max:
                    jobs = [window[i] for i in range(n) if group >> i & 1]
                    cost, _, _ = self._predicted_best(jobs)
                    total = cost + best_cost[s ^ group]
                    if total < best_cost[s]:
                        best_cost[s] = total
                        best_split[s] = group
                if sub == 0:
                    break
                sub = (sub - 1) & rest
        sched = Schedule(method=self.name)
        s = full
        while s:
            group_mask = best_split[s]
            jobs = [window[i] for i in range(n) if group_mask >> i & 1]
            if len(jobs) == 1:
                sched.append(ScheduledGroup.run_solo(jobs[0]))
            else:
                for grp in self._execute_group(jobs):
                    sched.append(grp)
            s ^= group_mask
        return sched


class MpsOnlyScheduler(_SetPartitionScheduler):
    """MPS-only co-scheduling, exhaustive over splits and groupings."""

    name = "MPS Only"

    def __init__(self, repository: ProfileRepository, c_max: int = 4):
        super().__init__(repository, c_max)
        self._variants = {
            c: enumerate_mps_only(c) for c in range(2, c_max + 1)
        }

    def _variants_for(self, c: int) -> list[PartitionVariant]:
        return self._variants[c]


class MigMpsDefaultScheduler(_SetPartitionScheduler):
    """Fixed 3+4 private MIG layout with default-mode MPS inside.

    In MPS default mode ``k`` clients time-share their CI, so each sees
    an effective ``1/k`` compute share. Groups of size C are split
    across the two GIs in every balanced way (the layout itself never
    changes — that is the point of this baseline).
    """

    name = "MIG+MPS Default"

    def __init__(
        self,
        repository: ProfileRepository,
        c_max: int = 4,
        spec: GpuSpec = A100_40GB,
    ):
        super().__init__(repository, c_max)
        self.spec = spec
        self._variants = {
            c: self._default_variants(c) for c in range(2, c_max + 1)
        }

    def _gi(self, gpcs: int, k: int) -> GiNode:
        mem = self.spec.memory_slices_for_gpcs(gpcs) / self.spec.mig_memory_slices
        shares = tuple(MpsShare(1.0 / k) for _ in range(k))
        return GiNode(mem, (CiNode(gpcs / self.spec.n_gpcs, shares),))

    def _default_variants(self, c: int) -> list[PartitionVariant]:
        """All splits of ``c`` jobs across the fixed 3+4 GIs with
        default-mode (equal) MPS shares."""
        variants = []
        for left in range(0, c + 1):
            right = c - left
            gis = []
            if left:
                gis.append(self._gi(3, left))
            if right:
                gis.append(self._gi(4, right))
            tree = PartitionTree(gis=tuple(gis), mig_enabled=True)
            label = f"default-3+4:{left}|{right}"
            variants.append(PartitionVariant(tree, "hierarchical", c, label))
        return variants

    def _variants_for(self, c: int) -> list[PartitionVariant]:
        return self._variants[c]
