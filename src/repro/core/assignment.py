"""Binding jobs to the slots of a chosen partition template.

Once the agent (or a baseline's search) picks a template, concrete jobs
must fill its slots. The paper's intermediate reward ``r_i`` scores
exactly such bindings from profile data, so:

* :func:`assign_optimal` — the default (used by the environment and the
  online optimizer): the exact total-``r_i`` maximizer, solved as a
  rectangular linear-sum-assignment problem (LSAP) over the (job, slot)
  reward matrix — O(n^3), which both *selects* the jobs and *binds*
  them. The solver is an in-tree port of SciPy's
  ``linear_sum_assignment`` (Crouse's shortest augmenting path) that
  returns SciPy's exact pick, ties included.
* :func:`assign_greedy` — a cheap heuristic: walk the template's slots
  from the largest compute share down, binding the still-unassigned job
  with the highest ``r_i`` for that slot. Kept for ablation.
* :func:`assign_exhaustive` — brute-force enumeration over selections
  and slot permutations (deduplicating identically-shaped slots);
  pins the optimality of :func:`assign_optimal` in tests.

All return indices into the candidate list, slot-ordered.
:func:`optimal_slot_binding` is :func:`assign_optimal`'s binding from
precomputed per-slot reward rows, for the environment's window tables.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence

import numpy as np

from repro.errors import SchedulingError
from repro.core.rewards import WindowStats, intermediate_reward
from repro.gpu.partition import PartitionTree, Slot
from repro.perfmodel.cache import CoRunCache, corun_caching_enabled
from repro.profiling.profiler import JobProfile

__all__ = [
    "assign_optimal",
    "optimal_slot_binding",
    "assign_conflict_aware",
    "assign_greedy",
    "assign_exhaustive",
    "iter_slot_assignments",
    "reward_matrix",
    "CONFLICT_WEIGHT",
]

#: Weight of the profile-derived contention penalty in the
#: conflict-aware binding objective (see :func:`assign_conflict_aware`).
CONFLICT_WEIGHT = 3.0

#: Cross-call memo of per-(job, slot-shape) intermediate rewards.
#: ``r_i`` depends only on the profile, the slot's two device-level
#: fractions, and the window stats — all hashable frozen dataclasses —
#: and the same (job, shape, stats) triples recur across every binding
#: search of an episode and across episodes over fixed windows.
_REWARD_CACHE = CoRunCache(maxsize=1 << 17)


def reward_matrix(
    profiles: list[JobProfile],
    slots: list[Slot],
    stats: WindowStats,
) -> np.ndarray:
    """The ``(job, slot)`` intermediate-reward matrix, memoized.

    Slots sharing an exact ``(compute_fraction, mem_fraction)`` shape
    have identical rewards, so each distinct (job, shape) pair is
    evaluated at most once per process — the permutation loops of
    :func:`assign_exhaustive` and the local search of
    :func:`assign_conflict_aware` then index into the matrix instead of
    recomputing ``r_i``.
    """
    shapes = [(s.compute_fraction, s.mem_fraction) for s in slots]
    uniq: dict[tuple[float, float], tuple[int, Slot]] = {}
    for slot, shape in zip(slots, shapes):
        uniq.setdefault(shape, (len(uniq), slot))
    compact = np.empty((len(profiles), len(uniq)))
    if corun_caching_enabled():
        for j, profile in enumerate(profiles):
            for shape, (k, slot) in uniq.items():
                compact[j, k] = _REWARD_CACHE.get_or_compute(
                    (profile, shape, stats),
                    lambda p=profile, s=slot, st=stats: intermediate_reward(
                        p, s, st
                    ),
                )
    else:
        for j, profile in enumerate(profiles):
            for shape, (k, slot) in uniq.items():
                compact[j, k] = intermediate_reward(profile, slot, stats)
    return compact[:, [uniq[shape][0] for shape in shapes]]


def _check(tree: PartitionTree, n_candidates: int) -> list[Slot]:
    slots = tree.slots()
    if n_candidates < len(slots):
        raise SchedulingError(
            f"{len(slots)}-slot template needs at least that many candidate "
            f"jobs; got {n_candidates}"
        )
    return slots


def _augmenting_paths(cost: Sequence[Sequence[float]], nr: int, nc: int) -> list[int]:
    """Column of each row in the min-cost assignment of ``cost``
    (``nr <= nc`` rows of ``nc`` finite floats).

    A port of SciPy's ``rectangular_lsap`` (Crouse, "On implementing 2D
    rectangular assignment algorithms", 2016): one shortest augmenting
    path per row, Dijkstra over reduced costs ``min_val + c - u[i] -
    v[j]`` summed in that order, the unvisited columns kept in SciPy's
    reverse-filled, swap-removed ``remaining`` list, and an equal-cost
    tie going to an unassigned column. Every float operation is SciPy's,
    in SciPy's order, so tied optima resolve to SciPy's pick.
    """
    inf = math.inf
    u = [0.0] * nr
    v = [0.0] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    path = [0] * nc
    reverse = list(range(nc - 1, -1, -1))
    for cur_row in range(nr):
        spc = [inf] * nc
        remaining = reverse.copy()
        rows_seen: list[int] = []  # SR without cur_row
        cols_seen: list[int] = []  # SC
        min_val = 0.0
        i = cur_row
        while True:
            row = cost[i]
            ui = u[i]
            lowest = inf
            index = -1
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < spc[j]:
                    path[j] = i
                    spc[j] = r
                else:
                    r = spc[j]
                if r < lowest or (r == lowest and row4col[j] == -1):
                    lowest = r
                    index = it
            min_val = lowest
            j = remaining[index]
            cols_seen.append(j)
            last = remaining.pop()
            if index < len(remaining):
                remaining[index] = last
            i = row4col[j]
            if i == -1:
                break
            rows_seen.append(i)
        # update the duals, then flip the path ending in sink column j
        u[cur_row] += min_val
        for i in rows_seen:
            u[i] += min_val - spc[col4row[i]]
        for c in cols_seen:
            v[c] -= min_val - spc[c]
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return col4row


def optimal_slot_binding(
    neg_by_slot: list[list[float]], candidates: list[int]
) -> list[int]:
    """:func:`assign_optimal`'s binding from negated reward rows.

    ``neg_by_slot[s][i]`` is ``-r_i`` of window job ``i`` in slot ``s``
    over the whole window; ``candidates`` are the ascending window
    indices still available (at least one per slot). Returns positions
    into ``candidates`` in slot order: SciPy's
    ``linear_sum_assignment(maximize=True)`` pick on the candidates'
    ``(job, slot)`` reward matrix. As in SciPy, a tall matrix (more
    candidates than slots) is solved transposed, slots as the rows, and
    a square one is solved with jobs as the rows; the orientation
    decides which tied optimum comes out.
    """
    n_slots = len(neg_by_slot)
    n = len(candidates)
    if n > n_slots:
        if n == len(neg_by_slot[0]):
            cost = neg_by_slot
        else:
            cost = [[row[i] for i in candidates] for row in neg_by_slot]
        return _augmenting_paths(cost, n_slots, n)
    by_job = _augmenting_paths(
        [[row[i] for row in neg_by_slot] for i in candidates], n, n_slots
    )
    binding = [0] * n_slots
    for j, s in enumerate(by_job):
        binding[s] = j
    return binding


def assign_optimal(
    tree: PartitionTree,
    profiles: list[JobProfile],
    stats: WindowStats | None = None,
) -> list[int]:
    """Exact max-total-``r_i`` selection + binding: the LSAP on the
    rectangular (job, slot) reward matrix."""
    slots = _check(tree, len(profiles))
    if stats is None:
        stats = WindowStats.from_profiles(profiles)
    reward = reward_matrix(profiles, slots, stats)
    if not np.isfinite(reward).all():
        raise SchedulingError("reward matrix has a non-finite entry")
    return optimal_slot_binding((-reward.T).tolist(), list(range(len(profiles))))


def _binding_score(
    tree: PartitionTree,
    slots: list[Slot],
    binding: list[int],
    profiles: list[JobProfile],
    stats: WindowStats,
    lam: float,
    rewards: np.ndarray | None = None,
    domains: list[list[int]] | None = None,
) -> float:
    """Conflict-aware binding objective.

    Total intermediate reward minus a contention penalty computed from
    profile data only: for each memory domain, every bound job pays its
    own average DRAM demand (``Memory%``) times the summed demand of
    its domain co-residents, normalized by the domain's bandwidth
    fraction and weighted by the job's squared duration ratio (the same
    long-job emphasis ``r_i`` uses). This is the profile-visible
    estimate of the interference the performance model charges — what a
    conflict-blind assignment cannot avoid.

    ``rewards``/``domains`` let the local-search caller precompute the
    (job, slot) reward matrix and the tree's memory domains once instead
    of per candidate binding.
    """
    if rewards is None:
        rewards = reward_matrix(profiles, slots, stats)
    total = 0.0
    for s, j in enumerate(binding):
        total += rewards[j, s]
    if lam:
        if domains is None:
            domains = tree.mem_domains()
        for domain in domains:
            if len(domain) < 2:
                continue
            demands = [
                profiles[binding[s]].counters.memory_pct / 100.0 for s in domain
            ]
            alpha = slots[domain[0]].mem_fraction
            dsum = sum(demands)
            for s, d in zip(domain, demands):
                p = profiles[binding[s]]
                dur = p.solo_time / max(stats.mean_solo_time, 1e-9)
                total -= lam * d * (dsum - d) / alpha * dur**2
    return total


def assign_conflict_aware(
    tree: PartitionTree,
    profiles: list[JobProfile],
    stats: WindowStats | None = None,
    lam: float = CONFLICT_WEIGHT,
) -> list[int]:
    """Conflict-aware selection + binding.

    Starts from the :func:`assign_optimal` solution (which maximizes
    pure ``r_i``) and improves the conflict-aware objective by local
    search: swapping jobs between slots and replacing bound jobs with
    unbound candidates until a local optimum (at most a few passes —
    the neighborhood is tiny).
    """
    slots = _check(tree, len(profiles))
    if stats is None:
        stats = WindowStats.from_profiles(profiles)
    binding = assign_optimal(tree, profiles, stats)
    # The local search scores O(slots^2 + slots*jobs) candidate bindings
    # per pass; the reward matrix and memory domains are invariant
    # across all of them, so compute both once.
    rewards = reward_matrix(profiles, slots, stats)
    domains = tree.mem_domains()
    best = _binding_score(
        tree, slots, binding, profiles, stats, lam, rewards, domains
    )
    for _ in range(4):
        improved = False
        bound = set(binding)
        # swap jobs between two slots
        for a in range(len(slots)):
            for b in range(a + 1, len(slots)):
                cand = binding.copy()
                cand[a], cand[b] = cand[b], cand[a]
                score = _binding_score(
                    tree, slots, cand, profiles, stats, lam, rewards, domains
                )
                if score > best + 1e-12:
                    binding, best, improved = cand, score, True
                    bound = set(binding)
        # replace a bound job with an unbound candidate
        for a in range(len(slots)):
            for j in range(len(profiles)):
                if j in bound:
                    continue
                cand = binding.copy()
                cand[a] = j
                score = _binding_score(
                    tree, slots, cand, profiles, stats, lam, rewards, domains
                )
                if score > best + 1e-12:
                    binding, best, improved = cand, score, True
                    bound = set(binding)
        if not improved:
            break
    return binding


def assign_greedy(
    tree: PartitionTree,
    profiles: list[JobProfile],
    stats: WindowStats | None = None,
) -> list[int]:
    """Greedy ``r_i``-maximizing binding.

    Slots are visited from the largest compute fraction down so the
    most consequential placements are decided first. Returns candidate
    indices in slot order.
    """
    slots = _check(tree, len(profiles))
    if stats is None:
        stats = WindowStats.from_profiles(profiles)
    order = sorted(
        range(len(slots)),
        key=lambda i: (slots[i].compute_fraction, slots[i].mem_fraction),
        reverse=True,
    )
    rewards = reward_matrix(profiles, slots, stats)
    taken: set[int] = set()
    chosen: dict[int, int] = {}
    for slot_idx in order:
        best_job, best_r = -1, -float("inf")
        for j in range(len(profiles)):
            if j in taken:
                continue
            r = rewards[j, slot_idx]
            if r > best_r:
                best_job, best_r = j, r
        taken.add(best_job)
        chosen[slot_idx] = best_job
    return [chosen[i] for i in range(len(slots))]


def _slot_shape(slot: Slot) -> tuple[float, float]:
    return (round(slot.compute_fraction, 6), round(slot.mem_fraction, 6))


def iter_slot_assignments(
    tree: PartitionTree, n_candidates: int
) -> list[tuple[int, ...]]:
    """All distinct bindings of candidate indices to the template's slots.

    Bindings that differ only by swapping jobs between *identical*
    slots (same compute and memory shape) are collapsed — e.g. the
    ``(0.25)x4`` MPS split has one distinct binding per job subset, not
    24.
    """
    slots = _check(tree, n_candidates)
    seen: set[tuple] = set()
    out: list[tuple[int, ...]] = []
    shapes = [_slot_shape(s) for s in slots]
    for perm in itertools.permutations(range(n_candidates), len(slots)):
        # canonical key: jobs grouped by slot shape, order-free within
        key_map: dict[tuple[float, float], list[int]] = {}
        for job, shape in zip(perm, shapes):
            key_map.setdefault(shape, []).append(job)
        key = tuple(
            (shape, tuple(sorted(jobs))) for shape, jobs in sorted(key_map.items())
        )
        if key in seen:
            continue
        seen.add(key)
        out.append(perm)
    return out


def assign_exhaustive(
    tree: PartitionTree,
    profiles: list[JobProfile],
    stats: WindowStats | None = None,
) -> list[int]:
    """Binding maximizing the total intermediate reward, by enumeration."""
    slots = _check(tree, len(profiles))
    if stats is None:
        stats = WindowStats.from_profiles(profiles)
    rewards = reward_matrix(profiles, slots, stats)
    best: tuple[int, ...] | None = None
    best_r = -float("inf")
    for perm in iter_slot_assignments(tree, len(profiles)):
        total = sum(rewards[j, s] for s, j in enumerate(perm))
        if total > best_r:
            best, best_r = perm, total
    assert best is not None
    return list(best)
