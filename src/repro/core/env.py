"""The co-scheduling RL environment (gymnasium protocol).

An **episode** drains one job window. Each **step** the agent picks one
of the 29 group templates; jobs are bound to the template's slots by
profile-driven assignment (the pure and conflict-aware intermediate-
reward maximizers, arbitrated by the analytic predictor — all
computable before launch), the group is co-run on the simulated
device, and the step reward combines the group's intermediate rewards
with its measured final reward (Table VI). When fewer than two jobs
remain, the environment drains them with solo runs (no agent decision
exists there) and the episode terminates.

The observation is the ``W x (f + 5)`` window encoding; ``info`` always
carries ``action_mask`` (templates whose concurrency no longer fits are
invalid) and, at termination, the completed :class:`Schedule` for
metric extraction.

Two step implementations coexist:

* the **reference path** — the straightforward computation (full window
  re-encoding, per-cell reward evaluation, both binders plus predictor
  arbitration, a fresh co-run simulation per group). It runs whenever
  the global fast path is off (:func:`repro.perfmodel.cache.\
corun_cache_disabled`) and serves as the ground truth the fast path is
  validated against bit for bit.
* the **fast path** — per-window precomputation (encodings, reward
  tables, profile-derived arrays), a lean local search over those
  tables, predictor memoization, the process-wide co-run cache, and a
  content-keyed step-decision memo (shareable across environments via
  ``decision_memo``). It produces bitwise-identical transitions; one
  global switch selects between the two.

:meth:`CoSchedulingEnv.bind` is the one binder every caller uses — the
online rerank, the power-capped optimizer and :meth:`~CoSchedulingEnv.\
step` itself. On the fast path it is memoized on the window context,
keyed by ``(availability, action, binding mode)``, so a template scored
by the rerank is never bound twice; :meth:`~CoSchedulingEnv.\
predicted_gain` scores a template from the same tables.

Windows are drained in **serving-canonical order** (sorted by profile
signature; see :mod:`repro.core.serving`) on both paths, which makes
every decision a pure function of window *content* — the invariant the
decision memo and the fleet-level ``DecisionCache`` key on.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.errors import SchedulingError
from repro.core.actions import ActionCatalog, TemplateFacts
from repro.core.assignment import (
    CONFLICT_WEIGHT,
    assign_conflict_aware,
    assign_optimal,
)
from repro.core.predictor import AnalyticPredictor
from repro.core.features import FeatureExtractor
from repro.core.problem import Schedule, ScheduledGroup, SchedulingProblem
from repro.core.rewards import (
    RewardConfig,
    WindowStats,
    group_reward,
    intermediate_reward,
)
from repro.core.serving import canonical_order, profile_signature
from repro.perfmodel.cache import CoRunCache, corun_caching_enabled
from repro.profiling.profiler import JobProfile
from repro.profiling.repository import ProfileRepository
from repro.rl.env import Env
from repro.rl.spaces import Discrete
from repro.workloads.jobs import Job

__all__ = ["CoSchedulingEnv"]


class _WindowContext:
    """Per-window precomputation for the fast path.

    Holds the window's profiles/stats/encoding plus profile-derived
    scalars (normalized memory demand, squared duration ratio) and
    lazily-built reward tables: for each distinct slot shape, the
    intermediate reward of every window job, evaluated exactly once.
    The tables' values are the same floats the reference path computes
    — only the bookkeeping around them is cheaper. ``bind_memo`` maps
    ``(availability, action, binding mode)`` to the slot-ordered window
    indices the fast binder chose (only the indices, so the memo stays
    small on long training runs).
    """

    __slots__ = (
        "profiles",
        "stats",
        "encoding",
        "mem",
        "dur2",
        "pred",
        "_rows",
        "_matrices",
        "predict_memo",
        "bind_memo",
    )

    def __init__(
        self, profiles: list[JobProfile], extractor: FeatureExtractor
    ) -> None:
        self.profiles = profiles
        self.stats = WindowStats.from_profiles(profiles)
        self.encoding = extractor.precompute(profiles)
        mean_solo = max(self.stats.mean_solo_time, 1e-9)
        self.mem = [p.counters.memory_pct / 100.0 for p in profiles]
        self.dur2 = [(p.solo_time / mean_solo) ** 2 for p in profiles]
        self.pred: list[tuple[float, float, float, float]] | None = None
        self._rows: dict[tuple[float, float], np.ndarray] = {}
        self._matrices: dict[int, tuple[np.ndarray, list[list[float]]]] = {}
        self.predict_memo: dict[tuple, float] = {}
        self.bind_memo: dict[tuple, tuple[int, ...]] = {}

    def predictor_consts(self) -> list[tuple[float, float, float, float]]:
        """Per-job ``(t_comp, t_mem, scalability, demand)`` — the pure
        per-profile quantities :class:`AnalyticPredictor` re-derives on
        every ``predict_job`` call, computed once per window."""
        p = self.pred
        if p is None:
            p = [
                (
                    *AnalyticPredictor.phase_split(prof),
                    AnalyticPredictor.scalability(prof),
                    AnalyticPredictor.bw_demand(prof),
                )
                for prof in self.profiles
            ]
            self.pred = p
        return p

    def matrix(
        self, info: TemplateFacts, action: int
    ) -> tuple[np.ndarray, list[list[float]]]:
        """The full-window ``(job, slot)`` reward matrix for a template,
        as an array (for the Hungarian solver) plus its row lists (for
        the scalar local search). Keyed by action index — an int hash —
        with the underlying per-shape reward rows shared across actions,
        so each distinct (job, shape) reward is evaluated once."""
        m = self._matrices.get(action)
        if m is None:
            cols = []
            for shape, slot in zip(info.shapes, info.slots):
                row = self._rows.get(shape)
                if row is None:
                    row = np.array(
                        [
                            intermediate_reward(p, slot, self.stats)
                            for p in self.profiles
                        ]
                    )
                    self._rows[shape] = row
                cols.append(row)
            arr = np.column_stack(cols)
            m = (arr, arr.tolist())
            self._matrices[action] = m
        return m


def _conflict_search(
    rewards: list[list[float]],
    mem: list[float],
    dur2: list[float],
    domains: list[tuple[int, ...]],
    alphas: list[float],
    lam: float,
    start: list[int],
) -> list[int]:
    """Lean replica of :func:`repro.core.assignment.assign_conflict_aware`.

    Same first-improvement local search, same pass structure, same
    tie-breaking epsilon — but scoring reads precomputed per-candidate
    lists instead of walking profile attributes, so one score costs a
    couple of microseconds. Every arithmetic operation is performed in
    the reference's order, so scores (and therefore the returned
    binding) are bitwise-identical.
    """
    n_slots = len(start)
    n_jobs = len(rewards)
    slot_range = range(n_slots)
    dom_alpha = list(zip(domains, alphas))
    # lam * mem[j] is the first product of every penalty term; hoisting
    # it out of the search touches the same two operands, so the scores
    # stay bitwise-identical.
    lamd = [lam * m for m in mem]

    # default-argument binding turns every closure variable into a fast
    # local lookup — score() runs thousands of times per search
    def score(
        binding: list[int],
        rewards: list[list[float]] = rewards,
        mem: list[float] = mem,
        lamd: list[float] = lamd,
        dur2: list[float] = dur2,
        dom_alpha: list = dom_alpha,
        slot_range: range = slot_range,
        lam: float = lam,
    ) -> float:
        total = 0.0
        for s in slot_range:
            total += rewards[binding[s]][s]
        if lam:
            for domain, alpha in dom_alpha:
                demands = [mem[binding[s]] for s in domain]
                dsum = sum(demands)
                for s, d in zip(domain, demands):
                    j = binding[s]
                    total -= lamd[j] * (dsum - d) / alpha * dur2[j]
        return total

    binding = list(start)
    best = score(binding)
    for _ in range(4):
        improved = False
        bound = set(binding)
        for a in range(n_slots):
            for b in range(a + 1, n_slots):
                cand = binding.copy()
                cand[a], cand[b] = cand[b], cand[a]
                s = score(cand)
                if s > best + 1e-12:
                    binding, best, improved = cand, s, True
                    bound = set(binding)
        for a in range(n_slots):
            for j in range(n_jobs):
                if j in bound:
                    continue
                cand = binding.copy()
                cand[a] = j
                s = score(cand)
                if s > best + 1e-12:
                    binding, best, improved = cand, s, True
                    bound = set(binding)
        if not improved:
            break
    return binding


class CoSchedulingEnv(Env):
    """RL environment over a set of profiled job windows."""

    def __init__(
        self,
        windows: list[list[Job]],
        repository: ProfileRepository,
        catalog: ActionCatalog,
        window_size: int,
        reward_config: RewardConfig | None = None,
        seed: int = 0,
        shuffle_windows: bool = True,
        binding: str = "auto",
        memoize_decisions: bool = True,
        decision_cache_size: int = 32768,
        window_context_cache: dict[tuple, "_WindowContext"] | None = None,
        decision_memo: CoRunCache | None = None,
    ):
        if binding not in ("auto", "optimal", "conflict"):
            raise SchedulingError(
                f"binding must be auto/optimal/conflict; got {binding!r}"
            )
        if not windows:
            raise SchedulingError("the environment needs at least one window")
        for w in windows:
            if len(w) > window_size:
                raise SchedulingError(
                    f"window of {len(w)} jobs exceeds the configured size "
                    f"{window_size}"
                )
            for job in w:
                repository.lookup(job)  # fail fast on missing profiles
        self.windows = windows
        self.repository = repository
        self.catalog = catalog
        self.extractor = FeatureExtractor(window_size)
        self.reward_config = reward_config or RewardConfig()
        self.predictor = AnalyticPredictor()
        self.observation_space = self.extractor.observation_space()
        self.action_space = Discrete(catalog.n_actions, seed=seed)
        self._rng = np.random.default_rng(seed)
        self.shuffle_windows = shuffle_windows
        self.binding = binding
        self._episode = -1

        # Fast-path state. Everything the step computation derives from
        # (window content, availability set, action) is deterministic,
        # so repeated decisions over equivalent windows are memoized: a
        # cached entry replays the exact (binding, rewards, group)
        # triple the reference computation would produce. Keys are the
        # window's canonical profile signatures — content, not index —
        # so two windows holding profile-identical jobs (in any
        # submission order, in any environment sharing the memo via
        # ``decision_memo``) reuse each other's decisions. The whole
        # fast path — decision memo, window contexts, reward tables —
        # is bypassed whenever global co-run caching is disabled, so one
        # switch selects reference vs. fast semantics for a whole
        # episode (the mode is latched at reset()).
        self.memoize_decisions = memoize_decisions
        self._decisions = (
            decision_memo
            if decision_memo is not None
            else CoRunCache(maxsize=decision_cache_size)
        )
        # An externally-owned cache (keyed by window content signature)
        # lets a trainer share the per-window precomputation across the
        # many short-lived environments it builds over one window set.
        self._window_cache: dict[tuple, _WindowContext] = (
            {} if window_context_cache is None else window_context_cache
        )
        # Canonical per-window ordering (see repro.core.serving): jobs,
        # profiles, and content signatures, memoized per window index.
        self._canonical: dict[
            int, tuple[list[Job], list[JobProfile], tuple]
        ] = {}
        self._action_infos = catalog.template_facts()
        self._window_idx = -1
        self._fast = False

        # per-episode state
        self._jobs: list[Job] = []
        self._profiles: list[JobProfile] = []
        self._sigs: tuple = ()
        self._available: list[bool] = []
        self._stats: WindowStats | None = None
        self._ctx: _WindowContext | None = None
        self._schedule: Schedule | None = None

    @property
    def decision_cache(self) -> CoRunCache:
        """The step-decision memo (per-environment unless an external
        ``decision_memo`` was injected; for diagnostics)."""
        return self._decisions

    # ------------------------------------------------------------------
    # episode control
    # ------------------------------------------------------------------
    def reset(
        self, *, seed: int | None = None, options: dict | None = None
    ) -> tuple[np.ndarray, dict[str, Any]]:
        """Start draining the next window.

        ``options['window_index']`` pins a specific window (used for
        deterministic evaluation); otherwise windows are drawn randomly
        (training) or cycled (``shuffle_windows=False``).
        """
        if seed is not None:
            self._rng = np.random.default_rng(seed)
            self.action_space.seed(seed)
        self._episode += 1
        if options and "window_index" in options:
            idx = int(options["window_index"]) % len(self.windows)
        elif self.shuffle_windows:
            idx = int(self._rng.integers(len(self.windows)))
        else:
            idx = self._episode % len(self.windows)
        self._window_idx = idx
        jobs, profiles, sigs = self._canonical_window(idx)
        self._jobs = list(jobs)
        self._profiles = profiles
        self._sigs = sigs
        self._fast = self.memoize_decisions and corun_caching_enabled()
        if self._fast:
            ctx = self._window_cache.get(sigs)
            if ctx is None:
                ctx = _WindowContext(profiles, self.extractor)
                self._window_cache[sigs] = ctx
            self._ctx = ctx
            self._stats = ctx.stats
        else:
            self._ctx = None
            self._stats = WindowStats.from_profiles(self._profiles)
        self._available = [True] * len(self._jobs)
        self._schedule = Schedule(method="MIG+MPS w/ RL")
        return self._observe(), self._info()

    def _canonical_window(
        self, idx: int
    ) -> tuple[list[Job], list[JobProfile], tuple]:
        """The window in serving-canonical order, with content signatures.

        Both step implementations drain windows in this order (sorted by
        profile signature, queue index breaking ties), so every
        order-dependent computation — assignment tie-breaks, local-search
        trajectories, float summation in the window statistics — runs
        identically for any submission permutation of the same job set.
        That is the property the content-keyed decision memo and the
        fleet-level :class:`~repro.core.serving.DecisionCache` rely on.
        """
        entry = self._canonical.get(idx)
        if entry is None:
            raw = self.windows[idx]
            profiles = [self.repository.lookup(j) for j in raw]
            order = canonical_order(profiles)
            jobs = [raw[i] for i in order]
            profiles = [profiles[i] for i in order]
            sigs = tuple(profile_signature(p) for p in profiles)
            entry = (jobs, profiles, sigs)
            self._canonical[idx] = entry
        return entry

    def _observe(self) -> np.ndarray:
        if self._ctx is not None:
            return self._ctx.encoding.encode(self._available)
        return self.extractor.encode(self._profiles, self._available)

    def _n_remaining(self) -> int:
        return sum(self._available)

    def _info(self) -> dict[str, Any]:
        n = self._n_remaining()
        return {
            "action_mask": self.catalog.mask(n),
            "n_remaining": n,
            "window_index": self._window_idx,
        }

    # ------------------------------------------------------------------
    # read-only views for observability tooling (decision recorder)
    # ------------------------------------------------------------------
    @property
    def window_index(self) -> int:
        """Index of the active window (-1 before the first reset)."""
        return self._window_idx

    @property
    def window_jobs(self) -> list:
        """The active window's jobs, in window order (copy)."""
        return list(self._jobs)

    @property
    def job_profiles(self) -> list:
        """Profiles aligned with :attr:`window_jobs` (copy)."""
        return list(self._profiles)

    @property
    def availability(self) -> tuple[bool, ...]:
        """Which window slots are still schedulable."""
        return tuple(self._available)

    def bind(self, action: int) -> tuple[int, ...]:
        """Window indices template ``action`` binds, in slot order.

        The still-available jobs are bound to the template's slots
        exactly as :meth:`step` would bind them. On the fast path the
        answer comes from the window tables and is memoized on the
        window context under ``(availability, action, binding mode)``;
        on the reference path it is :meth:`_bind`. Both return the same
        tuple.
        """
        if self._fast:
            key = (tuple(self._available), action, self.binding)
            memo = self._ctx.bind_memo
            chosen = memo.get(key)
            if chosen is None:
                chosen = self._bind_fast(action)
                memo[key] = chosen
            return chosen
        candidates = self._candidates(action)
        binding = self._bind(
            self.catalog.variant(action).tree,
            [self._profiles[i] for i in candidates],
        )
        return tuple(candidates[b] for b in binding)

    def predicted_gain(self, action: int) -> float:
        """Predicted throughput gain of template ``action`` under
        :meth:`bind`'s binding: the bound jobs' solo-time sum (in slot
        order) over the analytic predictor's makespan — the same float
        as :attr:`~repro.core.predictor.PredictedGroup.predicted_gain`.
        Profile-only, so it is computable before any launch."""
        chosen = self.bind(action)
        if not self._fast:
            return self.predictor.predict_group(
                [self._profiles[i] for i in chosen],
                self.catalog.variant(action).tree,
            ).predicted_gain
        est = self._predict(self._action_infos[action], action, chosen)
        return sum(self._profiles[i].solo_time for i in chosen) / est

    def _candidates(self, action: int) -> list[int]:
        """Available window indices, once ``action`` is known to fit."""
        need = self.catalog.concurrency(action)  # rejects a bad index
        candidates = [i for i, a in enumerate(self._available) if a]
        if need > len(candidates):
            raise SchedulingError(
                f"action {action} (C={need}) cannot bind "
                f"{len(candidates)} remaining jobs"
            )
        return candidates

    def _bind(self, tree, cand_profiles) -> list[int]:
        """Reference binder: candidate jobs onto the template's slots.

        In ``auto`` mode two profile-driven candidate bindings are
        produced — the pure ``r_i`` maximizer and the conflict-aware
        variant — and the analytic predictor arbitrates between them;
        ``optimal``/``conflict`` pin one binder (ablation). Everything
        here is computable before launching the group, as it must be
        online.
        """
        if self.binding == "optimal":
            return assign_optimal(tree, cand_profiles, self._stats)
        if self.binding == "conflict":
            return assign_conflict_aware(tree, cand_profiles, self._stats)
        options = []
        for binder in (assign_conflict_aware, assign_optimal):
            binding = binder(tree, cand_profiles, self._stats)
            est = self.predictor.predict_group(
                [cand_profiles[i] for i in binding], tree
            ).makespan
            options.append((est, binding))
        return min(options, key=lambda x: x[0])[1]

    # ------------------------------------------------------------------
    # fast-path decision
    # ------------------------------------------------------------------
    def _predict(
        self, info: TemplateFacts, action: int, chosen: tuple[int, ...]
    ) -> float:
        """Memoized analytic-predictor makespan for a concrete binding.

        Inlines :meth:`AnalyticPredictor.predict_group` +
        :meth:`~AnalyticPredictor.predict_job` over the window's
        precomputed per-profile constants — identical arithmetic in
        identical order, so the makespan is the same float the reference
        path's predictor returns.
        """
        key = (action, chosen)
        memo = self._ctx.predict_memo
        est = memo.get(key)
        if est is None:
            pred = self._ctx.predictor_consts()
            sens = self.predictor.sensitivity
            betas = info.betas
            times = [0.0] * len(chosen)
            for domain, alpha in zip(info.all_domains, info.all_alphas):
                demands = [min(pred[chosen[s]][3], alpha) for s in domain]
                total = sum(demands)
                for s, d in zip(domain, demands):
                    t_comp, t_mem, f, demand = pred[chosen[s]]
                    avail = (
                        alpha
                        if total <= alpha
                        else alpha * d / max(total, 1e-9)
                    )
                    pressure = total - d
                    comp_scale = (1.0 - f) + f / max(betas[s], 1e-6)
                    mem_scale = demand / max(min(demand, avail), 1e-9)
                    mem_scale *= 1.0 + sens * max(0.0, pressure)
                    tc = t_comp * comp_scale
                    tm = t_mem * mem_scale
                    times[s] = max(tc, tm) + 0.2 * min(tc, tm)
            est = max(times)
            memo[key] = est
        return est

    def _bind_fast(self, action: int) -> tuple[int, ...]:
        """The reference binder's answer, from the precomputed tables.

        Replays the reference computation — optimal binding via the
        Hungarian algorithm on the same reward matrix, the same
        conflict-aware local search, the same predictor arbitration
        (skipped entirely when both binders agree, which cannot change
        the outcome) — so the binding is identical.
        """
        candidates = self._candidates(action)
        info = self._action_infos[action]
        ctx = self._ctx
        m, m_list = ctx.matrix(info, action)
        rows, cols = linear_sum_assignment(m[candidates, :], maximize=True)
        b_opt = [0] * len(info.slots)
        for j, s in zip(rows, cols):
            b_opt[s] = int(j)
        if self.binding == "optimal":
            binding = b_opt
        else:
            b_ca = _conflict_search(
                [m_list[i] for i in candidates],
                [ctx.mem[i] for i in candidates],
                [ctx.dur2[i] for i in candidates],
                info.domains,
                info.alphas,
                CONFLICT_WEIGHT,
                b_opt,
            )
            if self.binding == "conflict" or b_ca == b_opt:
                binding = b_ca
            else:
                est_ca = self._predict(
                    info, action, tuple(candidates[b] for b in b_ca)
                )
                est_opt = self._predict(
                    info, action, tuple(candidates[b] for b in b_opt)
                )
                binding = b_ca if est_ca <= est_opt else b_opt
        return tuple(candidates[b] for b in binding)

    def _decide_fast(
        self, action: int
    ) -> tuple[tuple[int, ...], tuple[float, ...], ScheduledGroup]:
        """One step's ``(chosen, rewards, group)`` triple from the tables:
        the memoized :meth:`bind` answer (a template the rerank already
        scored is not bound again), its reward-table entries, and the
        co-run of the bound jobs."""
        chosen = self.bind(action)
        info = self._action_infos[action]
        _, m_list = self._ctx.matrix(info, action)
        r_is = tuple(m_list[i][s] for s, i in enumerate(chosen))
        group = ScheduledGroup.run([self._jobs[i] for i in chosen], info.tree)
        return chosen, r_is, group

    # ------------------------------------------------------------------
    # transition
    # ------------------------------------------------------------------
    def step(
        self, action: int
    ) -> tuple[np.ndarray, float, bool, bool, dict[str, Any]]:
        if self._schedule is None:
            raise SchedulingError("call reset() before step()")
        mask = self.catalog.mask(self._n_remaining())
        if not mask[action]:
            raise SchedulingError(
                f"action {action} (C={self.catalog.concurrency(action)}) is "
                f"invalid with {self._n_remaining()} jobs remaining"
            )
        if self._fast:
            # Content-addressed and job-order-invariant: the window's
            # canonical profile signatures (not its index) plus the
            # availability set, the action, and the binding mode — only
            # state the decision actually depends on, shareable across
            # environments and window permutations.
            memo_key = (
                self._sigs, tuple(self._available), action, self.binding
            )
            decision = self._decisions.get(memo_key)
            if decision is None:
                decision = self._decide_fast(action)
                # ScheduledGroup is frozen, so the instance can be
                # shared by every schedule that replays this decision.
                self._decisions.put(memo_key, decision)
            chosen, r_is, group = decision
            if any(
                a is not b
                for a, b in zip(group.jobs, (self._jobs[i] for i in chosen))
            ):
                # The entry came from a profile-identical window holding
                # different job objects: rebuild the group around this
                # window's jobs. The co-run evaluation replays through
                # the process-wide cache, so every float is identical.
                group = ScheduledGroup.run(
                    [self._jobs[i] for i in chosen], group.partition
                )
                self._decisions.put(memo_key, (chosen, r_is, group))
        else:
            chosen = self.bind(action)
            tree = self.catalog.variant(action).tree
            r_is = [
                intermediate_reward(self._profiles[i], slot, self._stats)
                for i, slot in zip(chosen, tree.slots())
            ]
            group = ScheduledGroup.run([self._jobs[i] for i in chosen], tree)
        self._schedule.append(group)
        for i in chosen:
            self._available[i] = False

        reward = group_reward(
            r_is,
            group.solo_run_time,
            group.corun_time,
            self.reward_config,
            slowdowns=group.result.slowdowns,
        )

        terminated = False
        if self._n_remaining() < 2:
            for i, avail in enumerate(self._available):
                if avail:
                    self._schedule.append(ScheduledGroup.run_solo(self._jobs[i]))
                    self._available[i] = False
            terminated = True

        info = self._info()
        if terminated:
            info["schedule"] = self._schedule
            problem = SchedulingProblem(
                window=tuple(self._jobs), c_max=self.catalog.c_max
            )
            # Structural constraints must hold by construction; the
            # throughput constraint is learned, not enforced, in
            # training (the optimizer enforces it online).
            problem.validate(self._schedule, strict_gain=False)
        return self._observe(), reward, terminated, False, info
