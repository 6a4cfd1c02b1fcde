"""Online optimization (paper Fig. 7, right half).

The :class:`OnlineOptimizer` wraps a trained (frozen) agent:

* jobs without a stored profile are excluded from co-scheduling — they
  run exclusively while being profiled, and their profile enters the
  repository for next time (Section IV-B);
* profiled jobs are drained through the co-scheduling environment with
  the greedy (epsilon = 0) policy. The Q-network proposes its
  ``rerank_top_k`` best templates and the profile-based analytic
  predictor arbitrates among them — a pure-compute refinement (no job
  is launched to make the decision) that filters residual Q-value noise
  without leaving the paper's classification framing (``rerank_top_k=1``
  is the plain argmax policy, available for ablation);
* the paper's first constraint is enforced: any emitted group whose
  co-run loses to time sharing is split back into solo runs;
* the decision-making overhead (pure agent/assignment compute time) is
  tracked against the simulated execution time to substantiate the
  "< 0.5% online overhead" claim of Section V-B. Latency is read from
  an *injectable* clock (``repro.clock.perf_clock`` by default): simulated
  runs can pass a deterministic counter so their outputs stay
  bit-reproducible, while production keeps observing real wall time —
  every per-window latency also lands in the
  ``optimizer_decision_seconds`` telemetry histogram.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.clock import Clock, perf_clock
from repro.errors import SchedulingError
from repro.core.actions import ActionCatalog
from repro.core.env import CoSchedulingEnv
from repro.core.predictor import ASSUMED_SENSITIVITY
from repro.core.problem import Schedule, ScheduledGroup, SchedulingProblem
from repro.core.rewards import RewardConfig
from repro.core.serving import (
    DecisionCache,
    SchedulePlan,
    canonical_order,
    profile_signature,
)
from repro.gpu.device import SimulatedGpu
from repro.profiling.profiler import NsightProfiler
from repro.profiling.repository import ProfileRepository
from repro.rl.dqn import DuelingDoubleDQNAgent
from repro.telemetry.facade import NULL_TELEMETRY, Telemetry
from repro.workloads.jobs import Job

__all__ = ["OnlineDecision", "OnlineOptimizer"]

#: fine sub-millisecond buckets for per-window decision latency, so the
#: exported histogram supports p50/p99 estimates in the serving regime
_LATENCY_BUCKETS = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 1.0,
)
#: windows per optimize_many() call
_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)
#: the env binding mode online decisions use (part of the policy digest)
_BINDING = "auto"


@dataclass(frozen=True)
class OnlineDecision:
    """A finished online pass over one window.

    ``decision_seconds`` is always *this window's* share of decision
    compute: on the batched path each window is charged its own
    selection/replay time plus a ``1/B`` share of every batched network
    forward it participated in — never the whole batch's latency.
    ``cached`` marks a schedule replayed from the fleet-level
    :class:`~repro.core.serving.DecisionCache`.
    """

    schedule: Schedule
    n_unprofiled: int
    decision_seconds: float
    cached: bool = False

    @property
    def overhead_fraction(self) -> float:
        """Decision compute time relative to the executed makespan.

        A zero/near-zero makespan (degenerate schedule) would turn the
        old ``decision_seconds / max(total, 1e-12)`` into a meaningless
        astronomically large number: report 0.0 when no decision time
        was spent either, ``inf`` when it was.
        """
        total = self.schedule.total_time
        if total <= 1e-9:
            return 0.0 if self.decision_seconds <= 0.0 else float("inf")
        return self.decision_seconds / total


class _PendingWindow:
    """Mutable per-window bookkeeping inside :meth:`optimize_many`."""

    __slots__ = (
        "window", "profiled", "unprofiled", "schedule", "jobs_c", "key",
        "decision_seconds", "cached", "env", "obs", "info", "capture",
    )

    def __init__(
        self,
        window: list[Job],
        profiled: list[Job],
        unprofiled: list[Job],
        schedule: Schedule,
    ) -> None:
        self.window = window
        self.profiled = profiled
        self.unprofiled = unprofiled
        self.schedule = schedule
        self.jobs_c: list[Job] = []
        self.key: tuple | None = None
        self.decision_seconds = 0.0
        self.cached = False
        self.env: CoSchedulingEnv | None = None
        self.obs = None
        self.info: dict | None = None
        self.capture = None


class OnlineOptimizer:
    """Applies a trained agent to live job windows."""

    name = "MIG+MPS w/ RL"

    def __init__(
        self,
        agent: DuelingDoubleDQNAgent,
        repository: ProfileRepository,
        catalog: ActionCatalog,
        window_size: int,
        reward_config: RewardConfig | None = None,
        profiler: NsightProfiler | None = None,
        rerank_top_k: int = 5,
        clock: Clock | None = None,
        telemetry: Telemetry = NULL_TELEMETRY,
        recorder: "DecisionRecorder | None" = None,
        decision_cache: DecisionCache | None = None,
    ):
        if rerank_top_k < 1:
            raise SchedulingError("rerank_top_k must be at least 1")
        self.agent = agent
        self.repository = repository
        self.catalog = catalog
        self.window_size = window_size
        self.reward_config = reward_config or RewardConfig()
        self.profiler = profiler or NsightProfiler(SimulatedGpu(), noise=0.01)
        self.rerank_top_k = rerank_top_k
        self.clock = clock if clock is not None else perf_clock
        self.telemetry = telemetry
        self.recorder = recorder
        # The fleet-level whole-window memo (optimize_many only; the
        # serial optimize() stays the cache-free reference path). Its
        # key carries the policy signature: the config sizes plus a
        # digest of everything else a decision depends on, so optimizers
        # serving different policies can share one cache safely.
        self.decision_cache = decision_cache
        self._policy_sig: tuple = (
            self.window_size,
            self.catalog.c_max,
            self.catalog.n_actions,
            self.rerank_top_k,
            self._policy_digest(),
        )
        self.agent.freeze()

    def _policy_digest(self) -> str:
        """BLAKE2 digest of the frozen network's parameters, the reward
        config, the env binding mode and the predictor sensitivity.
        Taken once: the agent is frozen for the optimizer's lifetime."""
        h = hashlib.blake2b(digest_size=16)
        for value in self.agent.online.state_dict():
            h.update(repr((value.shape, value.dtype.str)).encode())
            h.update(np.ascontiguousarray(value).tobytes())
        h.update(
            repr((self.reward_config, _BINDING, ASSUMED_SENSITIVITY)).encode()
        )
        return h.hexdigest()

    def _make_env(self, profiled: list[Job]) -> CoSchedulingEnv:
        """A one-window environment draining ``profiled``."""
        return CoSchedulingEnv(
            windows=[profiled],
            repository=self.repository,
            catalog=self.catalog,
            window_size=self.window_size,
            reward_config=self.reward_config,
            shuffle_windows=False,
            binding=_BINDING,
        )

    # ------------------------------------------------------------------
    def optimize(self, window: list[Job]) -> OnlineDecision:
        """Produce and validate a schedule for one window."""
        if not window:
            raise SchedulingError("cannot optimize an empty window")
        if len(window) > self.window_size:
            raise SchedulingError(
                f"window of {len(window)} exceeds the trained size "
                f"{self.window_size}"
            )
        profiled = [j for j in window if self.repository.has(j)]
        unprofiled = [j for j in window if not self.repository.has(j)]

        schedule = Schedule(method=self.name)
        decision_time = 0.0

        # Unprofiled jobs run exclusively; their profile is collected and
        # stored so the next submission co-schedules.
        for job in unprofiled:
            profile = self.profiler.profile(job)
            self.repository.store(job, profile)
            schedule.append(ScheduledGroup.run_solo(job))

        capture = None
        if len(profiled) == 1:
            schedule.append(ScheduledGroup.run_solo(profiled[0]))
        elif profiled:
            env = self._make_env(profiled)
            if self.recorder is not None:
                from repro.insight.records import WindowCapture

                capture = WindowCapture(self.recorder, "online", self.agent, env)
            obs, info = env.reset(options={"window_index": 0})
            done = False
            while not done:
                t0 = self.clock()
                action = self._select_action(env, obs, info["action_mask"])
                decision_time += self.clock() - t0
                if capture is not None:
                    capture.stage(obs, info["action_mask"], action)
                obs, _, terminated, truncated, info = env.step(action)
                done = terminated or truncated
            for group in self._enforce_gain(info["schedule"]):
                schedule.append(group)
            if capture is not None:
                capture.finalize(
                    info["schedule"],
                    schedule,
                    full_window=window,
                    method=self.name,
                    c_max=self.catalog.c_max,
                    window_size=self.window_size,
                    n_unprofiled=len(unprofiled),
                    decision_seconds=decision_time,
                )
        if self.recorder is not None and capture is None:
            # no agent decision this window (<=1 profiled job) — still
            # log the window so regret accounting covers every pass
            from repro.insight.records import WindowCapture

            WindowCapture(
                self.recorder, "online", self.agent, env=None
            ).finalize_empty(
                schedule,
                full_window=window,
                method=self.name,
                c_max=self.catalog.c_max,
                window_size=self.window_size,
                n_unprofiled=len(unprofiled),
                decision_seconds=decision_time,
            )
        if self.telemetry.enabled:
            self.telemetry.observe(
                "optimizer_decision_seconds",
                decision_time,
                buckets=_LATENCY_BUCKETS,
            )

        problem = SchedulingProblem(
            window=tuple(window), c_max=max(self.catalog.c_max, 1)
        )
        problem.validate(schedule, strict_gain=True)
        return OnlineDecision(
            schedule=schedule,
            n_unprofiled=len(unprofiled),
            decision_seconds=decision_time,
        )

    # ------------------------------------------------------------------
    def optimize_many(self, windows: list[list[Job]]) -> list[OnlineDecision]:
        """Serve many concurrent windows through one batched fast path.

        Semantics are exactly ``[optimize(w) for w in windows]`` — the
        returned schedules are bitwise-identical to the sequential
        reference loop — but the cost structure is not:

        * windows are profiled/split in submission order (so repository
          mutations land exactly as the sequential loop's would), then
          every agent-driven window advances in *lockstep*: each decision
          step costs one batched ``(B, n_inputs)`` network forward for
          the whole batch instead of ``B`` single-row forwards;
        * with a :class:`~repro.core.serving.DecisionCache` attached,
          each window's canonical content signature is resolved first —
          a cache hit (or a duplicate signature within this very batch)
          replays the stored :class:`~repro.core.serving.SchedulePlan`
          through the co-run cache and never touches the network;
        * per-window ``decision_seconds`` stays honest: a window is
          charged its own lookup/selection/replay compute plus a ``1/B``
          share of each batched forward it participated in — never the
          whole batch's latency.
        """
        if not windows:
            return []
        for window in windows:
            if not window:
                raise SchedulingError("cannot optimize an empty window")
            if len(window) > self.window_size:
                raise SchedulingError(
                    f"window of {len(window)} exceeds the trained size "
                    f"{self.window_size}"
                )

        if self.recorder is not None:
            from repro.insight.records import WindowCapture

        cache = self.decision_cache
        entries: list[_PendingWindow] = []

        # Phase 1 — profiling split, strictly in submission order: a job
        # profiled for an earlier window is already in the repository
        # when a later window asks, exactly like the sequential loop.
        for window in windows:
            profiled = [j for j in window if self.repository.has(j)]
            unprofiled = [j for j in window if not self.repository.has(j)]
            schedule = Schedule(method=self.name)
            for job in unprofiled:
                profile = self.profiler.profile(job)
                self.repository.store(job, profile)
                schedule.append(ScheduledGroup.run_solo(job))
            entries.append(
                _PendingWindow(window, profiled, unprofiled, schedule)
            )

        # Phase 2 — resolve each window: trivial drain, cache replay,
        # intra-batch duplicate (follower), or a live lockstep episode.
        active: list[_PendingWindow] = []
        followers: list[_PendingWindow] = []
        leaders: dict[tuple, _PendingWindow] = {}
        for entry in entries:
            if not entry.profiled:
                continue
            if len(entry.profiled) == 1:
                entry.schedule.append(
                    ScheduledGroup.run_solo(entry.profiled[0])
                )
                continue
            t0 = self.clock()
            if cache is not None:
                profs = [self.repository.lookup(j) for j in entry.profiled]
                order = canonical_order(profs)
                entry.jobs_c = [entry.profiled[i] for i in order]
                sigs = tuple(profile_signature(profs[i]) for i in order)
                entry.key = (sigs, self._policy_sig)
                if entry.key in leaders:
                    # duplicate content within this batch: replay the
                    # leader's plan once it lands in the cache (phase 5)
                    entry.decision_seconds += self.clock() - t0
                    followers.append(entry)
                    continue
                plan = cache.get(entry.key)
                if plan is not None:
                    for group in plan.materialize(entry.jobs_c):
                        entry.schedule.append(group)
                    entry.cached = True
                    entry.decision_seconds += self.clock() - t0
                    continue
                leaders[entry.key] = entry
            entry.decision_seconds += self.clock() - t0
            entry.env = self._make_env(entry.profiled)
            if self.recorder is not None:
                entry.capture = WindowCapture(
                    self.recorder, "online", self.agent, entry.env
                )
            entry.obs, entry.info = entry.env.reset(
                options={"window_index": 0}
            )
            active.append(entry)

        # Phase 3 — lockstep decision loop: one batched forward per step
        # serves every still-active window; each window then reranks its
        # own Q row and steps its own environment.
        while active:
            t0 = self.clock()
            q_rows = self.agent.q_values_many(
                np.stack([e.obs for e in active])
            )
            share = (self.clock() - t0) / len(active)
            still: list[_PendingWindow] = []
            for entry, q in zip(active, q_rows):
                t0 = self.clock()
                action = self._rerank(entry.env, q, entry.info["action_mask"])
                entry.decision_seconds += (self.clock() - t0) + share
                if entry.capture is not None:
                    entry.capture.stage(
                        entry.obs, entry.info["action_mask"], action
                    )
                entry.obs, _, terminated, truncated, entry.info = (
                    entry.env.step(action)
                )
                if not (terminated or truncated):
                    still.append(entry)
            active = still

        # Phase 4 — finish live episodes: gain enforcement, insight
        # recording, and (when caching) plan capture for future windows.
        for entry in entries:
            if entry.env is None:
                continue
            groups = self._enforce_gain(entry.info["schedule"])
            for group in groups:
                entry.schedule.append(group)
            if entry.capture is not None:
                entry.capture.finalize(
                    entry.info["schedule"],
                    entry.schedule,
                    full_window=entry.window,
                    method=self.name,
                    c_max=self.catalog.c_max,
                    window_size=self.window_size,
                    n_unprofiled=len(entry.unprofiled),
                    decision_seconds=entry.decision_seconds,
                )
            if cache is not None:
                cache.put(
                    entry.key, SchedulePlan.from_groups(groups, entry.jobs_c)
                )

        # Phase 5 — followers replay their leader's freshly stored plan
        # (an honest cache hit: same lookup the next batch would do).
        for entry in followers:
            t0 = self.clock()
            plan = cache.get(entry.key)
            for group in plan.materialize(entry.jobs_c):
                entry.schedule.append(group)
            entry.cached = True
            entry.decision_seconds += self.clock() - t0

        # Phase 6 — validate, record decision-free windows, emit
        # telemetry, and assemble results in submission order.
        decisions: list[OnlineDecision] = []
        for entry in entries:
            if self.recorder is not None and entry.capture is None:
                # cached replay or <=1 profiled job: no agent decision,
                # but the window still enters regret accounting
                WindowCapture(
                    self.recorder, "online", self.agent, env=None
                ).finalize_empty(
                    entry.schedule,
                    full_window=entry.window,
                    method=self.name,
                    c_max=self.catalog.c_max,
                    window_size=self.window_size,
                    n_unprofiled=len(entry.unprofiled),
                    decision_seconds=entry.decision_seconds,
                )
            if self.telemetry.enabled:
                self.telemetry.observe(
                    "optimizer_decision_seconds",
                    entry.decision_seconds,
                    buckets=_LATENCY_BUCKETS,
                )
            problem = SchedulingProblem(
                window=tuple(entry.window), c_max=max(self.catalog.c_max, 1)
            )
            problem.validate(entry.schedule, strict_gain=True)
            decisions.append(
                OnlineDecision(
                    schedule=entry.schedule,
                    n_unprofiled=len(entry.unprofiled),
                    decision_seconds=entry.decision_seconds,
                    cached=entry.cached,
                )
            )
        if self.telemetry.enabled:
            self.telemetry.observe(
                "serving_batch_windows",
                float(len(windows)),
                buckets=_BATCH_BUCKETS,
            )
        return decisions

    # ------------------------------------------------------------------
    def _select_action(
        self, env: CoSchedulingEnv, obs: np.ndarray, mask: np.ndarray
    ) -> int:
        """One window's greedy decision: Q forward plus reranking."""
        return self._rerank(env, self.agent.q_values(obs), mask)

    def _rerank(
        self, env: CoSchedulingEnv, q: np.ndarray, mask: np.ndarray
    ) -> int:
        """Greedy Q action, refined by predictor reranking of the top-k.

        ``q`` is the unmasked Q row for the current observation — from a
        single forward (:meth:`_select_action`) or one row of a batched
        :meth:`~repro.rl.dqn.DuelingDoubleDQNAgent.q_values_many`
        forward; the two are bitwise-identical, so so is the choice.

        The predictor score is the group's predicted throughput gain
        under the binding the environment would use
        (:meth:`~repro.core.env.CoSchedulingEnv.predicted_gain`) — a
        profile-only computation, so the choice is implementable on a
        real system before any launch. On the fast path it reads the
        env's window tables, and the binding it scores is memoized, so
        the :meth:`~repro.core.env.CoSchedulingEnv.step` that follows
        reuses it.
        """
        q = np.where(mask, q, -np.inf)
        order = np.argsort(q)[::-1]
        top = [int(a) for a in order[: self.rerank_top_k] if mask[a]]
        if not top:
            raise SchedulingError("no valid action available")
        if len(top) == 1:
            return top[0]
        best_action, best_score = top[0], -np.inf
        for action in top:
            score = env.predicted_gain(action)
            if score > best_score:
                best_action, best_score = action, score
        return best_action

    def _enforce_gain(self, schedule: Schedule) -> list[ScheduledGroup]:
        """Split any group that lost to time sharing into solo runs
        (constraint 1 of the problem definition)."""
        out: list[ScheduledGroup] = []
        for group in schedule.groups:
            if group.result.beats_time_sharing():
                out.append(group)
            else:
                out.extend(ScheduledGroup.run_solo(j) for j in group.jobs)
        return out
