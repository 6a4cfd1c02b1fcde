"""Power-capped online optimization.

Extends the online optimizer so that every co-scheduling decision
respects a device power cap: candidate group templates whose *predicted*
draw (from profile counters — no launch needed) exceeds the cap are
masked out before the Q-ranking/reranking, on the serial and the
batched path alike, so the emitted schedule is cap-feasible by
construction. When no co-run template fits the cap the window degrades
gracefully towards solo execution (the minimum-draw configuration
available without clock throttling, which is out of this model's
scope).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SchedulingError
from repro.core.env import CoSchedulingEnv
from repro.core.optimizer import OnlineOptimizer
from repro.power.model import PowerModel
from repro.profiling.profiler import JobProfile

__all__ = ["PowerCappedOptimizer"]


class PowerCappedOptimizer(OnlineOptimizer):
    """Online optimizer with a hard group-power budget."""

    name = "MIG+MPS w/ RL (power-capped)"

    def __init__(
        self,
        *args,
        power_cap_watts: float,
        power_model: PowerModel | None = None,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.power_model = power_model or PowerModel()
        if power_cap_watts <= self.power_model.idle_watts:
            raise SchedulingError(
                f"power cap {power_cap_watts} W is below the idle draw "
                f"{self.power_model.idle_watts} W"
            )
        self.power_cap_watts = power_cap_watts
        self.cap_violation_fallbacks = 0
        # a capped plan must never be served to (or from) an uncapped
        # optimizer sharing the decision cache
        self._policy_sig += (power_cap_watts, self.power_model)

    # ------------------------------------------------------------------
    def estimate_group_watts(
        self, profiles: list[JobProfile], tree
    ) -> float:
        """Predicted group draw from profile counters only.

        Per job: compute activity = SM-busy duty (from the cycle
        counters) x its slot's compute share; bandwidth = its average
        DRAM utilization capped by what the slot's compute pace can
        drive.
        """
        pm = self.power_model
        slots = tree.slots()
        dynamic = 0.0
        for profile, slot in zip(profiles, slots):
            c = profile.counters
            duty = min(1.0, c.sm_active_cycles / max(c.elapsed_cycles, 1e-9))
            compute_activity = slot.compute_fraction * duty
            bandwidth = min(c.memory_pct / 100.0, slot.mem_fraction)
            dynamic += (
                pm.compute_watts * compute_activity
                + pm.memory_watts * bandwidth
            )
        return min(pm.idle_watts + dynamic, pm.tdp_watts)

    # ------------------------------------------------------------------
    def _rerank(
        self, env: CoSchedulingEnv, q: np.ndarray, mask: np.ndarray
    ) -> int:
        """Q-ranked selection restricted to cap-feasible templates.

        Each valid template is costed under the env's own binding
        (:meth:`~repro.core.env.CoSchedulingEnv.bind`, memoized on the
        fast path), so the serial and batched paths apply the same cap.
        """
        profiles = env.job_profiles
        watts: dict[int, float] = {}
        feasible = mask.copy()
        for action in np.flatnonzero(mask):
            action = int(action)
            w = self.estimate_group_watts(
                [profiles[i] for i in env.bind(action)],
                self.catalog.variant(action).tree,
            )
            watts[action] = w
            if w > self.power_cap_watts:
                feasible[action] = False

        if feasible.any():
            return super()._rerank(env, q, feasible)
        # no template fits the cap: best effort — the least-drawing one
        self.cap_violation_fallbacks += 1
        return min(watts, key=watts.get)
