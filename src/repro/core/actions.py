"""The agent's action space: the 29-template catalog with validity masks.

An action is one *group template*: a concurrency level plus a complete
hierarchical partition (see :func:`repro.gpu.variants.action_catalog`
for the composition matching Table VI's ``A = 29``). A template is
valid in a state iff its concurrency fits both the remaining window and
the scheduler's ``C_max``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SchedulingError
from repro.gpu.arch import A100_40GB, GpuSpec
from repro.gpu.variants import PartitionVariant, action_catalog

__all__ = ["ActionCatalog", "TemplateFacts"]


class TemplateFacts:
    """Static facts about one group template, computed once per catalog.

    Everything here is a pure function of the template's partition tree:
    its slots, their ``(compute, memory)`` shapes, and the memory
    domains the conflict-aware objective penalizes (pre-filtered to the
    multi-slot ones, with their bandwidth fractions).
    """

    __slots__ = (
        "variant",
        "tree",
        "slots",
        "shapes",
        "betas",
        "domains",
        "alphas",
        "all_domains",
        "all_alphas",
    )

    def __init__(self, variant: PartitionVariant) -> None:
        self.variant = variant
        self.tree = variant.tree
        self.slots = self.tree.slots()
        self.shapes = tuple(
            (s.compute_fraction, s.mem_fraction) for s in self.slots
        )
        self.betas = [s.compute_fraction for s in self.slots]
        all_domains = self.tree.mem_domains()
        # All domains (with their bandwidth fractions) for the analytic
        # predictor; only the multi-slot ones for the conflict penalty.
        self.all_domains = [tuple(d) for d in all_domains]
        self.all_alphas = [
            self.slots[d[0]].mem_fraction for d in self.all_domains
        ]
        self.domains = [d for d in self.all_domains if len(d) >= 2]
        self.alphas = [self.slots[d[0]].mem_fraction for d in self.domains]


class ActionCatalog:
    """Immutable view over the 29 group templates."""

    def __init__(self, spec: GpuSpec = A100_40GB, c_max: int = 4):
        if c_max < 1:
            raise SchedulingError("C_max must be at least 1")
        self.spec = spec
        self.c_max = c_max
        self.variants: list[PartitionVariant] = action_catalog(spec)
        self._mask_cache: dict[int, np.ndarray] = {}
        self._facts: tuple[TemplateFacts, ...] | None = None

    def __len__(self) -> int:
        return len(self.variants)

    @property
    def n_actions(self) -> int:
        return len(self.variants)

    def variant(self, action: int) -> PartitionVariant:
        if not 0 <= action < len(self.variants):
            raise SchedulingError(
                f"action {action} out of range [0, {len(self.variants)})"
            )
        return self.variants[action]

    def template_facts(self) -> tuple[TemplateFacts, ...]:
        """Static facts for every template, in action order — built once
        per catalog and shared by every environment over it."""
        if self._facts is None:
            self._facts = tuple(TemplateFacts(v) for v in self.variants)
        return self._facts

    def concurrency(self, action: int) -> int:
        return self.variant(action).concurrency

    def mask(self, n_remaining: int) -> np.ndarray:
        """Boolean validity mask for a state with ``n_remaining``
        schedulable jobs.

        A template needs exactly its concurrency in jobs, bounded by
        ``C_max``. With fewer than 2 jobs left no template is valid —
        the environment then drains the remainder with solo runs.
        """
        limit = min(n_remaining, self.c_max)
        cached = self._mask_cache.get(limit)
        if cached is None:
            cached = np.array(
                [v.concurrency <= limit for v in self.variants], dtype=bool
            )
            self._mask_cache[limit] = cached
        # A copy per call: masks are handed to agents and replay buffers,
        # which must not alias the memoized base.
        return cached.copy()

    def actions_with_concurrency(self, c: int) -> list[int]:
        return [i for i, v in enumerate(self.variants) if v.concurrency == c]
