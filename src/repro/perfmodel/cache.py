"""Memoized co-run evaluation: the offline fast path's first layer.

Training windows are drawn from a *fixed* set of queues, so the same
``(job group, partition)`` pairs reach :func:`simulate_corun` thousands
of times across episodes. The simulation is deterministic — identical
inputs always produce identical :class:`CoRunResult`s — which makes the
call safe to memoize without changing any schedule bitwise.

:class:`CoRunCache` is a bounded LRU keyed on a **canonical signature**
of the inputs rather than object identity:

* :func:`kernel_signature` reduces a :class:`KernelModel` to the tuple
  of fields that decide its behaviour under partitioning (two ``Job``
  submissions of the same benchmark share an entry);
* :func:`partition_signature` reduces a :class:`PartitionTree` to its
  nested (GI, CI, share) fraction structure.

The cache counts hits / misses / evictions so callers (the trainer, the
perf benchmarks) can report hit rates; a process-wide default instance
backs :func:`cached_simulate_corun`, which is what the scheduling layers
(:class:`~repro.core.problem.ScheduledGroup`,
:class:`~repro.gpu.device.SimulatedGpu`, the predictive baselines) call.
``REPRO_CORUN_CACHE=0`` disables memoization globally;
:func:`corun_cache_disabled` does so for a scope (used by the A/B perf
benchmark and the determinism tests).

The class is deliberately generic — any deterministic computation with
a hashable key can ride on it (``get_or_compute``); the predictive
baselines reuse it to bound their previously unbounded predicted-cost
memo, and :mod:`repro.core.assignment` reuses it for per-(job,
slot-shape) intermediate rewards.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterator

from repro.errors import ConfigurationError
from repro.gpu.partition import PartitionTree
from repro.perfmodel.corun import CoRunResult, simulate_corun, simulate_corun_fast
from repro.workloads.kernels import KernelModel

__all__ = [
    "CacheStats",
    "CoRunCache",
    "kernel_signature",
    "partition_signature",
    "corun_signature",
    "corun_cache",
    "cached_simulate_corun",
    "corun_caching_enabled",
    "set_corun_caching",
    "corun_cache_disabled",
    "reset_corun_cache",
]

#: Default bound of the process-wide co-run cache (entries). The
#: training set is ~20 windows x a few hundred distinct (group,
#: partition) pairs each, far below this; the bound exists so online
#: workloads with unbounded job diversity cannot grow memory forever.
DEFAULT_CORUN_CACHE_SIZE = 65536


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of one cache's counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    maxsize: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        n = self.lookups
        return self.hits / n if n else 0.0

    def delta(self, since: "CacheStats") -> "CacheStats":
        """Counter difference vs. an earlier snapshot of the same cache."""
        return CacheStats(
            hits=self.hits - since.hits,
            misses=self.misses - since.misses,
            evictions=self.evictions - since.evictions,
            size=self.size,
            maxsize=self.maxsize,
        )

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "maxsize": self.maxsize,
            "hit_rate": self.hit_rate,
        }


class CoRunCache:
    """Bounded LRU over deterministic evaluations.

    Keys must be hashable canonical signatures — build them with
    :func:`corun_signature` for co-run results, or any stable tuple for
    other deterministic computations. Eviction is least-recently-*used*
    (a hit refreshes recency).
    """

    def __init__(self, maxsize: int = DEFAULT_CORUN_CACHE_SIZE) -> None:
        if maxsize <= 0:
            raise ConfigurationError("cache maxsize must be positive")
        self.maxsize = maxsize
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    # -- core protocol --------------------------------------------------
    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up a key, counting the hit/miss and refreshing recency."""
        try:
            value = self._data[key]
        except KeyError:
            self._misses += 1
            return default
        self._hits += 1
        self._data.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) an entry, evicting the LRU when full."""
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self._evictions += 1

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing it on a miss."""
        sentinel = _MISS
        value = self.get(key, sentinel)
        if value is sentinel:
            value = compute()
            self.put(key, value)
        return value

    # -- corun convenience ----------------------------------------------
    def corun(self, models: list[KernelModel], tree: PartitionTree) -> CoRunResult:
        """Memoized co-run evaluation through this cache.

        Misses are computed with
        :func:`~repro.perfmodel.corun.simulate_corun_fast`, which is
        bitwise-identical to :func:`~repro.perfmodel.corun.simulate_corun`
        (the reference the uncached path runs) but cheaper per call.
        """
        return self.get_or_compute(
            corun_signature(models, tree),
            lambda: simulate_corun_fast(models, tree),
        )

    # -- bookkeeping -----------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            size=len(self._data),
            maxsize=self.maxsize,
        )

    def clear(self, reset_stats: bool = False) -> None:
        self._data.clear()
        if reset_stats:
            self._hits = self._misses = self._evictions = 0


_MISS = object()


# ---------------------------------------------------------------------------
# canonical signatures
# ---------------------------------------------------------------------------

#: Signature memos keyed by object identity. Kernel models and partition
#: trees are immutable and long-lived (the repository holds the models,
#: the catalog the trees), so their canonical signatures are computed at
#: most once per object. Values keep a strong reference to the object so
#: the id key stays valid; the maps are cleared if ephemeral objects
#: ever bloat them.
_KERNEL_SIG_MEMO: dict[int, tuple] = {}
_TREE_SIG_MEMO: dict[int, tuple] = {}
_SIG_MEMO_LIMIT = 65536


def kernel_signature(model: KernelModel) -> tuple:
    """Canonical key for a kernel model.

    Only fields that influence :func:`simulate_corun` (plus the name,
    which appears in the result) participate; the occupancy statistics
    used solely to synthesize profile counters do not.
    """
    key = id(model)
    hit = _KERNEL_SIG_MEMO.get(key)
    if hit is not None and hit[0] is model:
        return hit[1]
    sig = (
        model.name,
        model.t_compute,
        model.t_memory,
        model.parallel_fraction,
        model.bw_demand,
        model.interference_sensitivity,
        model.saturation_fraction,
        model.overlap,
    )
    if len(_KERNEL_SIG_MEMO) >= _SIG_MEMO_LIMIT:
        _KERNEL_SIG_MEMO.clear()
    _KERNEL_SIG_MEMO[key] = (model, sig)
    return sig


def partition_signature(tree: PartitionTree) -> tuple:
    """Canonical key for a partition tree: its nested fraction layout."""
    key = id(tree)
    hit = _TREE_SIG_MEMO.get(key)
    if hit is not None and hit[0] is tree:
        return hit[1]
    sig = (
        tree.mig_enabled,
        tuple(
            (
                gi.mem_fraction,
                tuple(
                    (ci.compute_fraction, tuple(s.fraction for s in ci.shares))
                    for ci in gi.cis
                ),
            )
            for gi in tree.gis
        ),
    )
    if len(_TREE_SIG_MEMO) >= _SIG_MEMO_LIMIT:
        _TREE_SIG_MEMO.clear()
    _TREE_SIG_MEMO[key] = (tree, sig)
    return sig


def corun_signature(models: list[KernelModel], tree: PartitionTree) -> tuple:
    """Canonical key of one (job group, partition) evaluation.

    Binding order matters — the simulator assigns jobs to slots in
    order — so the model tuple is *not* sorted.
    """
    return (
        tuple(kernel_signature(m) for m in models),
        partition_signature(tree),
    )


# ---------------------------------------------------------------------------
# the process-wide default cache
# ---------------------------------------------------------------------------

_DEFAULT_CACHE = CoRunCache(DEFAULT_CORUN_CACHE_SIZE)
_ENABLED = os.environ.get("REPRO_CORUN_CACHE", "1") not in ("0", "false", "off")


def corun_cache() -> CoRunCache:
    """The process-wide co-run cache instance."""
    return _DEFAULT_CACHE


def corun_caching_enabled() -> bool:
    """Whether the memoized fast path is active (also consulted by the
    environment's decision memo, so one switch governs every layer)."""
    return _ENABLED


def set_corun_caching(enabled: bool) -> None:
    """Globally enable/disable the memoized fast path."""
    global _ENABLED
    _ENABLED = bool(enabled)


@contextmanager
def corun_cache_disabled() -> Iterator[None]:
    """Scope with memoization off — every evaluation recomputes."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


def reset_corun_cache() -> None:
    """Drop all entries and zero the counters of the default cache."""
    _DEFAULT_CACHE.clear(reset_stats=True)


def cached_simulate_corun(
    models: list[KernelModel], tree: PartitionTree
) -> CoRunResult:
    """Drop-in :func:`simulate_corun` with process-wide memoization.

    Falls through to the real simulation when caching is disabled.
    Results are frozen dataclasses, so sharing one instance across
    callers is safe.
    """
    if not _ENABLED:
        return simulate_corun(models, tree)
    return _DEFAULT_CACHE.corun(models, tree)
