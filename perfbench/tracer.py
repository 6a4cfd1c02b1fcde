"""In-memory span tracer that wraps the program's public boundaries.

The traced pass of the benchmark installs a :class:`Tracer`, which
replaces each boundary in :data:`BOUNDARIES` (a class attribute or a
module-level function) with a wrapper that records one span per call:
name, start, end and the enclosing span. Spans live in flat arrays and
are written out once at exit. Self time is a span's duration minus the
time covered by its direct children, accumulated per span name as the
spans close.

A boundary that no longer exists (a later refactor removed or renamed
it) is skipped and listed in :attr:`Tracer.absent`; its time then lands
in the enclosing span's self time. :meth:`Tracer.uninstall` puts every
wrapped attribute back exactly as it was.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

__all__ = ["BOUNDARIES", "Tracer"]


def _count_rejected(counts, args, result):
    if result is False:
        counts["admission.rejected"] += 1


def _count_windows(counts, args, result):
    counts["decide.windows"] += len(args[1])


def _count_lookup(counts, args, result):
    counts["decide.cache_hits" if result is not None else "decide.cache_misses"] += 1


def _count_rows(counts, args, result):
    counts["forward.rows"] += len(args[1])


def _count_retries(counts, args, result):
    counts["replay.retries"] += result.retries


#: (span name, module, attribute path, count hook). The attribute path is
#: ``Class.method`` for methods (wrapped on that class only) or a
#: function name (wrapped in every loaded ``repro`` module that bound it
#: by import). Count hooks see ``(counts, args, result)``.
BOUNDARIES: tuple[tuple[str, str, str, object], ...] = (
    ("fleet", "repro.cluster.fleet", "FleetEngine.run", None),
    ("admission", "repro.cluster.fleet", "AdmitAll.admit", _count_rejected),
    ("admission", "repro.cluster.fleet", "BoundedQueue.admit", _count_rejected),
    ("admission", "repro.cluster.fleet", "TokenBucket.admit", _count_rejected),
    ("replay", "repro.cluster.node", "GpuNode.execute_schedule", None),
    ("replay", "repro.cluster.node", "GpuNode.execute_schedule_ft", _count_retries),
    ("replay", "repro.cluster.node", "GpuNode.execute_schedule_fast", _count_retries),
    ("decide", "repro.cluster.policy", "PolicySelector.schedule_batch", _count_windows),
    ("decide.lookup", "repro.core.serving", "DecisionCache.get", _count_lookup),
    ("decide.replay", "repro.core.serving", "SchedulePlan.materialize", None),
    ("decide.validate", "repro.core.problem", "SchedulingProblem.validate", None),
    ("env", "repro.core.env", "CoSchedulingEnv.reset", None),
    ("env", "repro.core.env", "CoSchedulingEnv.step", None),
    ("forward", "repro.rl.dqn", "DuelingDoubleDQNAgent.q_values_many", _count_rows),
    ("act", "repro.rl.dqn", "DuelingDoubleDQNAgent.act", None),
    ("update", "repro.rl.dqn", "DuelingDoubleDQNAgent.train_step", None),
    ("update", "repro.hierarchy.placement", "PlacementAgent.train_step_per", None),
    ("sample", "repro.rl.replay", "ReplayBuffer.sample", None),
    ("sample", "repro.rl.replay", "PrioritizedReplayBuffer.sample", None),
    ("assign", "repro.core.assignment", "assign_optimal", None),
    ("assign", "repro.core.assignment", "assign_conflict_aware", None),
    ("assign", "repro.core.assignment", "assign_greedy", None),
    ("assign", "repro.core.assignment", "assign_exhaustive", None),
    ("predict", "repro.core.predictor", "AnalyticPredictor.predict_group", None),
    ("corun.simulate", "repro.perfmodel.corun", "simulate_corun", None),
    ("corun.simulate", "repro.perfmodel.corun", "simulate_corun_fast", None),
    ("placement", "repro.hierarchy.placement", "PlacementAgent.place", None),
    ("placement", "repro.hierarchy.placement", "PlacementAgent.place_with_info", None),
    ("placement", "repro.hierarchy.placement", "LeastLoadedPlacement.place", None),
    ("placement", "repro.hierarchy.placement", "RoundRobinPlacement.place", None),
    ("placement", "repro.hierarchy.placement", "RandomPlacement.place", None),
    ("placement.observe", "repro.hierarchy.features", "PlacementObservation.observe", None),
    ("placement.mask", "repro.hierarchy.features", "PlacementObservation.candidate_mask", None),
    ("telemetry", "repro.telemetry.facade", "Telemetry.span", None),
    ("telemetry", "repro.telemetry.facade", "Telemetry.event", None),
    ("telemetry", "repro.telemetry.facade", "Telemetry.count", None),
    ("telemetry", "repro.telemetry.facade", "Telemetry.gauge", None),
    ("telemetry", "repro.telemetry.facade", "Telemetry.observe", None),
    ("telemetry", "repro.telemetry.facade", "Telemetry.sketch", None),
    ("telemetry", "repro.telemetry.facade", "Telemetry.sync_sketch", None),
    ("telemetry", "repro.obs.phase", "PhaseTimers.add", None),
    ("trainer", "repro.core.trainer", "OfflineTrainer.train", None),
    ("trainer", "repro.hierarchy.trainer", "JointTrainer.train", None),
    ("profile", "repro.core.evaluation", "profile_all_benchmarks", None),
    ("profile", "repro.core.trainer", "OfflineTrainer.build_repository", None),
)


class _Aggregate:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Records spans around wrapped boundaries; one instance per run."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row per closed span, in close order; parents refer to ids
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self._next_id = 0
        # open spans: [span id, name id, start, child time, aggregate]
        self._stack: list[list] = []
        self._open: list[int] = []  # open spans per name id
        self.aggregates: dict[str, _Aggregate] = {}
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self._wrappers: set[int] = set()

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.aggregates[name] = _Aggregate()
            self._open.append(0)
        return nid

    def _enter(self, nid: int) -> list:
        frame = [self._next_id, nid, 0.0, 0.0, self.aggregates[self.names[nid]]]
        self._next_id += 1
        self._open[nid] += 1
        self._stack.append(frame)
        frame[2] = self.clock()
        return frame

    def _exit(self, frame: list) -> None:
        end = self.clock()
        stack = self._stack
        stack.pop()
        span_id, nid, start, child, agg = frame
        duration = end - start
        agg.calls += 1
        agg.self_time += duration - child
        self._open[nid] -= 1
        if not self._open[nid]:
            # inclusive time counts the outermost span of a name only,
            # so a boundary nested in itself is not counted twice
            agg.total += duration
        if stack:
            parent = stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        else:
            parent_id = -1
        self.span_id.append(span_id)
        self.span_name.append(nid)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(parent_id)

    def span(self, name: str):
        """Context manager for a span the benchmark opens itself."""
        return _Span(self, self._name_id(name))

    def wrap(self, fn, name: str, count=None):
        """``fn`` recording one ``name`` span per call."""
        nid = self._name_id(name)
        enter, leave, counts = self._enter, self._exit, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if count is not None:
                count(counts, args, result)
            return result

        self._wrappers.add(id(traced))
        return traced

    def wrap_iter(self, iterable, name: str, count_key: str):
        """An iterator timing each ``next`` of ``iterable`` as a span and
        counting the items it yields under ``count_key``."""
        nid = self._name_id(name)
        it = iter(iterable)
        while True:
            frame = self._enter(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._exit(frame)
            self.counts[count_key] += 1
            yield item

    # ------------------------------------------------------------------
    # installing wrappers
    # ------------------------------------------------------------------
    def install(self, boundaries=BOUNDARIES) -> None:
        """Wrap every boundary that exists in the loaded program.

        A method inherited from a class already wrapped here is left to
        that wrapper; one inherited from an unwrapped base is wrapped on
        the subclass alone (``DecisionCache.get`` but not every
        ``CoRunCache.get``)."""
        for name, module_name, path, count in boundaries:
            label = f"{module_name}.{path}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(label)
                continue
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = getattr(owner, attr, None)
                if owner is None or not callable(original):
                    self.absent.append(label)
                    continue
                if id(original) not in self._wrappers:
                    self._patch(owner, attr, self.wrap(original, name, count))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(label)
                continue
            traced = self.wrap(original, name, count)
            # patch every module that bound the function by import
            for mod_name in sorted(sys.modules):
                mod = sys.modules[mod_name]
                if (
                    (mod_name == "repro" or mod_name.startswith("repro."))
                    and mod is not None
                    and mod.__dict__.get(attr) is original
                ):
                    self._patch(mod, attr, traced)

    def _patch(self, owner, attr: str, value) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, most recent first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, tuple[int, float, float]]:
        """Per-name ``(calls, total seconds, self seconds)`` so far."""
        return {
            name: (agg.calls, agg.total, agg.self_time)
            for name, agg in self.aggregates.items()
        }

    def write(self, path) -> None:
        """Write every recorded span to ``path`` (``.npz``)."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            id=np.frombuffer(self.span_id, dtype=np.int64),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
        )


class _Span:
    __slots__ = ("tracer", "nid", "frame")

    def __init__(self, tracer: Tracer, nid: int) -> None:
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.frame = self.tracer._enter(self.nid)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._exit(self.frame)
