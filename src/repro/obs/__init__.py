"""repro.obs — causal lifecycle tracing and streaming fleet observability.

The fleet-scale half of the observability stack (DESIGN.md §15), built
on the PR 3 telemetry substrate:

* :mod:`repro.obs.trace` — deterministic per-job :class:`TraceContext`
  (trace ids keyed on job id + run seed) and the
  :class:`LifecycleTracer` that turns every job's arrival → admission →
  placement → dispatch/retry → terminal outcome into one causally
  linked span tree, streamed to JSONL in constant memory;
* :mod:`repro.obs.sketch` — :class:`QuantileSketch`, a mergeable
  DDSketch-style log-bucketed sketch with a documented relative-error
  bound, the one quantile estimator behind every percentile;
* :mod:`repro.obs.rollup` — FleetSnapshot-aligned time-series frames
  (queue depth, utilization, wait percentiles, decisions/sec, energy)
  with byte-stable JSONL round-trip;
* :mod:`repro.obs.phase` — :class:`PhaseTimers`, wall-clock engine
  self-profiling via injectable :mod:`repro.clock` clocks;
* :mod:`repro.obs.top` — the ``repro-gpu top`` renderer over a run
  directory's artifacts.

Everything here is deterministic by construction: no wall clock outside
the injectable phase timers, no RNG anywhere, sorted iteration on every
serialization path (statcheck-enforced).
"""

from repro.obs.phase import PHASES, PhaseTimers
from repro.obs.rollup import frames_series, read_frames_jsonl, write_frames_jsonl
from repro.obs.sketch import DEFAULT_RELATIVE_ACCURACY, QuantileSketch
from repro.obs.top import load_run, render_top, sparkline
from repro.obs.trace import (
    LifecycleTracer,
    TraceContext,
    lifecycle_chrome_trace,
    read_lifecycle_jsonl,
    summarize_lifecycle,
    trace_id_for,
)

__all__ = [
    "PHASES",
    "PhaseTimers",
    "frames_series",
    "read_frames_jsonl",
    "write_frames_jsonl",
    "DEFAULT_RELATIVE_ACCURACY",
    "QuantileSketch",
    "load_run",
    "render_top",
    "sparkline",
    "LifecycleTracer",
    "TraceContext",
    "lifecycle_chrome_trace",
    "read_lifecycle_jsonl",
    "summarize_lifecycle",
    "trace_id_for",
]
