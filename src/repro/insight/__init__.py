"""repro.insight — decision-level observability on top of telemetry.

Three pieces (DESIGN.md §10):

* :mod:`repro.insight.records` — the decision flight recorder:
  structured :class:`DecisionRecord`/:class:`WindowRecord` capture for
  :class:`~repro.core.optimizer.OnlineOptimizer` and
  :class:`~repro.core.trainer.OfflineTrainer`, with lossless JSONL
  round-trip;
* :mod:`repro.insight.regret` — post-hoc regret attribution: replay a
  decision log against the :class:`~repro.core.oracle.OracleScheduler`
  and the time-sharing baseline, attribute per-window regret to
  decisions and CI/MI/US job classes, rank the worst decisions;
* :mod:`repro.insight.alerts` — streaming anomaly/SLO detectors over a
  run's telemetry (straggler/retry/fallback/requeue rates, utilization
  floor, queue-wait p95 off either the batch histogram or the fleet
  sketch, training Q-drift and TD-loss blowup) raising typed
  :class:`Alert`\\ s back into the trace, plus the multi-window
  burn-rate SLO monitor (:func:`scan_burn_rate`) over fleet rollup
  frames.

The benchmark ratchets that diff fresh measurements against the
committed ``BENCH_*.json`` files live outside the library, in
``benchmarks/gate.py``.

Everything here is observer-only: recording consumes no randomness and
mutates no scheduler state, so instrumented runs stay bitwise-identical
to bare ones.
"""

from repro.insight.alerts import (
    Alert,
    AlertConfig,
    AlertEngine,
    BurnRateConfig,
    scan_burn_rate,
    write_alerts_jsonl,
)
from repro.insight.records import (
    AlternativeAction,
    DecisionRecord,
    DecisionRecorder,
    WindowCapture,
    WindowRecord,
    read_decision_log,
    write_decision_log,
)
from repro.insight.regret import (
    DecisionRegret,
    RegretAnalyzer,
    WindowRegret,
    worst_decisions,
    write_regret_jsonl,
)

__all__ = [
    "Alert",
    "AlertConfig",
    "AlertEngine",
    "BurnRateConfig",
    "scan_burn_rate",
    "write_alerts_jsonl",
    "AlternativeAction",
    "DecisionRecord",
    "DecisionRecorder",
    "WindowCapture",
    "WindowRecord",
    "read_decision_log",
    "write_decision_log",
    "DecisionRegret",
    "RegretAnalyzer",
    "WindowRegret",
    "worst_decisions",
    "write_regret_jsonl",
]
