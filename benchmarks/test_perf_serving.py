"""Online-serving fast-path benchmark (the serving PR's acceptance gate).

Measures :func:`gate.measure_serving_bench` — a fixed
stream of scheduling windows (distinct contents plus permuted duplicate
submissions, the fleet steady state) served two ways:

* **reference** — the per-window ``OnlineOptimizer.optimize`` loop;
* **batched** — ``optimize_many`` with batched inference and the
  fleet-wide :class:`DecisionCache` (timed cache-warm, after a warm-up
  pass that doubles as the bitwise identity check).

Asserts the tentpole contract:

* **identity** — batched schedules are bitwise-identical to the
  sequential loop's (``schedule_fingerprint`` equality, cold and warm);
* **speedup** — >= 10x decisions/sec over the per-window loop;
* **latency** — p99 per-window ``decision_seconds`` < 1 ms.

Results land in ``BENCH_serving.json`` (override the path with
``REPRO_BENCH_SERVING_JSON``) — the file ``benchmarks/gate.py``
ratchets in CI. Run explicitly with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_serving.py -m perf -s
"""

from __future__ import annotations

import os

import pytest

from gate import compare, measure_serving_bench, record

pytestmark = [pytest.mark.perf, pytest.mark.serving]

N_WINDOWS = 256
DISTINCT_WINDOWS = 16
BATCH_SIZE = 32
TIMED_RUNS = 5
SPEEDUP_TARGET = 10.0
P99_LATENCY_TARGET_S = 1e-3

_BENCH_PATH = os.environ.get(
    "REPRO_BENCH_SERVING_JSON",
    os.path.join(os.path.dirname(__file__), "..", "BENCH_serving.json"),
)


def test_serving_speedup_identity_and_latency():
    doc = measure_serving_bench(
        episodes=30,
        n_windows=N_WINDOWS,
        distinct_windows=DISTINCT_WINDOWS,
        batch_size=BATCH_SIZE,
        timed_runs=TIMED_RUNS,
    )
    serving = doc["serving"]

    record(doc, _BENCH_PATH)

    print(
        f"\n=== serve({N_WINDOWS} windows, {DISTINCT_WINDOWS} distinct, "
        f"batch {BATCH_SIZE}): "
        f"{serving['decisions_per_sec_reference']:,.0f} -> "
        f"{serving['decisions_per_sec_batched']:,.0f} decisions/s "
        f"({serving['speedup']:.1f}x), "
        f"p99 {serving['p99_decision_latency_s'] * 1e6:.0f} us ==="
    )

    # -- identity: the fast path must not change a single float --------
    assert serving["identical_schedules"] is True
    # the duplicate submissions actually exercised the decision cache
    assert serving["decision_cache"]["hits"] > 0

    assert serving["speedup"] >= SPEEDUP_TARGET
    assert serving["p99_decision_latency_s"] < P99_LATENCY_TARGET_S

    # every key the gate reads is present and passes against itself
    assert not any(c.regressed for c in compare("serving", doc, doc, 0.0))
