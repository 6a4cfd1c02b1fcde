"""Offline-training fast-path benchmark (the perf_opt acceptance gate).

Measures :func:`gate.measure_training_bench` at 50 episodes x 5 timed
runs — the A/B cost of ``OfflineTrainer.train`` with the memoized fast
path on vs off (``corun_cache_disabled``) — and asserts:

* **identity** — both modes produce bitwise-identical
  ``episode_returns``/``episode_throughputs`` for the fixed seed;
* **speedup** — the steady-state fast path delivers >= 3x episodes/sec
  (after a warm-up pass per mode, best-of-N per mode);
* **hit rate** — the :class:`CoRunCache` serves > 50% of co-run
  evaluations after the first 10 episodes of a converged (greedy)
  rollout, the regime the online phase replays.

Results land in ``BENCH_training.json`` (override the path with
``REPRO_BENCH_JSON``) — the file ``benchmarks/gate.py`` ratchets in
CI. Run explicitly with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_training.py -m perf -s
"""

from __future__ import annotations

import os

import pytest

from gate import measure_training_bench, record

pytestmark = pytest.mark.perf

EPISODES = 50
TIMED_RUNS = 5
SPEEDUP_TARGET = 3.0
HIT_RATE_TARGET = 0.50

_BENCH_PATH = os.environ.get(
    "REPRO_BENCH_JSON",
    os.path.join(os.path.dirname(__file__), "..", "BENCH_training.json"),
)


def test_fastpath_speedup_identity_and_hit_rate():
    doc = measure_training_bench(EPISODES, TIMED_RUNS)
    record(doc, _BENCH_PATH)
    speedup, tail = doc["speedup"], doc["hit_rate"]["corun_cache_tail"]
    print(
        f"\n=== train({EPISODES}): {speedup['episodes_per_sec_reference']:.0f} -> "
        f"{speedup['episodes_per_sec_fastpath']:.0f} eps/s "
        f"({speedup['speedup']:.2f}x), CoRunCache tail hit rate "
        f"{tail['hit_rate']:.1%} ({tail['hits']}/{tail['hits'] + tail['misses']}) ==="
    )

    # -- identity: the fast path must not change a single float --------
    assert speedup["identical_returns"] is True
    assert speedup["speedup"] >= SPEEDUP_TARGET
    assert tail["hits"] + tail["misses"] > 0
    assert tail["hit_rate"] > HIT_RATE_TARGET
