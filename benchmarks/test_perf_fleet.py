"""Fleet-engine benchmark (the event-driven simulation PR's acceptance
gate).

Measures :func:`gate.measure_fleet_bench` — an
open-loop Poisson workload drained over a 1000-node fleet by the
discrete-event :class:`~repro.cluster.fleet.FleetEngine` (decision
cache warmed by a first drain; the timed drain measures the engine, not
cold scheduling misses).

Asserts the tentpole contract:

* **throughput** — >= 1M simulated job completions per wall-clock
  minute on a >= 1000-node fleet;
* **identity** — on a small cluster the engine's dispatch records and
  schedule fingerprints are bitwise-identical to
  ``reference_dispatch`` in ``tests/oracles/dispatch.py`` (the
  correctness oracle).

Results land in ``BENCH_fleet.json`` (override the path with
``REPRO_BENCH_FLEET_JSON``) — the file ``benchmarks/gate.py``
ratchets in CI. Run explicitly with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_fleet.py -m perf -s
"""

from __future__ import annotations

import os

import pytest

from gate import compare, measure_fleet_bench, record

pytestmark = [pytest.mark.perf, pytest.mark.fleet]

N_JOBS = 200_000
WARMUP_JOBS = 30_000
COMPLETIONS_PER_MIN_TARGET = 1e6

_BENCH_PATH = os.environ.get(
    "REPRO_BENCH_FLEET_JSON",
    os.path.join(os.path.dirname(__file__), "..", "BENCH_fleet.json"),
)


def test_fleet_throughput_and_identity():
    doc = measure_fleet_bench(n_jobs=N_JOBS, warmup_jobs=WARMUP_JOBS)
    fleet = doc["fleet"]

    record(doc, _BENCH_PATH)

    print(
        f"\n=== fleet({fleet['n_nodes']} nodes, {N_JOBS:,} arrivals): "
        f"{fleet['completions_per_min'] / 1e6:.2f}M completions/min "
        f"({fleet['windows']:,} windows, "
        f"simulated makespan {fleet['simulated_makespan']:,.0f}s, "
        f"utilization {fleet['utilization']:.3f}) ==="
    )

    # -- every arrival drained ----------------------------------------
    assert fleet["completed"] == N_JOBS

    # -- identity: the event engine must not change a single float ----
    assert fleet["identical_schedules"] is True

    assert fleet["completions_per_min"] >= COMPLETIONS_PER_MIN_TARGET

    # every key the gate reads is present and passes against itself
    assert not any(c.regressed for c in compare("fleet", doc, doc, 0.0))
