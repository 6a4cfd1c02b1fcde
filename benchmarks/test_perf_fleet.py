"""Fleet-engine benchmark (the event-driven simulation PR's acceptance
gate).

Measures :func:`repro.insight.benchgate.measure_fleet_bench` — an
open-loop Poisson workload drained over a 1000-node fleet by the
discrete-event :class:`~repro.cluster.fleet.FleetEngine` (decision
cache warmed by a first drain; the timed drain measures the engine, not
cold scheduling misses).

Asserts the tentpole contract:

* **throughput** — >= 1M simulated job completions per wall-clock
  minute on a >= 1000-node fleet;
* **identity** — on a small cluster the engine's dispatch records and
  schedule fingerprints are bitwise-identical to
  ``repro.cluster.reference.reference_dispatch`` (the correctness
  oracle).

Results land in ``BENCH_fleet.json`` (override the path with
``REPRO_BENCH_FLEET_JSON``) — the file ``repro-gpu benchgate
--fleet-baseline`` ratchets in CI. Run explicitly with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_fleet.py -m perf -s
"""

from __future__ import annotations

import json
import os

import pytest

from repro.insight.benchgate import (
    compare_fleet_bench,
    gate_passes,
    measure_fleet_bench,
)

pytestmark = [pytest.mark.perf, pytest.mark.fleet]

N_NODES = 1000
N_JOBS = 200_000
WARMUP_JOBS = 30_000
COMPLETIONS_PER_MIN_TARGET = 1e6

_BENCH_PATH = os.environ.get(
    "REPRO_BENCH_FLEET_JSON",
    os.path.join(os.path.dirname(__file__), "..", "BENCH_fleet.json"),
)


def test_fleet_throughput_and_identity():
    doc = measure_fleet_bench(
        n_nodes=N_NODES,
        n_jobs=N_JOBS,
        warmup_jobs=WARMUP_JOBS,
    )
    fleet = doc["fleet"]

    with open(_BENCH_PATH, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(
        f"\n=== fleet({N_NODES} nodes, {N_JOBS:,} arrivals): "
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

    # the freshly measured document must pass its own ratchet — the
    # gate CI applies against the committed baseline
    assert gate_passes(compare_fleet_bench(doc, doc))
