"""Two-level placement benchmark (the hierarchy PR's acceptance gate).

Measures :func:`repro.insight.benchgate.measure_hierarchy_bench` — a
:class:`~repro.hierarchy.trainer.JointTrainer` run (node-level DDQN
offline, placement DQN on prioritized-replay fleet rollouts), then one
held-out Poisson stream drained at 100 nodes under the trained agent
and the ``least-loaded`` / ``round-robin`` / ``random`` baselines, all
over the same node-level selector.

Asserts the tentpole contract:

* **makespan** — the trained two-level policy beats the best
  single-level baseline (including least-loaded + node-DDQN) on fleet
  makespan at >= 100 nodes;
* **fairness** — Jain's index over per-job slowdowns is no worse than
  least-loaded's (within 0.01);
* **identity** — with placement off, the fleet dispatch path stays
  bitwise-identical to the ``reference_dispatch`` oracle.

Results land in ``BENCH_hierarchy.json`` (override the path with
``REPRO_BENCH_HIERARCHY_JSON``) — the file ``repro-gpu benchgate
--hierarchy-baseline`` ratchets in CI. Run explicitly with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_hierarchy.py -m perf -s
"""

from __future__ import annotations

import json
import os

import pytest

from repro.insight.benchgate import (
    compare_hierarchy_bench,
    gate_passes,
    measure_hierarchy_bench,
)

pytestmark = [pytest.mark.perf, pytest.mark.hierarchy]

N_NODES = 100
EVAL_JOBS = 2000

_BENCH_PATH = os.environ.get(
    "REPRO_BENCH_HIERARCHY_JSON",
    os.path.join(os.path.dirname(__file__), "..", "BENCH_hierarchy.json"),
)


def test_two_level_beats_single_level():
    doc = measure_hierarchy_bench(n_nodes=N_NODES, eval_jobs=EVAL_JOBS)
    h = doc["hierarchy"]

    with open(_BENCH_PATH, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

    agent = h["policies"]["agent"]
    best = h["policies"][h["best_baseline"]]
    print(
        f"\n=== hierarchy({N_NODES} nodes, {EVAL_JOBS:,} arrivals): "
        f"agent makespan {agent['makespan']:,.1f}s vs best baseline "
        f"{h['best_baseline']} {best['makespan']:,.1f}s "
        f"({h['makespan_improvement_vs_best']:.2f}x, "
        f"{h['makespan_improvement']:.2f}x vs least-loaded; "
        f"fairness ratio {h['fairness_ratio']:.3f}) ==="
    )

    # -- every arrival drained under every policy ---------------------
    for policy in h["policies"].values():
        assert policy["completed"] == EVAL_JOBS

    # -- the two-level tentpole claims --------------------------------
    assert h["beats_baseline"] is True
    assert h["fairness_no_worse"] is True

    # -- flag-off wiring must not change a single float ---------------
    assert h["off_flag_identical"] is True

    # energy accounting is live for every drained policy
    for policy in h["policies"].values():
        assert policy["energy_joules"] > 0.0
        assert policy["perf_per_watt"] > 0.0

    # the freshly measured document must pass its own ratchet — the
    # gate CI applies against the committed baseline
    assert gate_passes(compare_hierarchy_bench(doc, doc))
