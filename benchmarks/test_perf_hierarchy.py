"""Two-level placement benchmark (the hierarchy PR's acceptance gate).

Measures :func:`gate.measure_hierarchy_bench` — a
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
``REPRO_BENCH_HIERARCHY_JSON``) — the file ``benchmarks/gate.py``
ratchets in CI. Run explicitly with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_hierarchy.py -m perf -s
"""

from __future__ import annotations

import os

import pytest

from gate import compare, measure_hierarchy_bench, record

pytestmark = [pytest.mark.perf, pytest.mark.hierarchy]

_BENCH_PATH = os.environ.get(
    "REPRO_BENCH_HIERARCHY_JSON",
    os.path.join(os.path.dirname(__file__), "..", "BENCH_hierarchy.json"),
)


def test_two_level_beats_single_level():
    doc = measure_hierarchy_bench()
    h = doc["hierarchy"]

    record(doc, _BENCH_PATH)

    agent = h["policies"]["agent"]
    best = h["policies"][h["best_baseline"]]
    print(
        f"\n=== hierarchy({h['n_nodes']} nodes, {h['eval_jobs']:,} arrivals): "
        f"agent makespan {agent['makespan']:,.1f}s vs best baseline "
        f"{h['best_baseline']} {best['makespan']:,.1f}s "
        f"({h['makespan_improvement_vs_best']:.2f}x, "
        f"{h['makespan_improvement']:.2f}x vs least-loaded; "
        f"fairness ratio {h['fairness_ratio']:.3f}) ==="
    )

    # -- every arrival drained under every policy ---------------------
    for policy in h["policies"].values():
        assert policy["completed"] == h["eval_jobs"]

    # -- the two-level tentpole claims --------------------------------
    assert h["beats_baseline"] is True
    assert h["fairness_no_worse"] is True

    # -- flag-off wiring must not change a single float ---------------
    assert h["off_flag_identical"] is True

    # energy accounting is live for every drained policy
    for policy in h["policies"].values():
        assert policy["energy_joules"] > 0.0
        assert policy["perf_per_watt"] > 0.0

    # every key the gate reads is present and passes against itself
    assert not any(c.regressed for c in compare("hierarchy", doc, doc, 0.0))
