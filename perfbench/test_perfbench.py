"""The benchmark's own tests, on tiny instances of each workload.

Run from the repository root::

    python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import workloads  # noqa: E402
from tracer import BOUNDARIES, Tracer  # noqa: E402

#: attribute overrides that shrink each workload to a second or less
TINY = {
    "fleet-warm": {"nodes": 12, "unit_jobs": 150, "warmup_jobs": 120},
    "decide-cold": {"nodes": 6, "unit_jobs": 48},
    "place-agent": {"nodes": 6, "unit_jobs": 24},
    "train": {"episodes": 6, "dqn": {"hidden": (16, 8), "warmup_transitions": 8}},
}


def tiny(name, seed, timing=True):
    workload = workloads.make_workload(name, seed, timing=timing)
    for attr, value in TINY[name].items():
        setattr(workload, attr, value)
    workload.digest_units = 2
    return workload


def digest(workload, tracer=None):
    workload.setup(tracer)
    units = [workload.unit(i, tracer) for i in range(workload.digest_units)]
    for unit in units:
        assert unit.errors == []
    return [u.digest for u in units]


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_same_digest(name):
    assert digest(tiny(name, 3)) == digest(tiny(name, 3))


@pytest.mark.parametrize("name", sorted(TINY))
def test_other_seed_other_digest(name):
    assert digest(tiny(name, 3)) != digest(tiny(name, 4))


def test_unit_inputs_follow_the_seed():
    seeds = {workloads.unit_seed(s, i) for s in (1, 2) for i in range(-1, 50)}
    assert len(seeds) == 2 * 51


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_digest_equals_untraced(name):
    untraced = digest(tiny(name, 5))
    tracer = Tracer()
    tracer.install()
    try:
        traced = digest(tiny(name, 5, timing=False), tracer)
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert tracer.absent == []
    assert tracer.snapshot()["fleet" if name != "train" else "trainer"][0] > 0


def _bound_attributes():
    """Every (owner, attribute) a tracer may patch, with its current
    value and whether the owner defines it itself."""
    import importlib

    seen = {}
    for _, module_name, path, _ in BOUNDARIES:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            seen[(owner, attr)] = (vars(owner).get(attr), attr in vars(owner))
        else:
            original = getattr(module, attr)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name.startswith("repro") and vars(mod).get(attr) is original:
                    seen[(mod, attr)] = (original, True)
    return seen


def test_uninstall_restores_every_boundary():
    before = _bound_attributes()
    tracer = Tracer()
    tracer.install()
    patched = {(o, a) for (o, a) in before if hasattr(getattr(o, a), "__wrapped__")}
    assert {(owner.__name__, attr) for owner, attr in patched} >= {
        ("FleetEngine", "run"), ("DecisionCache", "get"), ("repro.core.env", "assign_optimal"),
    }
    tracer.uninstall()
    for (owner, attr), (value, own) in before.items():
        assert (attr in vars(owner)) == own, (owner, attr)
        if own:
            assert vars(owner)[attr] is value, (owner, attr)


def test_missing_boundary_is_reported_absent():
    tracer = Tracer()
    tracer.install((
        ("gone", "repro.cluster.fleet", "FleetEngine.no_such_method", None),
        ("gone", "repro.no_such_module", "f", None),
    ))
    tracer.uninstall()
    assert tracer.absent == [
        "repro.cluster.fleet.FleetEngine.no_such_method",
        "repro.no_such_module.f",
    ]


def test_self_time_excludes_children():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer"):  # 0 .. 7
        with tracer.span("inner"):  # 1 .. 4
            with tracer.span("inner"):  # 2 .. 3
                pass
        with tracer.span("leaf"):  # 5 .. 6
            pass
    table = tracer.snapshot()
    assert table["outer"] == (1, 7.0, 3.0)
    # nested spans of one name count their outermost interval once
    assert table["inner"] == (2, 3.0, 3.0)
    assert table["leaf"] == (1, 1.0, 1.0)
    assert sum(self_s for _, _, self_s in table.values()) == 7.0
    assert list(tracer.span_parent) == [1, 0, 0, -1]


def test_percentile_interpolates():
    assert metrics.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert metrics.percentile([0.0, 10.0], 99) == pytest.approx(9.9)


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "train", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
