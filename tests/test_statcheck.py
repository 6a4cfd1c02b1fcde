"""repro.statcheck: golden findings, pragmas, baseline ratchet, CLI.

The fixture tree under ``tests/data/statcheck_fixtures/`` is a
miniature repo (own pyproject.toml) whose ``src/repro`` layout mirrors
the real one, so every rule's default path scoping — the clock/CLI
exemptions, the insight-only DET003 scope, the core-only OBS001 scope
— is exercised exactly as in production. The meta-test at the bottom
then asserts the *live* tree is clean modulo the committed baseline,
which is the same check CI's ``static`` job gates on.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.statcheck import (
    Finding,
    StatcheckError,
    check_paths,
    check_source,
    load_config,
)
from repro.statcheck.config import _parse_minitoml

pytestmark = pytest.mark.statcheck

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "data" / "statcheck_fixtures"

#: every finding the fixture tree must produce, and nothing else
GOLDEN = {
    ("src/repro/bad_hygiene.py", 4, "HYG001"),
    ("src/repro/bad_hygiene.py", 6, "HYG002"),
    ("src/repro/bad_hygiene.py", 10, "HYG001"),
    ("src/repro/bad_provenance.py", 16, "DET005"),
    ("src/repro/bad_provenance.py", 20, "DET005"),
    ("src/repro/bad_rng.py", 9, "DET002"),
    ("src/repro/bad_rng.py", 13, "DET002"),
    ("src/repro/bad_rng.py", 17, "DET002"),
    ("src/repro/bad_rng.py", 18, "DET002"),
    ("src/repro/bad_rng.py", 22, "DET002"),
    ("src/repro/bad_wallclock.py", 7, "DET001"),
    ("src/repro/bad_wallclock.py", 10, "DET001"),
    ("src/repro/bad_wallclock.py", 15, "DET001"),
    ("src/repro/cluster/bad_epsilon.py", 5, "DET004"),
    ("src/repro/cluster/bad_epsilon.py", 9, "DET004"),
    ("src/repro/core/bad_layering.py", 5, "ARCH001"),
    ("src/repro/core/bad_registry.py", 2, "OBS001"),
    ("src/repro/core/bad_registry.py", 3, "OBS001"),
    ("src/repro/cycle_a.py", 3, "ARCH001"),
    ("src/repro/cycle_b.py", 3, "ARCH001"),
    ("src/repro/insight/bad_order.py", 6, "DET003"),
    ("src/repro/insight/bad_order.py", 8, "DET003"),
    ("src/repro/insight/bad_order.py", 9, "DET003"),
    ("src/repro/insight/bad_order.py", 10, "DET003"),
    ("src/repro/obs/tracer.py", 16, "OBS002"),
    ("src/repro/pragmas.py", 8, "DET001"),
}


def fixture_report(**kwargs):
    return check_paths(config=load_config(FIXTURES), **kwargs)


# ----------------------------------------------------------------------
# golden findings and scoping
# ----------------------------------------------------------------------
def test_fixture_tree_golden_findings():
    report = fixture_report(use_baseline=False)
    got = {(f.path, f.line, f.rule) for f in report.new}
    assert got == GOLDEN


def test_scope_exemptions_and_excludes():
    report = fixture_report(use_baseline=False)
    flagged_files = {f.path for f in report.new + report.pragma_suppressed}
    # the clock module and CLI wall-clock/prints are exempt by scope
    assert "src/repro/clock.py" not in flagged_files
    assert "src/repro/cli.py" not in flagged_files
    # clean library code is clean
    assert "src/repro/clean.py" not in flagged_files
    # [tool.statcheck] exclude removes the file from the walk entirely
    assert not any("_excluded" in p for p in flagged_files)


def test_det003_only_fires_in_scoped_paths():
    source = "def f(d):\n    return list(d.keys())\n"
    cfg = load_config(FIXTURES)
    kept, _ = check_source(source, "src/repro/insight/x.py", cfg)
    assert [f.rule for f in kept] == ["DET003"]
    kept, _ = check_source(source, "src/repro/core/x.py", cfg)
    assert kept == []


def test_det004_only_fires_in_cluster_paths():
    source = "def f(avail, now):\n    return avail <= now + 1e-9\n"
    cfg = load_config(FIXTURES)
    kept, _ = check_source(source, "src/repro/cluster/x.py", cfg)
    assert [f.rule for f in kept] == ["DET004"]
    # faults.py and friends legitimately do small-float arithmetic
    kept, _ = check_source(source, "src/repro/faults.py", cfg)
    assert kept == []


def test_det004_ignores_equality_and_large_constants():
    cfg = load_config(FIXTURES)
    for source in (
        "def f(a, b):\n    return a == b + 1e-9\n",     # not relational
        "def f(a, b):\n    return a <= b + 0.5\n",      # not an epsilon
        "def f(a, b, tol):\n    return a <= b + tol\n", # no literal
    ):
        kept, _ = check_source(source, "src/repro/cluster/x.py", cfg)
        assert kept == []


def test_obs001_does_not_fire_in_telemetry_itself():
    source = "from repro.telemetry.registry import MetricsRegistry\n"
    cfg = load_config(FIXTURES)
    kept, _ = check_source(source, "src/repro/telemetry/facade.py", cfg)
    assert kept == []
    kept, _ = check_source(source, "src/repro/gpu/device.py", cfg)
    assert [f.rule for f in kept] == ["OBS001"]


# ----------------------------------------------------------------------
# pragmas
# ----------------------------------------------------------------------
def test_pragma_suppression_forms():
    report = fixture_report(use_baseline=False)
    sup = {(f.path, f.line, f.rule) for f in report.pragma_suppressed}
    assert ("src/repro/pragmas.py", 6, "DET001") in sup   # [DET001]
    assert ("src/repro/pragmas.py", 7, "HYG002") in sup   # blanket
    assert ("src/repro/pragmas.py", 11, "HYG001") in sup  # [A, B] list
    # a pragma naming the wrong rule does NOT suppress (line 8 is golden)
    assert ("src/repro/pragmas.py", 8, "DET001") not in sup


# ----------------------------------------------------------------------
# baseline ratchet
# ----------------------------------------------------------------------
@pytest.fixture
def fixture_copy(tmp_path):
    root = tmp_path / "mini"
    shutil.copytree(FIXTURES, root)
    return root


def test_baseline_grandfathers_then_ratchets(fixture_copy, capsys):
    root = str(fixture_copy)
    # 1) the dirty tree fails ...
    assert main(["statcheck", "--root", root]) == 1
    # 2) ... until its findings are accepted into the baseline ...
    assert main(["statcheck", "--root", root, "--write-baseline"]) == 0
    assert main(["statcheck", "--root", root]) == 0
    capsys.readouterr()
    # 3) ... but NEW debt still fails the gate with a precise location
    bad = fixture_copy / "src" / "repro" / "fresh_debt.py"
    bad.write_text("import time\n\n\ndef f():\n    return time.time()\n")
    assert main(["statcheck", "--root", root]) == 1
    out = capsys.readouterr().out
    assert "src/repro/fresh_debt.py:5:12: DET001" in out
    bad.unlink()
    # 4) fixing grandfathered code leaves stale entries; rewriting the
    #    baseline shrinks it — the ratchet only goes one way
    doc = json.loads((fixture_copy / "statcheck-baseline.json").read_text())
    before = len(doc["findings"])
    (fixture_copy / "src" / "repro" / "bad_hygiene.py").unlink()
    assert main(["statcheck", "--root", root]) == 0
    assert "stale baseline" in capsys.readouterr().out
    assert main(["statcheck", "--root", root, "--write-baseline"]) == 0
    doc = json.loads((fixture_copy / "statcheck-baseline.json").read_text())
    assert len(doc["findings"]) == before - 3


def test_baseline_matching_is_multiset():
    line = "    t = time.time()"
    f1 = Finding("DET001", "a.py", 5, 4, "m", "fix", text=line)
    f2 = Finding("DET001", "a.py", 9, 4, "m", "fix", text=line)
    assert f1.fingerprint == f2.fingerprint  # line churn doesn't invalidate
    from repro.statcheck import apply_baseline

    entries = [{"fingerprint": f1.fingerprint}]
    new, old, stale = apply_baseline([f1, f2], entries)
    assert len(old) == 1 and len(new) == 1 and not stale


# ----------------------------------------------------------------------
# CLI and --json schema
# ----------------------------------------------------------------------
def test_cli_json_schema(capsys):
    code = main(["statcheck", "--json", "--no-baseline",
                 "--root", str(FIXTURES)])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == 1
    assert doc["tool"] == "repro.statcheck"
    assert doc["clean"] is False
    assert doc["files_checked"] == 18
    assert set(doc["suppressed"]) == {"baseline", "pragma"}
    assert doc["suppressed"]["pragma"] == 4
    assert set(doc["rules"]) >= {"DET001", "DET002", "DET003", "DET004",
                                 "DET005", "ARCH001", "OBS001", "OBS002",
                                 "HYG001", "HYG002"}
    required = {"rule", "path", "line", "col", "message", "fixit",
                "text", "fingerprint"}
    assert len(doc["findings"]) == len(GOLDEN)
    for entry in doc["findings"]:
        assert required <= set(entry)


def test_cli_clean_subset_exits_zero(capsys):
    code = main(["statcheck", "--no-baseline", "--root", str(FIXTURES),
                 "src/repro/clean.py"])
    assert code == 0
    assert "0 new finding(s)" in capsys.readouterr().out


def test_cli_rejects_missing_path(capsys):
    code = main(["statcheck", "--root", str(FIXTURES), "no/such/dir"])
    assert code == 2
    assert "statcheck: error" in capsys.readouterr().err


def test_parse_error_is_a_finding():
    kept, _ = check_source("def f(:\n", "src/repro/x.py",
                           load_config(FIXTURES))
    assert [f.rule for f in kept] == ["PARSE001"]
    assert kept[0].line == 1


# ----------------------------------------------------------------------
# config parsing (incl. the 3.10 fallback TOML reader)
# ----------------------------------------------------------------------
def test_minitoml_matches_tomllib_on_real_configs():
    tomllib = pytest.importorskip("tomllib")
    for toml in (REPO_ROOT / "pyproject.toml", FIXTURES / "pyproject.toml"):
        text = toml.read_text()
        ours = _parse_minitoml(text).get("tool", {}).get("statcheck", {})
        theirs = tomllib.loads(text).get("tool", {}).get("statcheck", {})
        assert ours == theirs


def test_config_rejects_unknown_rule(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        "[tool.statcheck.rules.NOPE01]\nallow = []\n"
    )
    with pytest.raises(StatcheckError, match="unknown rule"):
        load_config(tmp_path)


@pytest.mark.parametrize("table, key", [
    ("[tool.statcheck]", "baselin"),
    ("[tool.statcheck.arch]", "layer"),
    ("[tool.statcheck.obs]", "root"),
    ("[tool.statcheck.rules.DET001]", "alow"),
])
def test_config_rejects_unknown_key(tmp_path, table, key, capsys):
    (tmp_path / "pyproject.toml").write_text(f'{table}\n{key} = []\n')
    message = re.escape(f"{table} unknown key '{key}'")
    with pytest.raises(StatcheckError, match=message):
        load_config(tmp_path)
    assert main(["statcheck", "--root", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"'{key}'" in err


def test_rule_scope_overrides_replace_defaults(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        '[tool.statcheck]\npaths = ["src"]\n'
        '[tool.statcheck.rules.HYG002]\nallow = ["src/anywhere.py"]\n'
    )
    cfg = load_config(tmp_path)
    # the default cli.py exemption was replaced, not extended
    assert "HYG002" in cfg.enabled_rules("src/repro/cli.py")
    assert "HYG002" not in cfg.enabled_rules("src/anywhere.py")


# ----------------------------------------------------------------------
# meta: the live tree is clean modulo the committed baseline
# ----------------------------------------------------------------------
def test_live_tree_clean_modulo_baseline():
    report = check_paths(root=REPO_ROOT)
    assert report.clean, "\n" + report.render()
    # the shipped baseline must not rot: no stale entries either
    assert report.stale_baseline == []


def test_live_tree_needs_no_pragmas():
    assert check_paths(root=REPO_ROOT).pragma_suppressed == []


def test_live_tree_checks_the_whole_library():
    report = check_paths(root=REPO_ROOT)
    assert report.files_checked >= 75


# ----------------------------------------------------------------------
# determinism pins: the lint-driven refactors changed no seeded output
# ----------------------------------------------------------------------
def test_seeded_training_document_pinned():
    """A seeded training run is bit-stable (same parameters as the
    session fixture, but a fresh run: the shared fixture's agent is
    mutated by other tests). Re-pin only for *intentional* trajectory
    changes — last moved when the serving fast path made the env
    canonicalize window order at reset (the basis of its order-invariant
    decision cache), which reorders observation rows."""
    from repro.core.trainer import OfflineTrainer

    trainer = OfflineTrainer(
        window_size=6,
        c_max=3,
        n_training_queues=4,
        seed=7,
        dqn_overrides={
            "hidden": (64, 32),
            "warmup_transitions": 32,
            "batch_size": 16,
            "epsilon_decay_rate": 0.98,
        },
    )
    result = trainer.train(episodes=30)
    doc = {
        "episode_returns": result.episode_returns,
        "episode_throughputs": result.episode_throughputs,
        "final_epsilon": result.agent.epsilon,
    }
    blob = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "2a3cbb7fd94463b11d70e4805a868d5f35d5c26a265a52badf6b6110bc3a4645"
    )


def test_optimizer_default_clock_matches_injected(tiny_training):
    """OnlineOptimizer's schedule is clock-independent: the injectable
    clock feeds latency accounting only, never the decision."""
    import copy

    from repro.clock import CountingClock
    from repro.core.optimizer import OnlineOptimizer
    from repro.workloads.generator import paper_queues

    trainer, result = tiny_training
    window = paper_queues()["Q1"].window(6)

    def schedule_doc(clock):
        # optimize() profiles-and-stores unprofiled jobs: give each run
        # its own repository copy so the runs see identical state
        opt = OnlineOptimizer(
            result.agent, copy.deepcopy(result.repository), trainer.catalog,
            window_size=6, clock=clock,
        )
        decision = opt.optimize(list(window))
        return [
            (group.concurrency, tuple(j.benchmark_name for j in group.jobs),
             group.corun_time)
            for group in decision.schedule.groups
        ]

    assert schedule_doc(None) == schedule_doc(CountingClock(step=0.125))
