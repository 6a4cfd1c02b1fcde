"""Statcheck v2: whole-program graph, project rules, SARIF.

Covers the interprocedural layer on top of the per-file linter:

* module graph determinism (byte-identical ``--json`` across reruns);
* DET005 seed-provenance dataflow across module boundaries;
* ARCH001 layering (upward imports, cycles, deferred/type-only
  exemptions);
* OBS002 pure-observer verification (self-mutation and subscript
  writes stay legal);
* SARIF 2.1.0 export, validated against a vendored schema subset;
* tokenizer-based pragmas: string literals never suppress, any line
  of a multi-line statement does.
"""

from __future__ import annotations

import json
import shutil
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.statcheck import (
    StatcheckError,
    check_paths,
    check_source,
    load_config,
    to_sarif,
)
from repro.statcheck.graph import ModuleGraph, ModuleNode, module_name_for

pytestmark = pytest.mark.statcheck

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "data" / "statcheck_fixtures"


def _mini_repo(tmp_path: Path, files: dict[str, str],
               extra_config: str = "") -> Path:
    root = tmp_path / "mini"
    (root / "src" / "repro").mkdir(parents=True)
    (root / "pyproject.toml").write_text(
        '[tool.statcheck]\npaths = ["src"]\nbaseline = ""\n'
        + extra_config,
        encoding="utf-8",
    )
    for rel, body in files.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(body), encoding="utf-8")
    return root


def _rules_at(root: Path, **kwargs) -> set[tuple[str, int, str]]:
    report = check_paths(root=root, use_baseline=False, **kwargs)
    return {(f.path, f.line, f.rule) for f in report.new}


# ----------------------------------------------------------------------
# graph determinism
# ----------------------------------------------------------------------
def test_json_document_is_byte_identical_across_runs():
    cfg = load_config(FIXTURES)
    docs = [
        json.dumps(
            check_paths(config=cfg, use_baseline=False).to_dict(),
            sort_keys=True,
        )
        for _ in range(2)
    ]
    assert docs[0] == docs[1]


def test_module_graph_orders_are_deterministic():
    def node(mod, *deps):
        from repro.statcheck.graph import ImportEdge
        return ModuleNode(
            module=mod, relpath=f"src/{mod.replace('.', '/')}.py",
            imports=[ImportEdge(d, 1, 0, False, False) for d in deps],
        )

    nodes = [
        node("repro.c", "repro.a"),
        node("repro.a", "repro.b"),
        node("repro.b", "repro.a"),  # a <-> b cycle
        node("repro.d"),
    ]
    graphs = [ModuleGraph(list(reversed(nodes))), ModuleGraph(nodes)]
    assert graphs[0].topo_order() == graphs[1].topo_order()
    assert graphs[0].sccs() == graphs[1].sccs()
    assert ("repro.a", "repro.b") in graphs[0].sccs()


def test_module_name_for_layouts():
    assert module_name_for("src/repro/cluster/fleet.py") == \
        "repro.cluster.fleet"
    assert module_name_for("src/repro/obs/__init__.py") == "repro.obs"
    assert module_name_for("tool.py") == "tool"


# ----------------------------------------------------------------------
# DET005 — seed provenance
# ----------------------------------------------------------------------
def test_det005_flags_cross_module_factory_misuse(tmp_path):
    root = _mini_repo(tmp_path, {
        "src/repro/factory.py": """\
            import random

            def make_rng(seed):
                return random.Random(seed)
            """,
        "src/repro/user.py": """\
            from repro.factory import make_rng

            def bad():
                return make_rng(None)

            def good(seed):
                return make_rng(seed)

            def also_good(random_state):
                return make_rng(random_state)
            """,
    })
    assert _rules_at(root) == {("src/repro/user.py", 4, "DET005")}


def test_det005_flags_rng_escaping_without_seed_param(tmp_path):
    root = _mini_repo(tmp_path, {
        "src/repro/leak.py": """\
            import numpy.random

            def from_label(label):
                return numpy.random.default_rng(label)

            def from_seed(seed):
                return numpy.random.default_rng(seed)

            def derived(seed):
                rng = numpy.random.default_rng(seed + 1)
                return rng
            """,
    })
    assert _rules_at(root) == {("src/repro/leak.py", 4, "DET005")}


def test_det005_factory_chains_resolve(tmp_path):
    root = _mini_repo(tmp_path, {
        "src/repro/chain.py": """\
            import random

            def base_rng(seed):
                return random.Random(seed)

            def wrapped_rng(seed):
                return base_rng(seed)

            def caller():
                return wrapped_rng(None)
            """,
    })
    assert _rules_at(root) == {("src/repro/chain.py", 10, "DET005")}


def test_det005_pragma_suppresses(tmp_path):
    root = _mini_repo(tmp_path, {
        "src/repro/x.py": """\
            import random

            def keyed(name):
                return random.Random(name)  # statcheck: ignore[DET005] keyed stream
            """,
    })
    report = check_paths(root=root, use_baseline=False)
    assert report.new == []
    assert [f.rule for f in report.pragma_suppressed] == ["DET005"]


# ----------------------------------------------------------------------
# ARCH001 — layering
# ----------------------------------------------------------------------
_ARCH_CONFIG = (
    '[tool.statcheck.arch]\nlayers = ["low", "mid", "high"]\n'
)


def test_arch001_upward_and_lateral(tmp_path):
    root = _mini_repo(tmp_path, {
        "src/repro/low/__init__.py": "",
        "src/repro/low/base.py": "from repro.high import top\n",
        "src/repro/mid/__init__.py": "",
        "src/repro/mid/ok.py": "from repro.low import base\n",
        "src/repro/high/__init__.py": "",
        "src/repro/high/top.py": "VALUE = 1\n",
    }, _ARCH_CONFIG)
    assert _rules_at(root) == {("src/repro/low/base.py", 1, "ARCH001")}


def test_arch001_exempts_deferred_and_type_only(tmp_path):
    root = _mini_repo(tmp_path, {
        "src/repro/low/__init__.py": "",
        "src/repro/low/base.py": """\
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.high import top

            def use():
                from repro.high import top as t
                return t
            """,
        "src/repro/high/__init__.py": "",
        "src/repro/high/top.py": "VALUE = 1\n",
    }, _ARCH_CONFIG)
    assert _rules_at(root) == set()


def test_arch001_reports_every_cycle_edge(tmp_path):
    root = _mini_repo(tmp_path, {
        "src/repro/a.py": "import repro.b\n",
        "src/repro/b.py": "import repro.a\n",
    })
    assert _rules_at(root) == {
        ("src/repro/a.py", 1, "ARCH001"),
        ("src/repro/b.py", 1, "ARCH001"),
    }


def test_arch001_duplicate_layer_token_rejected(tmp_path):
    root = _mini_repo(tmp_path, {}, (
        '[tool.statcheck.arch]\nlayers = ["low", "low mid"]\n'
    ))
    with pytest.raises(StatcheckError, match="two layers"):
        load_config(root)


# ----------------------------------------------------------------------
# OBS002 — pure observers
# ----------------------------------------------------------------------
_OBS_CONFIG = (
    '[tool.statcheck.obs]\nroots = ["repro.engine"]\n'
    'observers = ["repro.obs"]\n'
)


def _obs_repo(tmp_path, observer_body):
    return _mini_repo(tmp_path, {
        "src/repro/engine.py": """\
            from repro.obs.tracer import Tracer

            class Engine:
                def __init__(self):
                    self.tracer = Tracer()

                def step(self, job):
                    self.tracer.record(job)
            """,
        "src/repro/obs/__init__.py": "",
        "src/repro/obs/tracer.py": observer_body,
    }, _OBS_CONFIG)


def test_obs002_flags_param_attribute_write_one_hop_away(tmp_path):
    root = _obs_repo(tmp_path, """\
        class Tracer:
            def __init__(self):
                self.events = []

            def record(self, job):
                self.events.append(job.name)
                self._mark(job)

            def _mark(self, job):
                job.seen = True
        """)
    assert _rules_at(root) == {("src/repro/obs/tracer.py", 10, "OBS002")}


def test_obs002_self_mutation_and_subscript_writes_are_legal(tmp_path):
    root = _obs_repo(tmp_path, """\
        class Tracer:
            def __init__(self):
                self.events = []
                self.counts = {}

            def record(self, job):
                self.events.append(job.name)
                self.counts[job.name] = self.counts.get(job.name, 0) + 1
                record = {"job": job.name}
                record["stamped"] = True
                self.events.append(record)
        """)
    assert _rules_at(root) == set()


def test_obs002_unreachable_writer_is_not_flagged(tmp_path):
    root = _obs_repo(tmp_path, """\
        class Tracer:
            def __init__(self):
                self.events = []

            def record(self, job):
                self.events.append(job.name)

            def repair(self, job):
                job.seen = True
        """)
    # `repair` writes a param attr but no engine hook reaches it
    assert _rules_at(root) == set()


def test_live_tree_project_rules_are_not_vacuous():
    """The real repo's config wires up all three project rules."""
    cfg = load_config(REPO_ROOT)
    assert len(cfg.layers) >= 5
    assert cfg.obs_roots and cfg.obs_observers
    for code in ("DET005", "ARCH001", "OBS002"):
        assert code in cfg.enabled_rules("src/repro/cluster/fleet.py")

    from repro.statcheck.observers import observer_roots
    from repro.statcheck.symbols import summarize_module
    import ast

    summaries = {}
    for p in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        rel = p.relative_to(REPO_ROOT).as_posix()
        mod = module_name_for(rel)
        tree = ast.parse(p.read_text(encoding="utf-8"))
        summaries[mod] = summarize_module(
            tree, mod, rel, rel.endswith("__init__.py")
        )
    roots = observer_roots(summaries, cfg.obs_roots, cfg.obs_observers)
    assert len(roots) >= 10, roots  # lifecycle/phase/sketch hooks


# ----------------------------------------------------------------------
# SARIF export
# ----------------------------------------------------------------------
def _sarif_doc():
    report = check_paths(config=load_config(FIXTURES), use_baseline=False)
    return to_sarif(report), report


def test_sarif_validates_against_vendored_schema_subset():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        (REPO_ROOT / "tests" / "data" / "sarif-2.1.0-subset.schema.json")
        .read_text(encoding="utf-8")
    )
    doc, _ = _sarif_doc()
    jsonschema.validate(doc, schema)


def test_sarif_structure_and_fingerprints():
    doc, report = _sarif_doc()
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro.statcheck"
    rule_ids = [r["id"] for r in driver["rules"]]
    assert rule_ids == sorted(rule_ids)
    assert {"DET005", "ARCH001", "OBS002"} <= set(rule_ids)
    assert len(run["results"]) == len(report.new)
    by_fp = {f.fingerprint for f in report.new}
    for res in run["results"]:
        assert res["level"] == "error"
        assert res["partialFingerprints"]["statcheckFingerprint/v1"] in by_fp
        loc = res["locations"][0]["physicalLocation"]
        uri = loc["artifactLocation"]["uri"]
        assert not uri.startswith("/") and loc["artifactLocation"][
            "uriBaseId"] == "SRCROOT"
        assert loc["region"]["startLine"] >= 1
        assert loc["region"]["startColumn"] >= 1


def test_sarif_marks_baseline_findings_suppressed(tmp_path):
    root = tmp_path / "mini"
    shutil.copytree(FIXTURES, root)
    assert main(["statcheck", "--root", str(root),
                 "--write-baseline"]) == 0
    report = check_paths(root=root, use_baseline=True)
    doc = to_sarif(report)
    results = doc["runs"][0]["results"]
    assert results and all(
        r["level"] == "note" and r["suppressions"][0]["kind"] == "external"
        for r in results
    )


def test_sarif_cli_output_is_valid_json(capsys):
    code = main(["statcheck", "--format", "sarif", "--no-baseline",
                 "--root", str(FIXTURES)])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"


# ----------------------------------------------------------------------
# pragma robustness (tokenizer-based)
# ----------------------------------------------------------------------
def test_pragma_inside_string_literal_is_ignored():
    cfg = load_config(FIXTURES)
    source = (
        'import time\n\n\ndef f():\n'
        '    msg = "# statcheck: ignore[DET001]"\n'
        '    return time.time(), msg\n'
    )
    kept, suppressed = check_source(source, "src/repro/x.py", cfg)
    assert [f.rule for f in kept] == ["DET001"]
    assert suppressed == []


def test_pragma_on_any_line_of_multiline_statement():
    cfg = load_config(FIXTURES)
    source = textwrap.dedent("""\
        import time

        T = (
            time.time(),
            # statcheck: ignore[DET001] recorded at module load only
        )
        """)
    kept, suppressed = check_source(source, "src/repro/x.py", cfg)
    assert kept == []
    assert [f.rule for f in suppressed] == ["DET001"]


def test_pragma_in_body_does_not_leak_to_compound_header():
    cfg = load_config(FIXTURES)
    source = textwrap.dedent("""\
        import time

        def f():
            if time.time() > 0:
                x = 1  # statcheck: ignore
            return time.time()
        """)
    kept, _ = check_source(source, "src/repro/x.py", cfg)
    # both wall-clock reads still fire: the body pragma covers line 5 only
    assert [f.line for f in kept] == [4, 6]


# ----------------------------------------------------------------------
# encoding and rendering
# ----------------------------------------------------------------------
def test_non_ascii_sources_read_as_utf8(tmp_path):
    root = _mini_repo(tmp_path, {
        "src/repro/unicode_mod.py": """\
            GREETING = "𝜇-partition: grüße"  # non-ASCII on purpose

            def label():
                return GREETING
            """,
    })
    report = check_paths(root=root, use_baseline=False)
    assert report.files_checked == 1
    assert report.new == []


def test_verbose_render_interleaves_fix_lines():
    report = check_paths(config=load_config(FIXTURES), use_baseline=False)
    lines = report.render(verbose=True).splitlines()
    finding_idx = [
        i for i, ln in enumerate(lines) if not ln.startswith((" ", "statcheck:"))
    ]
    # every finding line is immediately followed by its own fix line
    for i in finding_idx:
        assert lines[i + 1].startswith("    fix: ")
    # spot-check one pairing: the DET005 finding carries the DET005 fixit
    det005_line = next(
        i for i, ln in enumerate(lines) if " DET005 " in ln
    )
    assert "seed parameter" in lines[det005_line + 1]
