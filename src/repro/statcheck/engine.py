"""The statcheck engine: file walking, pragmas, baseline, reports.

Entry points:

* :func:`check_paths` — the pytest-importable API. Returns a
  :class:`Report`; ``report.new`` is what gates (empty == green).
  Builds the whole-program module graph and runs the interprocedural
  project rules (DET005, ARCH001, OBS002) alongside the per-file ones.
* :func:`check_source` — one in-memory module, used by the unit tests
  and by tools embedding statcheck.

Every run parses and analyses every project module from scratch; there
is no state between runs.

Per-line escape hatch::

    t0 = time.perf_counter()   # statcheck: ignore[DET001] CLI boundary

``ignore`` with no bracket suppresses every rule on that line; the
bracket form lists codes, comma-separated. Pragmas are matched against
real comment tokens (never string literals) and apply to the whole
statement they sit on — any line of a multi-line statement works.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.statcheck.baseline import (
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.statcheck.config import (
    StatcheckConfig,
    StatcheckError,
    load_config,
)
from repro.statcheck.dataflow import det005_findings
from repro.statcheck.findings import Finding
from repro.statcheck.graph import (
    ImportEdge,
    ModuleGraph,
    ModuleNode,
    extract_imports,
    module_name_for,
)
from repro.statcheck.layering import arch001_findings
from repro.statcheck.observers import obs002_findings
from repro.statcheck.rules import RULES, RuleVisitor
from repro.statcheck.symbols import ModuleSummary, summarize_module

__all__ = [
    "Report",
    "check_source",
    "check_paths",
    "iter_python_files",
    "pragma_map",
    "update_baseline",
]

_PRAGMA = re.compile(
    r"#\s*statcheck:\s*ignore(?:\[(?P<codes>[A-Z0-9_,\s]+)\])?"
)


@dataclass
class Report:
    """Everything one statcheck run determined."""

    root: str
    files_checked: int = 0
    new: list[Finding] = field(default_factory=list)
    grandfathered: list[Finding] = field(default_factory=list)
    pragma_suppressed: list[Finding] = field(default_factory=list)
    stale_baseline: list[dict[str, object]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.new

    def to_dict(self) -> dict[str, object]:
        """The ``--json`` document (schema pinned by the test suite)."""
        return {
            "version": 1,
            "tool": "repro.statcheck",
            "root": self.root,
            "files_checked": self.files_checked,
            "clean": self.clean,
            "findings": [f.to_dict() for f in self.new],
            "suppressed": {
                "baseline": len(self.grandfathered),
                "pragma": len(self.pragma_suppressed),
            },
            "stale_baseline": self.stale_baseline,
            "rules": {
                code: info.summary for code, info in sorted(RULES.items())
            },
        }

    def render(self, verbose: bool = False) -> str:
        """The human-readable report the CLI prints."""
        lines = []
        for f in sorted(
            self.new, key=lambda f: (f.path, f.line, f.col, f.rule)
        ):
            lines.append(f.render())
            if verbose:
                lines.append(f"    fix: {f.fixit}")
        summary = (
            f"statcheck: {self.files_checked} files, "
            f"{len(self.new)} new finding(s), "
            f"{len(self.grandfathered)} grandfathered, "
            f"{len(self.pragma_suppressed)} pragma-suppressed"
        )
        if self.stale_baseline:
            summary += (
                f", {len(self.stale_baseline)} stale baseline entrie(s) "
                "— rerun with --write-baseline to ratchet"
            )
        lines.append(summary)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# pragmas
# ----------------------------------------------------------------------
def _comment_pragmas(source: str) -> dict[int, frozenset[str] | None]:
    """``lineno -> codes`` for pragmas found in real comment tokens.

    Tokenizing (rather than regex over raw lines) means a pragma-shaped
    substring inside a string literal is never honored.
    """
    out: dict[int, frozenset[str] | None] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # unparseable source gets PARSE001 anyway; fall back to a raw
        # line scan so a pragma near the damage still works
        for i, line in enumerate(source.splitlines(), start=1):
            m = _PRAGMA.search(line)
            if m:
                out[i] = _codes_of(m)
        return out
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        m = _PRAGMA.search(tok.string)
        if m:
            out[tok.start[0]] = _codes_of(m)
    return out


def _codes_of(m: re.Match[str]) -> frozenset[str] | None:
    raw = m.group("codes")
    if raw is None:
        return None
    return frozenset(c.strip() for c in raw.split(",") if c.strip())


def _statement_spans(tree: ast.Module) -> list[tuple[int, int]]:
    """(first, last) line of every statement's *pragma reach*.

    Simple statements span their full source extent; compound
    statements span their header only (``if``/``def``/... line through
    the line before the first body statement), so a pragma inside the
    body never leaks onto the header and vice versa.
    """
    spans: list[tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        decorators = getattr(node, "decorator_list", None)
        if decorators:
            start = min(start, decorators[0].lineno)
        body = getattr(node, "body", None)
        if body and isinstance(body[0], ast.stmt):
            end = body[0].lineno - 1
        else:
            end = getattr(node, "end_lineno", None) or node.lineno
        spans.append((start, max(start, end)))
    return spans


def _merge_codes(
    a: frozenset[str] | None, b: frozenset[str] | None
) -> frozenset[str] | None:
    if a is None or b is None:
        return None
    return a | b


def pragma_map(
    source: str, tree: ast.Module | None
) -> dict[int, frozenset[str] | None]:
    """``lineno -> suppressed codes`` (None = all) for one module.

    Every line a pragma *reaches* is keyed: the comment's own line plus
    every line of any statement whose span contains it. Findings point
    at arbitrary node lines inside multi-line statements, so the map
    must cover the whole span.
    """
    base = _comment_pragmas(source)
    if not base or tree is None:
        return dict(base)
    out: dict[int, frozenset[str] | None] = dict(base)
    for start, end in _statement_spans(tree):
        if end <= start:
            continue
        hit: frozenset[str] | None = frozenset()
        any_hit = False
        for line in range(start, end + 1):
            if line in base:
                any_hit = True
                hit = _merge_codes(hit, base[line])
        if not any_hit:
            continue
        for line in range(start, end + 1):
            if line in out:
                out[line] = _merge_codes(out[line], hit)
            else:
                out[line] = hit
    return out


def _split_by_pragmas(
    findings: Iterable[Finding],
    pragmas: dict[int, frozenset[str] | None],
) -> tuple[list[Finding], list[Finding]]:
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    for f in findings:
        codes = pragmas.get(f.line, frozenset())
        if codes is None or (codes and f.rule in codes):
            suppressed.append(f)
        else:
            kept.append(f)
    return kept, suppressed


# ----------------------------------------------------------------------
# per-module analysis
# ----------------------------------------------------------------------
def _syntax_finding(exc: SyntaxError, relpath: str) -> Finding:
    return Finding(
        rule="PARSE001",
        path=relpath,
        line=exc.lineno or 1,
        col=(exc.offset or 1) - 1,
        message=f"syntax error: {exc.msg}",
        fixit=RULES["PARSE001"].fixit,
        text=(exc.text or "").strip(),
    )


def check_source(
    source: str,
    relpath: str,
    config: StatcheckConfig,
) -> tuple[list[Finding], list[Finding]]:
    """(kept, pragma-suppressed) per-file findings for one module."""
    enabled = config.enabled_rules(relpath)
    lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        return [_syntax_finding(exc, relpath)], []
    visitor = RuleVisitor(path=relpath, lines=lines, enabled=enabled)
    visitor.visit(tree)
    return _split_by_pragmas(visitor.findings, pragma_map(source, tree))


def iter_python_files(
    paths: Iterable[Path], config: StatcheckConfig
) -> Iterator[tuple[Path, str]]:
    """(absolute path, repo-relative posix path) pairs, sorted, deduped."""
    seen: set[str] = set()
    collected: list[tuple[str, Path]] = []
    for p in paths:
        p = Path(p)
        if not p.is_absolute():
            p = config.root / p
        if p.is_dir():
            candidates: Iterable[Path] = sorted(p.rglob("*.py"))
        elif p.is_file():
            candidates = [p]
        else:
            raise StatcheckError(f"no such file or directory: {p}")
        for c in candidates:
            try:
                rel = c.resolve().relative_to(config.root).as_posix()
            except ValueError:
                rel = c.as_posix()
            if rel in seen or config.excluded(rel):
                continue
            seen.add(rel)
            collected.append((rel, c))
    for rel, c in sorted(collected):
        yield c, rel


def _project_files(
    cfg: StatcheckConfig,
    requested: list[tuple[Path, str]],
) -> dict[str, Path]:
    """``relpath -> abspath`` for the whole-program graph.

    The configured paths (tolerating absent entries — the graph is
    best-effort outside the requested set) unioned with whatever the
    caller explicitly requested.
    """
    out: dict[str, Path] = {}
    for entry in cfg.paths:
        p = cfg.root / entry
        if not p.exists():
            continue
        for abspath, rel in iter_python_files([p], cfg):
            out[rel] = abspath
    for abspath, rel in requested:
        out[rel] = abspath
    return out


@dataclass
class _ModuleFacts:
    """Everything one module contributes to the run."""

    relpath: str
    module: str
    is_package: bool
    imports: list[ImportEdge]
    summary: ModuleSummary | None
    pragmas: dict[int, frozenset[str] | None]
    kept: list[Finding]
    suppressed: list[Finding]


def _analyze_module(
    source: str,
    relpath: str,
    module: str,
    is_package: bool,
    cfg: StatcheckConfig,
    known_modules: frozenset[str],
) -> _ModuleFacts:
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        return _ModuleFacts(
            relpath=relpath, module=module, is_package=is_package,
            imports=[], summary=None, pragmas=_comment_pragmas(source),
            kept=[_syntax_finding(exc, relpath)], suppressed=[],
        )
    enabled = cfg.enabled_rules(relpath)
    visitor = RuleVisitor(
        path=relpath, lines=source.splitlines(), enabled=enabled
    )
    visitor.visit(tree)
    pragmas = pragma_map(source, tree)
    kept, suppressed = _split_by_pragmas(visitor.findings, pragmas)
    return _ModuleFacts(
        relpath=relpath, module=module, is_package=is_package,
        imports=extract_imports(tree, module, is_package, known_modules),
        summary=summarize_module(
            tree, module, relpath, is_package, cfg.package
        ),
        pragmas=pragmas, kept=kept, suppressed=suppressed,
    )


# ----------------------------------------------------------------------
# project rules
# ----------------------------------------------------------------------
def _with_text(f: Finding, source_lines: list[str]) -> Finding:
    """The finding with its source line attached (fresh fingerprint)."""
    text = ""
    if 1 <= f.line <= len(source_lines):
        text = source_lines[f.line - 1].strip()
    return Finding(
        rule=f.rule, path=f.path, line=f.line, col=f.col,
        message=f.message, fixit=f.fixit, text=text,
    )


def _project_findings(
    cfg: StatcheckConfig,
    graph: ModuleGraph,
    summaries: dict[str, ModuleSummary],
) -> list[Finding]:
    findings: list[Finding] = []
    if "DET005" not in cfg.disable:
        findings.extend(det005_findings(summaries, RULES["DET005"].fixit))
    if "ARCH001" not in cfg.disable:
        findings.extend(arch001_findings(
            graph, cfg.layers, RULES["ARCH001"].fixit, cfg.package,
        ))
    if (
        "OBS002" not in cfg.disable
        and cfg.obs_roots
        and cfg.obs_observers
    ):
        findings.extend(obs002_findings(
            summaries, cfg.obs_roots, cfg.obs_observers,
            RULES["OBS002"].fixit,
        ))
    return findings


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def check_paths(
    paths: Sequence[str | Path] | None = None,
    root: str | Path | None = None,
    config: StatcheckConfig | None = None,
    use_baseline: bool = True,
) -> Report:
    """Run statcheck over ``paths`` (config defaults when None).

    The whole-program graph is always built over the configured
    project paths so the interprocedural rules see every module;
    findings are then filtered to the requested files, which keeps
    subset runs (``repro-gpu statcheck src/repro/clean.py``) scoped
    the way the per-file rules always were.
    """
    cfg = config if config is not None else load_config(root)
    targets = [Path(p) for p in paths] if paths else [
        Path(p) for p in cfg.paths
    ]
    requested = list(iter_python_files(targets, cfg))
    requested_rels = {rel for _, rel in requested}
    all_files = _project_files(cfg, requested)

    sources: dict[str, str] = {}
    for rel in sorted(all_files):
        abspath = all_files[rel]
        try:
            sources[rel] = abspath.read_bytes().decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise StatcheckError(f"cannot read {abspath}: {exc}")

    module_for: dict[str, str] = {}
    claimed: set[str] = set()
    for rel in sorted(all_files):
        name = module_name_for(rel)
        if name in claimed:  # duplicate layouts: path-derived fallback
            name = rel[:-3].replace("/", ".")
        claimed.add(name)
        module_for[rel] = name
    known_modules = frozenset(module_for.values())

    report = Report(root=str(cfg.root))
    report.files_checked = len(requested)
    facts = {
        rel: _analyze_module(
            sources[rel], rel, module_for[rel], rel.endswith("__init__.py"),
            cfg, known_modules,
        )
        for rel in sorted(all_files)
    }

    graph = ModuleGraph([
        ModuleNode(
            module=m.module, relpath=m.relpath,
            is_package=m.is_package, imports=m.imports,
        )
        for m in facts.values()
    ])
    summaries = {
        m.module: m.summary
        for m in facts.values() if m.summary is not None
    }

    all_kept: list[Finding] = []
    for rel in sorted(requested_rels):
        m = facts[rel]
        all_kept.extend(m.kept)
        report.pragma_suppressed.extend(m.suppressed)

    for f in _project_findings(cfg, graph, summaries):
        if f.path not in requested_rels:
            continue
        if f.rule not in cfg.enabled_rules(f.path):
            continue
        f = _with_text(f, sources[f.path].splitlines())
        kept, suppressed = _split_by_pragmas([f], facts[f.path].pragmas)
        all_kept.extend(kept)
        report.pragma_suppressed.extend(suppressed)

    all_kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
    report.pragma_suppressed.sort(
        key=lambda f: (f.path, f.line, f.col, f.rule, f.message)
    )

    entries: list[dict[str, object]] = []
    if use_baseline and cfg.baseline_path is not None:
        entries = load_baseline(cfg.baseline_path)
    report.new, report.grandfathered, report.stale_baseline = (
        apply_baseline(all_kept, entries)
    )
    return report


def update_baseline(report: Report, config: StatcheckConfig) -> Path:
    """Write the current findings as the new baseline (the ratchet step)."""
    path = config.baseline_path
    if path is None:
        raise StatcheckError(
            "no baseline configured ([tool.statcheck] baseline)"
        )
    write_baseline(path, report.new + report.grandfathered)
    return path
