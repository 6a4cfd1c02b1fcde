"""Per-module symbol tables and local analysis summaries.

One AST walk per module produces a :class:`ModuleSummary`: the
project-resolvable call graph fragment rooted in this module, every
RNG construction with a locally-computed *seed provenance* verdict,
attribute-write sites against function parameters, and the set of
method names the module invokes through attributes. The summary is
pure local information — it depends only on this module's source — and
the interprocedural passes (:mod:`repro.statcheck.dataflow`,
:mod:`repro.statcheck.observers`) run over summaries without touching
source again.

Seed-provenance lattice (per expression)::

    SEED     derived from a seed/rng-named parameter, attribute, or
             local traced to one (possibly mixed with constants/ids)
    LITERAL  every leaf is a non-None constant — a pinned seed
    TAINTED  definitely not seed-derived: flows from a
             nondeterministic source (wall clock, os entropy, uuid,
             secrets), from ``None`` (OS-entropy seeding), or from a
             parameter whose name carries no seed provenance
    UNKNOWN  the analysis cannot decide — never reported

Classification is conservative toward silence: a verdict is TAINTED
only when every leaf is accounted for and none carries seed
provenance.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

__all__ = [
    "SEED", "LITERAL", "TAINTED", "UNKNOWN",
    "RngCreation",
    "ParamWrite",
    "SeedArgCall",
    "FunctionSummary",
    "ModuleSummary",
    "summarize_module",
]

SEED = "seed"
LITERAL = "literal"
TAINTED = "tainted"
UNKNOWN = "unknown"

#: identifiers that carry seed provenance by name
_SEEDISH = re.compile(r"(seed|rng|entropy|random_state)", re.IGNORECASE)

#: receiver names conventionally bound to the instance, never engine state
_SELF_NAMES = frozenset({"self", "cls"})

#: qualnames whose value is nondeterministic by construction
_NONDET_SOURCES = frozenset({
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time",
    "os.urandom", "os.getrandom", "os.getpid",
    "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.randbits",
    "id",
})

#: RNG constructors whose argument is a seed (DET005's subjects)
_RNG_CTORS = frozenset({
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "numpy.random.PCG64DXSM",
    "numpy.random.MT19937",
    "numpy.random.Philox",
    "numpy.random.SFC64",
})


def is_seedish(name: str) -> bool:
    return bool(_SEEDISH.search(name))


@dataclass(frozen=True)
class RngCreation:
    """One RNG constructor call and its seed-argument provenance."""

    line: int
    col: int
    ctor: str       #: resolved constructor qualname
    verdict: str    #: SEED / LITERAL / TAINTED / UNKNOWN
    reason: str     #: human-readable provenance trail
    has_args: bool


@dataclass(frozen=True)
class ParamWrite:
    """``param.attr = ...`` inside a function — a non-local mutation."""

    line: int
    col: int
    param: str
    attr: str


@dataclass(frozen=True)
class SeedArgCall:
    """A call into project code with the provenance of its arguments."""

    line: int
    col: int
    callee: str     #: resolved project qualname
    verdict: str    #: combined provenance of the call's arguments
    reason: str


@dataclass
class FunctionSummary:
    """Everything the project rules need to know about one function."""

    qualname: str           #: e.g. ``repro.obs.trace.LifecycleTracer.arrival``
    line: int
    params: tuple[str, ...]
    writes: list[ParamWrite] = field(default_factory=list)
    calls: tuple[str, ...] = ()          #: resolved project callees, sorted
    seed_calls: list[SeedArgCall] = field(default_factory=list)
    creations: list[RngCreation] = field(default_factory=list)
    #: provenance of a returned RNG: "" (not a factory), a verdict,
    #: or ``call:<qualname>`` when the return value is a project call
    returns_rng: str = ""


@dataclass
class ModuleSummary:
    """The per-module product of :func:`summarize_module`."""

    module: str
    relpath: str
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    #: method names this module calls through attribute access
    attr_calls: tuple[str, ...] = ()


# ----------------------------------------------------------------------
# import resolution (shared shape with RuleVisitor, but project-aware)
# ----------------------------------------------------------------------
class _Imports:
    def __init__(self, module: str, is_package: bool) -> None:
        self.module = module
        self.is_package = is_package
        self.names: dict[str, str] = {}

    def track(self, node: ast.Import | ast.ImportFrom) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    self.names[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    self.names[root] = root
        else:
            if node.level:
                parts = self.module.split(".")
                if not self.is_package:
                    parts = parts[:-1]
                drop = node.level - 1
                if drop > len(parts):
                    return
                if drop:
                    parts = parts[:-drop]
                if node.module:
                    parts = parts + node.module.split(".")
                base = ".".join(parts)
            else:
                base = node.module or ""
            for alias in node.names:
                bound = alias.asname or alias.name
                self.names[bound] = (
                    f"{base}.{alias.name}" if base else alias.name
                )

    def resolve(self, node: ast.AST) -> str | None:
        if isinstance(node, ast.Name):
            return self.names.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None


# ----------------------------------------------------------------------
# provenance classification
# ----------------------------------------------------------------------
_ORDER = {TAINTED: 3, SEED: 2, LITERAL: 1, UNKNOWN: 0}


class _Classifier:
    """Classifies one expression's seed provenance from local context."""

    def __init__(self, imports: _Imports, params: frozenset[str],
                 locals_map: dict[str, tuple[str, str]],
                 project_prefix: str) -> None:
        self.imports = imports
        self.params = params
        self.locals_map = locals_map
        self.project_prefix = project_prefix

    def classify(self, expr: ast.AST) -> tuple[str, str]:
        leaves: list[tuple[str, str]] = []
        self._walk(expr, leaves)
        return _combine(leaves)

    def _walk(self, expr: ast.AST, leaves: list[tuple[str, str]]) -> None:
        if isinstance(expr, ast.Constant):
            if expr.value is None:
                leaves.append((
                    "nondet", "None seeds from OS entropy"
                ))
            else:
                leaves.append(("const", ""))
        elif isinstance(expr, ast.Name):
            name = expr.id
            if name in self.locals_map:
                verdict, reason = self.locals_map[name]
                leaves.append((verdict, reason))
            elif name in self.params:
                if is_seedish(name):
                    leaves.append(("seed", f"seed parameter {name!r}"))
                else:
                    leaves.append((
                        "param",
                        f"parameter {name!r} carries no seed provenance",
                    ))
            elif is_seedish(name):
                leaves.append(("seed", f"seed-named binding {name!r}"))
            else:
                leaves.append(("unknown", ""))
        elif isinstance(expr, ast.Attribute):
            qual = self.imports.resolve(expr)
            if qual in _NONDET_SOURCES:
                leaves.append(("nondet", f"nondeterministic source {qual}"))
            elif is_seedish(expr.attr):
                leaves.append(("seed", f"seed attribute .{expr.attr}"))
            else:
                leaves.append(("unknown", ""))
        elif isinstance(expr, ast.Call):
            qual = self.imports.resolve(expr.func)
            if qual in _NONDET_SOURCES or (
                isinstance(expr.func, ast.Name)
                and expr.func.id in _NONDET_SOURCES
            ):
                label = qual or getattr(expr.func, "id", "?")
                leaves.append((
                    "nondet", f"nondeterministic source {label}()"
                ))
                return
            # recurse into func receiver + arguments: hashing or
            # arithmetic over a seed keeps its provenance
            if isinstance(expr.func, ast.Attribute):
                self._walk(expr.func.value, leaves)
            for arg in expr.args:
                self._walk(arg, leaves)
            for kw in expr.keywords:
                if kw.value is not None:
                    self._walk(kw.value, leaves)
            if not expr.args and not expr.keywords and not isinstance(
                    expr.func, ast.Attribute):
                leaves.append(("unknown", ""))
        elif isinstance(expr, ast.JoinedStr):
            for value in expr.values:
                if isinstance(value, ast.FormattedValue):
                    self._walk(value.value, leaves)
                else:
                    leaves.append(("const", ""))
            if not expr.values:
                leaves.append(("const", ""))
        elif isinstance(expr, (ast.BinOp,)):
            self._walk(expr.left, leaves)
            self._walk(expr.right, leaves)
        elif isinstance(expr, ast.UnaryOp):
            self._walk(expr.operand, leaves)
        elif isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            for elt in expr.elts:
                self._walk(elt, leaves)
        elif isinstance(expr, ast.Subscript):
            self._walk(expr.value, leaves)
        elif isinstance(expr, ast.IfExp):
            self._walk(expr.body, leaves)
            self._walk(expr.orelse, leaves)
        elif isinstance(expr, ast.Starred):
            self._walk(expr.value, leaves)
        else:
            leaves.append(("unknown", ""))


def _combine(leaves: list[tuple[str, str]]) -> tuple[str, str]:
    """Fold leaf labels into one (verdict, reason) pair."""
    if not leaves:
        return UNKNOWN, ""
    for label, reason in leaves:
        if label == "nondet":
            return TAINTED, reason
        if label == TAINTED:
            return TAINTED, reason
    for label, reason in leaves:
        if label in ("seed", SEED):
            return SEED, reason
    if all(label in ("const", LITERAL) for label, _ in leaves):
        return LITERAL, "constant seed"
    has_unknown = any(
        label in ("unknown", UNKNOWN) for label, _ in leaves
    )
    if not has_unknown:
        for label, reason in leaves:
            if label == "param":
                return TAINTED, reason
    return UNKNOWN, ""


# ----------------------------------------------------------------------
# function body analysis
# ----------------------------------------------------------------------
def _param_names(args: ast.arguments) -> tuple[str, ...]:
    names = [a.arg for a in args.posonlyargs]
    names += [a.arg for a in args.args]
    if args.vararg:
        names.append(args.vararg.arg)
    names += [a.arg for a in args.kwonlyargs]
    if args.kwarg:
        names.append(args.kwarg.arg)
    return tuple(names)


class _FunctionAnalyzer(ast.NodeVisitor):
    """Walks one function body (nested defs folded in, shadow-aware)."""

    def __init__(self, summary: FunctionSummary, imports: _Imports,
                 module: str, module_funcs: frozenset[str],
                 class_qual: str | None, project_prefix: str) -> None:
        self.summary = summary
        self.imports = imports
        self.module = module
        self.module_funcs = module_funcs
        self.class_qual = class_qual
        self.project_prefix = project_prefix
        self.params = frozenset(
            p for p in summary.params if p not in _SELF_NAMES
        )
        self._shadowed: set[str] = set()
        self._locals: dict[str, tuple[str, str]] = {}
        self._rng_locals: dict[str, str] = {}  # name -> verdict | call:<q>
        self._calls: set[str] = set()

    # -- helpers ---------------------------------------------------------
    def _classifier(self) -> _Classifier:
        return _Classifier(
            self.imports, self.params - self._shadowed,
            self._locals, self.project_prefix,
        )

    def _resolve_call(self, func: ast.AST) -> str | None:
        """Project qualname for a call target, when determinable."""
        if isinstance(func, ast.Name):
            qual = self.imports.resolve(func)
            if qual is not None and qual.startswith(self.project_prefix):
                return qual
            if func.id in self.module_funcs:
                return f"{self.module}.{func.id}"
            return None
        if isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Name)
                and func.value.id in _SELF_NAMES
                and self.class_qual is not None
            ):
                return f"{self.class_qual}.{func.attr}"
            qual = self.imports.resolve(func)
            if qual is not None and qual.startswith(self.project_prefix):
                return qual
        return None

    # -- nested scopes ---------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_nested(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_nested(node)

    def _visit_nested(self, node: ast.FunctionDef | ast.AsyncFunctionDef,
                      ) -> None:
        inner = set(_param_names(node.args)) & self.params
        added = inner - self._shadowed
        self._shadowed |= added
        for stmt in node.body:
            self.visit(stmt)
        self._shadowed -= added

    def visit_Lambda(self, node: ast.Lambda) -> None:
        inner = set(_param_names(node.args)) & self.params
        added = inner - self._shadowed
        self._shadowed |= added
        self.visit(node.body)
        self._shadowed -= added

    # -- assignments: track locals, param writes, rng locals -------------
    def _note_param_write(self, target: ast.AST) -> None:
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id in self.params
            and target.value.id not in self._shadowed
        ):
            self.summary.writes.append(ParamWrite(
                line=target.lineno, col=target.col_offset,
                param=target.value.id, attr=target.attr,
            ))

    def _track_assign(self, target: ast.AST, value: ast.AST | None) -> None:
        self._note_param_write(target)
        if value is None or not isinstance(target, ast.Name):
            return
        name = target.id
        verdict, reason = self._classifier().classify(value)
        self._locals[name] = (verdict, reason)
        rng = self._rng_expr(value)
        if rng is not None:
            self._rng_locals[name] = rng
        else:
            self._rng_locals.pop(name, None)

    def _rng_expr(self, value: ast.AST) -> str | None:
        """Provenance tag when ``value`` constructs or returns an RNG."""
        if isinstance(value, ast.Call):
            qual = self.imports.resolve(value.func)
            if qual in _RNG_CTORS:
                verdict, _ = self._classify_call_args(value)
                if not value.args and not value.keywords:
                    return UNKNOWN  # unseeded: DET002's territory
                return verdict
            project = self._resolve_call(value.func)
            if project is not None:
                return f"call:{project}"
        if isinstance(value, ast.Name) and value.id in self._rng_locals:
            return self._rng_locals[value.id]
        return None

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._track_assign(target, node.value)
            if isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    self._note_param_write(elt)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._track_assign(node.target, node.value)
        if node.value is not None:
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._note_param_write(node.target)
        if isinstance(node.target, ast.Name):
            name = node.target.id
            if name in self._locals:
                old_v, old_r = self._locals[name]
                new_v, new_r = self._classifier().classify(node.value)
                merged = _combine([(old_v, old_r), (new_v, new_r)])
                self._locals[name] = merged
        self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._note_param_write(target)

    # -- calls -----------------------------------------------------------
    def _classify_call_args(self, node: ast.Call) -> tuple[str, str]:
        leaves: list[tuple[str, str]] = []
        classifier = self._classifier()
        for arg in node.args:
            leaves.append(classifier.classify(arg))
        for kw in node.keywords:
            if kw.value is not None:
                leaves.append(classifier.classify(kw.value))
        return _combine(leaves)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute):
            # record by bare method name for observer-root discovery
            self._attr_call(node.func.attr)
        qual = self.imports.resolve(node.func)
        if qual in _RNG_CTORS:
            has_args = bool(node.args or node.keywords)
            verdict, reason = (
                self._classify_call_args(node) if has_args
                else (UNKNOWN, "")
            )
            self.summary.creations.append(RngCreation(
                line=node.lineno, col=node.col_offset, ctor=qual,
                verdict=verdict, reason=reason, has_args=has_args,
            ))
        else:
            project = self._resolve_call(node.func)
            if project is not None:
                self._calls.add(project)
                if node.args or node.keywords:
                    verdict, reason = self._classify_call_args(node)
                    self.summary.seed_calls.append(SeedArgCall(
                        line=node.lineno, col=node.col_offset,
                        callee=project, verdict=verdict, reason=reason,
                    ))
        self.generic_visit(node)

    def _attr_call(self, name: str) -> None:
        # stored at module level by the summarizer via a shared set
        self._module_attr_calls.add(name)  # type: ignore[attr-defined]

    # -- returns ---------------------------------------------------------
    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            rng = self._rng_expr(node.value)
            if rng is not None and not self.summary.returns_rng:
                self.summary.returns_rng = rng
            self.visit(node.value)

    def finish(self) -> None:
        self.summary.calls = tuple(sorted(self._calls))


# ----------------------------------------------------------------------
def summarize_module(
    tree: ast.Module,
    module: str,
    relpath: str,
    is_package: bool,
    project_prefix: str = "repro",
) -> ModuleSummary:
    """Build the :class:`ModuleSummary` for one parsed module."""
    imports = _Imports(module, is_package)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imports.track(node)

    summary = ModuleSummary(module=module, relpath=relpath)
    attr_calls: set[str] = set()

    module_funcs = frozenset(
        n.name for n in tree.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    )

    def analyze(fn: ast.FunctionDef | ast.AsyncFunctionDef,
                qualname: str, class_qual: str | None) -> None:
        fsum = FunctionSummary(
            qualname=qualname, line=fn.lineno,
            params=_param_names(fn.args),
        )
        analyzer = _FunctionAnalyzer(
            fsum, imports, module, module_funcs, class_qual,
            project_prefix,
        )
        analyzer._module_attr_calls = attr_calls  # type: ignore[attr-defined]
        for stmt in fn.body:
            analyzer.visit(stmt)
        analyzer.finish()
        summary.functions[qualname] = fsum

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            analyze(node, f"{module}.{node.name}", None)
        elif isinstance(node, ast.ClassDef):
            class_qual = f"{module}.{node.name}"
            for item in node.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    analyze(item, f"{class_qual}.{item.name}", class_qual)

    # module-level attribute calls (outside any def) also count toward
    # observer-root discovery
    class _TopLevel(ast.NodeVisitor):
        def __init__(self) -> None:
            self.in_def = 0

        def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
            pass

        def visit_AsyncFunctionDef(self,
                                   node: ast.AsyncFunctionDef) -> None:
            pass

        def visit_Call(self, node: ast.Call) -> None:
            if isinstance(node.func, ast.Attribute):
                attr_calls.add(node.func.attr)
            self.generic_visit(node)

    _TopLevel().visit(tree)
    summary.attr_calls = tuple(sorted(attr_calls))
    return summary
