"""The whole-program module graph statcheck's project rules run over.

One :class:`ModuleGraph` is built per run from every file the walk
collected. Each module contributes its *internal* imports — imports
resolving to another module of the same project — classified by how
they bind:

* **module-level** imports execute at import time and define the
  architecture: these are the edges ARCH001 layers and the cycle check
  (SCC detection) operate on;
* **deferred** imports (inside a function body) and **type-only**
  imports (under ``if TYPE_CHECKING:`` / ``if False:`` guards) are the
  sanctioned cycle-breaking idioms; they are recorded for the symbol
  layer but carry no layering obligation.

Everything the graph exposes — dependency lists, SCCs, topological
order — is deterministically ordered, so every run is
byte-reproducible.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = [
    "ImportEdge",
    "ModuleNode",
    "ModuleGraph",
    "module_name_for",
    "extract_imports",
]

#: path prefixes stripped before deriving a dotted module name
_LAYOUT_PREFIXES = ("src/",)


def module_name_for(relpath: str) -> str:
    """Dotted module name for a repo-relative posix path.

    ``src/repro/cluster/fleet.py`` → ``repro.cluster.fleet``;
    ``src/repro/obs/__init__.py`` → ``repro.obs``.
    """
    path = relpath
    for prefix in _LAYOUT_PREFIXES:
        if path.startswith(prefix):
            path = path[len(prefix):]
            break
    if path.endswith(".py"):
        path = path[:-3]
    parts = [p for p in path.split("/") if p]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass(frozen=True)
class ImportEdge:
    """One internal import: ``source`` module pulls in ``target``."""

    target: str        #: dotted module name inside the project
    line: int
    col: int
    deferred: bool     #: inside a function/lambda body
    type_only: bool    #: under ``if TYPE_CHECKING:`` / ``if False:``

    @property
    def module_level(self) -> bool:
        return not self.deferred and not self.type_only


@dataclass
class ModuleNode:
    """One project module: identity and internal imports."""

    module: str
    relpath: str
    is_package: bool = False
    imports: list[ImportEdge] = field(default_factory=list)


def _is_type_guard(test: ast.expr) -> bool:
    """``if TYPE_CHECKING:`` (qualified or not) or ``if False:``."""
    if isinstance(test, ast.Constant) and test.value is False:
        return True
    if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
        return True
    return (
        isinstance(test, ast.Attribute)
        and test.attr == "TYPE_CHECKING"
    )


class _ImportCollector(ast.NodeVisitor):
    """Collects raw import statements with their binding context."""

    def __init__(self) -> None:
        self.raw: list[tuple[ast.Import | ast.ImportFrom, bool, bool]] = []
        self._func_depth = 0
        self._guard_depth = 0

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._func_depth += 1
        self.generic_visit(node)
        self._func_depth -= 1

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._func_depth += 1
        self.generic_visit(node)
        self._func_depth -= 1

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._func_depth += 1
        self.generic_visit(node)
        self._func_depth -= 1

    def visit_If(self, node: ast.If) -> None:
        guarded = _is_type_guard(node.test)
        if guarded:
            self._guard_depth += 1
        for child in node.body:
            self.visit(child)
        if guarded:
            self._guard_depth -= 1
        for child in node.orelse:
            self.visit(child)

    def _record(self, node: ast.Import | ast.ImportFrom) -> None:
        self.raw.append(
            (node, self._func_depth > 0, self._guard_depth > 0)
        )

    def visit_Import(self, node: ast.Import) -> None:
        self._record(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self._record(node)


def _resolve_relative(module: str, is_package: bool, level: int,
                      target: str | None) -> str | None:
    """Absolute dotted name of a ``from . import x`` target base."""
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    drop = level - 1
    if drop > len(parts):
        return None
    if drop:
        parts = parts[:-drop]
    if target:
        parts = parts + target.split(".")
    return ".".join(parts) if parts else None


def extract_imports(
    tree: ast.Module,
    module: str,
    is_package: bool,
    known_modules: frozenset[str],
) -> list[ImportEdge]:
    """Internal import edges of one parsed module, source order."""
    collector = _ImportCollector()
    collector.visit(tree)
    edges: list[ImportEdge] = []

    def _edge_for(dotted: str, node: ast.AST, deferred: bool,
                  type_only: bool) -> None:
        # resolve to the deepest known module on the dotted path
        # (``from repro.cluster import fleet`` → repro.cluster.fleet
        # when that is a module, repro.cluster otherwise)
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            candidate = ".".join(parts[:cut])
            if candidate in known_modules:
                if candidate != module:
                    edges.append(ImportEdge(
                        target=candidate,
                        line=getattr(node, "lineno", 1),
                        col=getattr(node, "col_offset", 0),
                        deferred=deferred,
                        type_only=type_only,
                    ))
                return

    for node, deferred, type_only in collector.raw:
        if isinstance(node, ast.Import):
            for alias in node.names:
                _edge_for(alias.name, node, deferred, type_only)
        else:
            if node.level:
                base = _resolve_relative(
                    module, is_package, node.level, node.module
                )
                if base is None:
                    continue
            else:
                base = node.module or ""
            if not base:
                continue
            for alias in node.names:
                _edge_for(f"{base}.{alias.name}", node, deferred, type_only)
                _edge_for(base, node, deferred, type_only)

    # dedupe while preserving the first (earliest) occurrence per
    # (target, binding) pair so finding locations are stable
    seen: set[tuple[str, bool, bool]] = set()
    out: list[ImportEdge] = []
    for e in edges:
        key = (e.target, e.deferred, e.type_only)
        if key not in seen:
            seen.add(key)
            out.append(e)
    return out


class ModuleGraph:
    """Deterministic project import graph over :class:`ModuleNode` s."""

    def __init__(self, nodes: list[ModuleNode]) -> None:
        self.nodes: dict[str, ModuleNode] = {
            n.module: n for n in sorted(nodes, key=lambda n: n.module)
        }
        self._sccs: list[tuple[str, ...]] | None = None

    # -- structure -------------------------------------------------------
    def modules(self) -> list[str]:
        return sorted(self.nodes)

    def direct_deps(self, module: str, *, module_level_only: bool = True,
                    ) -> list[str]:
        node = self.nodes.get(module)
        if node is None:
            return []
        targets = {
            e.target for e in node.imports
            if (e.module_level or not module_level_only)
            and e.target in self.nodes
        }
        return sorted(targets)

    # -- cycle detection -------------------------------------------------
    def sccs(self) -> list[tuple[str, ...]]:
        """Strongly connected components over module-level edges.

        Iterative Tarjan, rooted in sorted module order with sorted
        successor visits, so output order is deterministic. Components
        are sorted tuples; only the partition matters to callers.
        """
        if self._sccs is not None:
            return self._sccs
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = 0
        out: list[tuple[str, ...]] = []

        for root in self.modules():
            if root in index:
                continue
            work: list[tuple[str, int]] = [(root, 0)]
            while work:
                mod, child_i = work[-1]
                if child_i == 0:
                    index[mod] = low[mod] = counter
                    counter += 1
                    stack.append(mod)
                    on_stack.add(mod)
                deps = self.direct_deps(mod)
                if child_i < len(deps):
                    work[-1] = (mod, child_i + 1)
                    dep = deps[child_i]
                    if dep not in index:
                        work.append((dep, 0))
                    elif dep in on_stack:
                        low[mod] = min(low[mod], index[dep])
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        low[parent] = min(low[parent], low[mod])
                    if low[mod] == index[mod]:
                        comp = []
                        while True:
                            top = stack.pop()
                            on_stack.discard(top)
                            comp.append(top)
                            if top == mod:
                                break
                        out.append(tuple(sorted(comp)))
        self._sccs = sorted(out)
        return self._sccs

    def cyclic_modules(self) -> dict[str, tuple[str, ...]]:
        """``module -> its SCC`` for every module inside a real cycle."""
        out: dict[str, tuple[str, ...]] = {}
        for comp in self.sccs():
            if len(comp) > 1:
                for mod in comp:
                    out[mod] = comp
        return out

    def topo_order(self) -> list[str]:
        """Dependencies-first order (cycles grouped, then sorted)."""
        order: list[str] = []
        seen: set[str] = set()

        def visit(mod: str) -> None:
            stack = [(mod, False)]
            while stack:
                cur, expanded = stack.pop()
                if expanded:
                    order.append(cur)
                    continue
                if cur in seen:
                    continue
                seen.add(cur)
                stack.append((cur, True))
                for dep in reversed(self.direct_deps(
                        cur, module_level_only=False)):
                    if dep not in seen:
                        stack.append((dep, False))

        for mod in self.modules():
            visit(mod)
        return order
