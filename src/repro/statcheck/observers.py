"""OBS002 — pure-observer verification for the engine's hook paths.

The fleet engine promises its observability hooks — lifecycle tracer,
phase timers, quantile sketches — are *pure observers*: invoking them
must never change a scheduling decision or simulated outcome. This
pass verifies the promise structurally:

1. **Root discovery** — in the configured engine modules (default
   ``repro.cluster.fleet``) collect every method name invoked through
   attribute access plus every directly-resolved call into an
   observer package. Observer-package functions matching those names
   are the hook roots.
2. **Reachability** — close over the project call graph (resolved
   calls + ``self.method`` edges) from the roots, so a helper an
   observer delegates to is checked too, across modules.
3. **Purity** — every reachable function must not assign, augment, or
   delete an *attribute of a non-self parameter*: parameters are how
   engine state (jobs, nodes, the engine itself) reaches an observer,
   and attribute writes on them are exactly "writing simulation
   state". Mutating ``self`` (the observer's own accumulators) and
   locals remains legal — observers do aggregate.

Like the other project rules this runs over module summaries only, at
in-memory cost, re-deriving every finding on every run.
"""

from __future__ import annotations

from repro.statcheck.findings import Finding
from repro.statcheck.symbols import FunctionSummary, ModuleSummary

__all__ = ["observer_roots", "reachable_functions", "obs002_findings"]


def _in_packages(module: str, packages: tuple[str, ...]) -> bool:
    return any(
        module == p or module.startswith(p + ".") for p in packages
    )


def _function_index(
    summaries: dict[str, ModuleSummary],
) -> dict[str, tuple[str, FunctionSummary]]:
    """``qualname -> (module, summary)`` over the whole project."""
    out: dict[str, tuple[str, FunctionSummary]] = {}
    for mod in sorted(summaries):
        for qual, fsum in summaries[mod].functions.items():
            out[qual] = (mod, fsum)
    return out


def observer_roots(
    summaries: dict[str, ModuleSummary],
    roots: tuple[str, ...],
    observers: tuple[str, ...],
) -> list[str]:
    """Qualnames of observer functions the engine hooks into."""
    hook_names: set[str] = set()
    direct: set[str] = set()
    for mod in sorted(summaries):
        if not _in_packages(mod, roots):
            continue
        summary = summaries[mod]
        hook_names.update(summary.attr_calls)
        for fsum in summary.functions.values():
            hook_names.update(
                c.rsplit(".", 1)[-1] for c in fsum.calls
            )
            for callee in fsum.calls:
                callee_mod = _callee_module(callee, summaries)
                if callee_mod and _in_packages(callee_mod, observers):
                    direct.add(callee)

    found: set[str] = set(direct)
    for mod in sorted(summaries):
        if not _in_packages(mod, observers):
            continue
        for qual in summaries[mod].functions:
            if qual.rsplit(".", 1)[-1] in hook_names:
                found.add(qual)
    return sorted(found)


def _callee_module(qual: str, summaries: dict[str, ModuleSummary]) -> str | None:
    """Longest summary module that prefixes ``qual``."""
    parts = qual.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        candidate = ".".join(parts[:cut])
        if candidate in summaries:
            return candidate
    return None


def reachable_functions(
    summaries: dict[str, ModuleSummary],
    roots: list[str],
) -> list[str]:
    """Deterministic call-graph closure from the given root functions."""
    index = _function_index(summaries)
    seen: set[str] = set()
    frontier = sorted(q for q in roots if q in index)
    seen.update(frontier)
    while frontier:
        next_frontier: set[str] = set()
        for qual in frontier:
            _, fsum = index[qual]
            for callee in fsum.calls:
                if callee in index and callee not in seen:
                    seen.add(callee)
                    next_frontier.add(callee)
        frontier = sorted(next_frontier)
    return sorted(seen)


def obs002_findings(
    summaries: dict[str, ModuleSummary],
    roots: tuple[str, ...],
    observers: tuple[str, ...],
    fixit: str,
) -> list[Finding]:
    """All OBS002 findings for the project, deterministically ordered."""
    root_funcs = observer_roots(summaries, roots, observers)
    reached = reachable_functions(summaries, root_funcs)
    index = _function_index(summaries)

    findings: list[Finding] = []
    for qual in reached:
        mod, fsum = index[qual]
        relpath = summaries[mod].relpath
        for write in fsum.writes:
            findings.append(Finding(
                rule="OBS002",
                path=relpath,
                line=write.line,
                col=write.col,
                message=(
                    f"{qual} is reachable from engine observability "
                    f"hooks but writes {write.param}.{write.attr} — "
                    "observers must not mutate engine state"
                ),
                fixit=fixit,
            ))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.message))
    return findings
