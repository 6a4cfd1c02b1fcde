"""DET005 — interprocedural RNG seed-provenance dataflow.

The bit-reproducibility claim needs every RNG in the library to be
derivable from an explicit seed. The per-file DET002 rule catches
*unseeded* constructors; this pass catches *badly seeded* ones, across
module boundaries:

* an RNG constructed from a value that is definitely not seed-derived
  (``None``, a wall-clock or OS-entropy read, a parameter whose name
  carries no seed provenance) is flagged at the construction site —
  this covers RNGs that escape a function without flowing from a
  ``seed``/``rng`` parameter;
* a *seed-consuming factory* — a function that returns an RNG built
  from its own seed parameter — transfers the obligation to its
  callers: a call site anywhere in the project passing a
  non-seed-derived argument is flagged, even when factory and caller
  live in different modules. Factory-of-factory chains resolve through
  :attr:`FunctionSummary.returns_rng` (``call:<qualname>`` links).

The pass runs purely over :class:`ModuleSummary` objects — no
re-parsing — so it costs only an in-memory sweep.
"""

from __future__ import annotations

from repro.statcheck.findings import Finding
from repro.statcheck.symbols import (
    LITERAL,
    SEED,
    TAINTED,
    ModuleSummary,
)

__all__ = ["factory_map", "det005_findings"]

#: factory classifications
_NOT_FACTORY = ""


def factory_map(summaries: dict[str, ModuleSummary]) -> dict[str, str]:
    """``function qualname -> factory provenance`` for the project.

    Provenance is one of the verdicts from
    :mod:`repro.statcheck.symbols` (``seed`` means *callers must pass a
    seed-derived argument*) or ``""`` for non-factories. ``call:``
    chains are resolved with a cycle guard (recursive factories
    degrade to non-factories rather than looping).
    """
    declared: dict[str, str] = {}
    for mod in sorted(summaries):
        for qual, fsum in summaries[mod].functions.items():
            if fsum.returns_rng:
                declared[qual] = fsum.returns_rng

    resolved: dict[str, str] = {}

    def resolve(qual: str, trail: frozenset[str]) -> str:
        if qual in resolved:
            return resolved[qual]
        raw = declared.get(qual, _NOT_FACTORY)
        if raw.startswith("call:"):
            target = raw[len("call:"):]
            if target in trail:
                result = _NOT_FACTORY
            else:
                result = resolve(target, trail | {qual})
        else:
            result = raw
        resolved[qual] = result
        return result

    for qual in sorted(declared):
        resolve(qual, frozenset())
    return resolved


def det005_findings(
    summaries: dict[str, ModuleSummary],
    fixit: str,
) -> list[Finding]:
    """All DET005 findings for the project, deterministically ordered."""
    factories = factory_map(summaries)
    findings: list[Finding] = []

    for mod in sorted(summaries):
        summary = summaries[mod]
        for qual in sorted(summary.functions):
            fsum = summary.functions[qual]
            for creation in fsum.creations:
                if creation.verdict == TAINTED:
                    findings.append(Finding(
                        rule="DET005",
                        path=summary.relpath,
                        line=creation.line,
                        col=creation.col,
                        message=(
                            f"RNG {creation.ctor}() seeded from a "
                            f"non-seed-derived value ({creation.reason})"
                        ),
                        fixit=fixit,
                    ))
            for call in fsum.seed_calls:
                if (
                    factories.get(call.callee) == SEED
                    and call.verdict == TAINTED
                ):
                    findings.append(Finding(
                        rule="DET005",
                        path=summary.relpath,
                        line=call.line,
                        col=call.col,
                        message=(
                            f"seed-consuming factory {call.callee}() "
                            f"called with a non-seed-derived argument "
                            f"({call.reason})"
                        ),
                        fixit=fixit,
                    ))

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.message))
    return findings


def escaping_literal_factories(
    summaries: dict[str, ModuleSummary],
) -> list[str]:
    """Qualnames of factories pinned to a literal seed (informational)."""
    return sorted(
        qual for qual, prov in factory_map(summaries).items()
        if prov == LITERAL
    )
