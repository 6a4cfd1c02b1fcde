"""repro.statcheck — determinism-invariant linter for this repository.

An AST-based static-analysis pass with repo-specific rules guarding
the invariants the reproduction's bit-reproducibility rests on:

========  ============================================================
DET001    no wall-clock reads outside ``repro.clock`` / the CLI
DET002    no global or unseeded RNG — inject a seeded ``Generator``
DET003    no unordered set/``dict.keys()`` iteration feeding
          serialization or reductions in artifact-writing paths
DET005    interprocedural RNG seed provenance: every RNG derives
          from an explicit seed, across module boundaries
ARCH001   module-level imports respect the architecture layer DAG
          (no upward imports, no import cycles)
OBS001    core/rl/cluster/gpu touch telemetry only via the facade
OBS002    observers reachable from engine hooks never mutate
          engine state (pure-observer verification)
HYG001    no mutable default arguments
HYG002    no ``print()`` in library code
========  ============================================================

The per-file rules run in one AST pass; the project rules (DET005,
ARCH001, OBS002) run over a whole-program import/call graph built
from scratch on every run (DESIGN.md §16). ``--format sarif`` emits a
SARIF 2.1.0 log.

Run it as ``repro-gpu statcheck [--json] [PATHS]`` or import
:func:`check_paths` from tests. Per-line escape hatch::

    ...  # statcheck: ignore[DET001] <justification>

Configuration lives in ``[tool.statcheck]`` in pyproject.toml;
grandfathered findings live in the baseline file (see
:mod:`repro.statcheck.baseline`). DESIGN.md §11 documents every rule's
rationale and how to add one.
"""

from repro.statcheck.baseline import (
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.statcheck.config import (
    RuleScope,
    StatcheckConfig,
    StatcheckError,
    find_root,
    load_config,
)
from repro.statcheck.engine import (
    Report,
    check_paths,
    check_source,
    iter_python_files,
    pragma_map,
    update_baseline,
)
from repro.statcheck.findings import Finding
from repro.statcheck.graph import ModuleGraph, module_name_for
from repro.statcheck.rules import (
    RULES,
    RuleInfo,
    RuleVisitor,
    all_codes,
    project_codes,
)
from repro.statcheck.sarif import to_sarif
from repro.statcheck.symbols import ModuleSummary, summarize_module

__all__ = [
    "Finding",
    "ModuleGraph",
    "ModuleSummary",
    "Report",
    "RULES",
    "RuleInfo",
    "RuleScope",
    "RuleVisitor",
    "StatcheckConfig",
    "StatcheckError",
    "all_codes",
    "apply_baseline",
    "check_paths",
    "check_source",
    "find_root",
    "iter_python_files",
    "load_baseline",
    "load_config",
    "module_name_for",
    "pragma_map",
    "project_codes",
    "summarize_module",
    "to_sarif",
    "update_baseline",
    "write_baseline",
]
