"""Configuration for statcheck: ``[tool.statcheck]`` in pyproject.toml.

Schema (all keys optional — the rule registry's defaults apply
otherwise; a key outside this schema is an error, not a no-op)::

    [tool.statcheck]
    paths = ["src"]                      # what a bare `statcheck` checks
    exclude = ["src/repro/_vendored"]    # path prefixes never checked
    baseline = "statcheck-baseline.json" # grandfathered findings
    disable = []                         # rule codes switched off

    [tool.statcheck.rules.DET001]
    allow = ["src/repro/clock.py"]       # exempt paths (extends nothing,
                                         # REPLACES the rule default)
    [tool.statcheck.rules.DET003]
    only = ["src/repro/insight"]         # restrict to these paths

Python 3.11+ parses with :mod:`tomllib`; on 3.10 a minimal built-in
TOML subset reader handles exactly the shapes above (tables, string /
bool / number scalars, arrays of strings) so the tool stays
dependency-free everywhere the repo supports.
"""

from __future__ import annotations

import fnmatch
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import ReproError
from repro.statcheck.rules import RULES, all_codes

__all__ = [
    "StatcheckError",
    "RuleScope",
    "StatcheckConfig",
    "find_root",
    "load_config",
]


class StatcheckError(ReproError):
    """Bad configuration, baseline, or input handed to statcheck."""


def _path_matches(relpath: str, entry: str) -> bool:
    entry = entry.rstrip("/")
    if relpath == entry or relpath.startswith(entry + "/"):
        return True
    return fnmatch.fnmatch(relpath, entry)


@dataclass(frozen=True)
class RuleScope:
    """Effective path scope of one rule (registry default or override)."""

    only: tuple[str, ...] = ()
    allow: tuple[str, ...] = ()

    def applies(self, relpath: str) -> bool:
        if self.only and not any(
            _path_matches(relpath, e) for e in self.only
        ):
            return False
        return not any(_path_matches(relpath, e) for e in self.allow)


@dataclass(frozen=True)
class StatcheckConfig:
    """Resolved configuration, paths relative to ``root``."""

    root: Path
    paths: tuple[str, ...] = ("src",)
    exclude: tuple[str, ...] = ()
    baseline: str | None = "statcheck-baseline.json"
    disable: tuple[str, ...] = ()
    scopes: dict[str, RuleScope] = field(default_factory=dict)
    #: root package of the project graph (module names start with it)
    package: str = "repro"
    #: the ARCH001 layer DAG, lowest layer first; each entry is the set
    #: of top-level package tokens assigned to that layer. Empty means
    #: "cycles only" — the layer check needs an explicit map.
    layers: tuple[frozenset[str], ...] = ()
    #: engine modules whose hook call sites seed OBS002 root discovery
    obs_roots: tuple[str, ...] = ()
    #: observer packages whose functions those hooks resolve into
    obs_observers: tuple[str, ...] = ()

    def enabled_rules(self, relpath: str) -> frozenset[str]:
        """Rule codes active for one repo-relative file path."""
        active = set()
        for code in all_codes():
            if code in self.disable:
                continue
            if self.scope(code).applies(relpath):
                active.add(code)
        return frozenset(active)

    def scope(self, code: str) -> RuleScope:
        if code in self.scopes:
            return self.scopes[code]
        info = RULES[code]
        return RuleScope(only=info.only, allow=info.allow)

    def excluded(self, relpath: str) -> bool:
        return any(_path_matches(relpath, e) for e in self.exclude)

    @property
    def baseline_path(self) -> Path | None:
        if not self.baseline:
            return None
        return self.root / self.baseline


# ----------------------------------------------------------------------
# pyproject loading
# ----------------------------------------------------------------------
def find_root(start: str | os.PathLike[str] | None = None) -> Path:
    """Nearest ancestor (of ``start`` or cwd) holding a pyproject.toml."""
    here = Path(start if start is not None else os.getcwd()).resolve()
    if here.is_file():
        here = here.parent
    for candidate in (here, *here.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return here


def _parse_toml(text: str) -> dict[str, Any]:
    try:
        import tomllib
    except ImportError:  # Python 3.10
        return _parse_minitoml(text)
    return tomllib.loads(text)


def _parse_scalar(raw: str) -> Any:
    raw = raw.strip()
    if raw.startswith(("\"", "'")):
        quote = raw[0]
        end = raw.find(quote, 1)
        if end < 0:
            raise StatcheckError(f"unterminated string in TOML: {raw!r}")
        return raw[1:end]
    if raw in ("true", "false"):
        return raw == "true"
    token = raw.split("#", 1)[0].strip()
    try:
        return int(token)
    except ValueError:
        try:
            return float(token)
        except ValueError:
            raise StatcheckError(
                f"unsupported TOML value {raw!r} (minimal 3.10 reader)"
            ) from None


def _parse_minitoml(text: str) -> dict[str, Any]:
    """A tiny TOML subset reader for Python 3.10 (no tomllib).

    Only the ``[tool.statcheck]`` subtree is parsed — ``[dotted.table]``
    headers, ``key = scalar`` and ``key = [ "a", "b" ]`` arrays (which
    may span lines). Every other table in the document is skipped
    wholesale, so arbitrary pyproject.toml content (inline tables,
    exotic values) cannot trip the reader; anything fancier *inside*
    the statcheck tables raises.
    """
    doc: dict[str, Any] = {}
    table: dict[str, Any] | None = None  # None = in a skipped table
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and not line.startswith("[["):
            header = line.split("#", 1)[0].strip()
            if not header.endswith("]"):
                raise StatcheckError(f"bad TOML table header: {line!r}")
            parts = [
                p.strip().strip("\"'")
                for p in header[1:-1].strip().split(".")
            ]
            if parts[:2] != ["tool", "statcheck"]:
                table = None
                continue
            table = doc
            for part in parts:
                table = table.setdefault(part, {})
            continue
        if table is None:
            continue
        if "=" not in line:
            raise StatcheckError(f"unsupported TOML line: {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip().strip("\"'")
        raw = raw.strip()
        if raw.startswith("["):
            buf = raw
            while "]" not in buf and i < len(lines):
                buf += " " + lines[i].strip()
                i += 1
            body = buf[1:buf.rindex("]")]
            items = [
                _parse_scalar(item)
                for item in _split_array(body)
            ]
            table[key] = items
        else:
            table[key] = _parse_scalar(raw)
    return doc


def _split_array(body: str) -> list[str]:
    out = []
    for chunk in body.split(","):
        chunk = chunk.strip()
        if chunk and not chunk.startswith("#"):
            out.append(chunk)
    return out


def _as_str_tuple(value: Any, key: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(
        isinstance(v, str) for v in value
    ):
        raise StatcheckError(
            f"[tool.statcheck] {key} must be an array of strings"
        )
    return tuple(value)


def _reject_unknown_keys(
    table: dict[str, Any], known: tuple[str, ...], where: str
) -> None:
    unknown = sorted(set(table) - set(known))
    if unknown:
        raise StatcheckError(
            f"{where} unknown key {unknown[0]!r} "
            f"(known: {', '.join(known)})"
        )


def load_config(root: str | os.PathLike[str] | None = None) -> StatcheckConfig:
    """The repo's statcheck configuration (defaults when absent)."""
    rootp = find_root(root) if not isinstance(root, Path) else root
    pyproject = rootp / "pyproject.toml"
    section: dict[str, Any] = {}
    if pyproject.is_file():
        doc = _parse_toml(pyproject.read_text())
        section = doc.get("tool", {}).get("statcheck", {})
    if not isinstance(section, dict):
        raise StatcheckError("[tool.statcheck] must be a table")
    _reject_unknown_keys(
        section,
        ("paths", "exclude", "baseline", "disable", "package",
         "arch", "obs", "rules"),
        "[tool.statcheck]",
    )

    kwargs: dict[str, Any] = {"root": rootp}
    if "paths" in section:
        kwargs["paths"] = _as_str_tuple(section["paths"], "paths")
    if "exclude" in section:
        kwargs["exclude"] = _as_str_tuple(section["exclude"], "exclude")
    if "baseline" in section:
        baseline = section["baseline"]
        if baseline is not None and not isinstance(baseline, str):
            raise StatcheckError("[tool.statcheck] baseline must be a string")
        kwargs["baseline"] = baseline or None
    if "disable" in section:
        disable = _as_str_tuple(section["disable"], "disable")
        unknown = [c for c in disable if c not in RULES]
        if unknown:
            raise StatcheckError(f"disable lists unknown rules: {unknown}")
        kwargs["disable"] = disable
    if "package" in section:
        package = section["package"]
        if not isinstance(package, str) or not package:
            raise StatcheckError(
                "[tool.statcheck] package must be a non-empty string"
            )
        kwargs["package"] = package

    arch = section.get("arch", {})
    if not isinstance(arch, dict):
        raise StatcheckError("[tool.statcheck.arch] must be a table")
    _reject_unknown_keys(arch, ("layers",), "[tool.statcheck.arch]")
    if "layers" in arch:
        # each entry is one layer: a space-separated string of package
        # tokens (flat strings keep the table parseable by the minimal
        # 3.10 reader, which has no nested arrays)
        raw_layers = _as_str_tuple(arch["layers"], "arch.layers")
        layers: list[frozenset[str]] = []
        seen_tokens: set[str] = set()
        for entry in raw_layers:
            tokens = frozenset(entry.split())
            if not tokens:
                raise StatcheckError("arch.layers has an empty layer")
            dup = tokens & seen_tokens
            if dup:
                raise StatcheckError(
                    f"arch.layers assigns {sorted(dup)} to two layers"
                )
            seen_tokens |= tokens
            layers.append(tokens)
        kwargs["layers"] = tuple(layers)

    obs = section.get("obs", {})
    if not isinstance(obs, dict):
        raise StatcheckError("[tool.statcheck.obs] must be a table")
    _reject_unknown_keys(obs, ("roots", "observers"), "[tool.statcheck.obs]")
    if "roots" in obs:
        kwargs["obs_roots"] = _as_str_tuple(obs["roots"], "obs.roots")
    if "observers" in obs:
        kwargs["obs_observers"] = _as_str_tuple(
            obs["observers"], "obs.observers"
        )

    scopes: dict[str, RuleScope] = {}
    for code, sub in section.get("rules", {}).items():
        if code not in RULES:
            raise StatcheckError(
                f"[tool.statcheck.rules] unknown rule {code!r} "
                f"(known: {', '.join(all_codes())})"
            )
        if not isinstance(sub, dict):
            raise StatcheckError(f"rule table {code} must be a table")
        _reject_unknown_keys(
            sub, ("only", "allow"), f"[tool.statcheck.rules.{code}]"
        )
        info = RULES[code]
        scopes[code] = RuleScope(
            only=_as_str_tuple(sub["only"], f"{code}.only")
            if "only" in sub else info.only,
            allow=_as_str_tuple(sub["allow"], f"{code}.allow")
            if "allow" in sub else info.allow,
        )
    kwargs["scopes"] = scopes
    return StatcheckConfig(**kwargs)
