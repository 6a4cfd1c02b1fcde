"""What ``import repro`` loads.

The library imports neither scipy (its LSAP solver is in-tree; scipy is
a test oracle only) nor networkx (the MIG-only baseline imports it when
it schedules), and every third-party top-level module the import does
load is declared in ``pyproject.toml``'s ``dependencies``.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: top-level modules ``import repro`` adds whose files live in an
#: installed-packages directory
_PROBE = """
import json, sys
from pathlib import Path
before = set(sys.modules)
import repro
third_party = set()
for name in {m.split(".")[0] for m in set(sys.modules) - before} - {"repro"}:
    path = getattr(sys.modules.get(name), "__file__", None) or ""
    if {"site-packages", "dist-packages"} & set(Path(path).parts):
        third_party.add(name)
print(json.dumps(sorted(third_party)))
"""


def _third_party_loaded() -> set[str]:
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return set(json.loads(out.stdout))


def _declared_dependencies() -> set[str]:
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S)
    assert block is not None, "pyproject.toml has no dependencies list"
    return {
        re.match(r"[A-Za-z0-9_.\-]+", req).group(0).lower().replace("-", "_")
        for req in re.findall(r"\"([^\"]+)\"", block.group(1))
    }


def test_import_repro_loads_only_declared_dependencies():
    loaded = _third_party_loaded()
    assert "scipy" not in loaded
    assert "networkx" not in loaded
    assert loaded <= _declared_dependencies(), loaded - _declared_dependencies()
