"""Machine metadata, a calibration score, and the speed probe.

Two results taken on different machines are comparable only after
normalising by how fast each machine runs the same fixed work. The
calibration runs a pure-Python loop (the interpreter-bound share of the
program) and a small float64 matrix product (the BLAS-bound share) a
fixed number of times in the benchmark's own process, and reports the
median seconds of each together with their operations per second.

The speed of one shared host also drifts by half again over tens of
seconds. :func:`probe` is a ~13 ms fixed kernel of the three kinds of
work the program does (an interpreted loop, small NumPy calls, and
matrix products of the training network's shape) that the benchmark
runs between timed units; scaling a unit's host seconds by
``REFERENCE_PROBE_S / probe seconds`` expresses them in seconds of a
machine whose probe takes exactly ``REFERENCE_PROBE_S``.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import sys
import time
from pathlib import Path

__all__ = ["REFERENCE_PROBE_S", "calibrate", "metadata", "probe"]

#: probe seconds of the reference machine that normalised times assume
REFERENCE_PROBE_S = 0.013


def _python_loop(n: int = 200_000) -> int:
    total = 0
    for i in range(n):
        total += (i * i) % 7
    return total


def probe() -> float:
    """Seconds the host takes, right now, for the fixed probe kernel."""
    import numpy as np

    a = np.arange(48.0)
    m = np.linspace(-1.0, 1.0, 1024).reshape(32, 32)
    g1 = np.linspace(-1.0, 1.0, 64 * 512).reshape(64, 512)
    g2 = np.linspace(-1.0, 1.0, 512 * 256).reshape(512, 256)
    t0 = time.perf_counter()
    _python_loop(45_000)
    for _ in range(300):
        np.argsort(a[::-1])
        m @ m[0]
        np.where(a > 3.0, a, -np.inf).max()
    for _ in range(12):
        g1 @ g2
    return time.perf_counter() - t0


def calibrate(repeats: int = 7) -> dict:
    """Median seconds of the fixed kernels and the derived scores."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((192, 192))
    b = rng.standard_normal((192, 192))
    loop, matmul = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _python_loop()
        loop.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        for _ in range(20):
            a @ b
        matmul.append(time.perf_counter() - t0)
    loop_s = statistics.median(loop)
    matmul_s = statistics.median(matmul)
    return {
        "python_loop_s": loop_s,
        "python_mops": 0.2 / loop_s,
        "matmul_s": matmul_s,
        "matmul_gflops": 20 * 2 * 192**3 / matmul_s / 1e9,
    }


def _git_sha(root: Path) -> str | None:
    """HEAD's commit id read from ``.git`` (a plain checkout has none)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src: Path) -> str:
    """Content hash of the package sources, for checkouts without git."""
    h = hashlib.blake2b(digest_size=16)
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas() -> str:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def metadata(root: Path) -> dict:
    """Versions, machine, source identity and calibration score."""
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else None,
        "git_sha": _git_sha(root),
        "src_digest": _source_digest(root / "src"),
        "calibration": calibrate(),
    }
