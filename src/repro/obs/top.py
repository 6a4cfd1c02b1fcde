"""`repro-gpu top` — fleet health rendered from a run directory.

Pure functions: load the observability artifacts a fleet run leaves
behind (``frames.jsonl`` rollups, ``lifecycle.jsonl`` per-job records,
``fleet.json`` summary when present) and render a terminal dashboard
string. No printing here (HYG001) — the CLI prints the returned text —
and every loader zero-fills, so ``top`` on an empty or partial run
directory renders a placeholder instead of raising. A directory that
does not exist is an error, so a mistyped path cannot pass for a
healthy run.
"""

from __future__ import annotations

import json
import os

from repro.errors import ConfigurationError
from repro.obs.rollup import frames_series, read_frames_jsonl
from repro.obs.trace import read_lifecycle_jsonl, summarize_lifecycle

__all__ = ["load_run", "render_top", "sparkline"]

_BARS = " ▁▂▃▄▅▆▇█"


def sparkline(values, width: int = 48) -> str:
    """A unicode sparkline, resampled (bucket means) to ``width``."""
    values = [float(v) for v in values]
    if not values:
        return "(no data)"
    if len(values) > width:
        resampled = []
        for i in range(width):
            lo = i * len(values) // width
            hi = max(lo + 1, (i + 1) * len(values) // width)
            chunk = values[lo:hi]
            resampled.append(sum(chunk) / len(chunk))
        values = resampled
    low, high = min(values), max(values)
    span = high - low
    if span <= 0.0:
        return _BARS[1] * len(values)
    return "".join(
        _BARS[1 + int((v - low) / span * (len(_BARS) - 2))] for v in values
    )


def load_run(out_dir: str) -> dict:
    """Gather the observability artifacts under ``out_dir`` (zero-fill)."""
    if not os.path.isdir(out_dir):
        raise ConfigurationError(f"no run directory at {out_dir}")
    frames = read_frames_jsonl(os.path.join(out_dir, "frames.jsonl"))
    lifecycle = read_lifecycle_jsonl(os.path.join(out_dir, "lifecycle.jsonl"))
    summary: dict = {}
    summary_path = os.path.join(out_dir, "fleet.json")
    if os.path.exists(summary_path):
        try:
            with open(summary_path, encoding="utf-8") as handle:
                loaded = json.load(handle)
            if isinstance(loaded, dict):
                summary = loaded
        except (OSError, ValueError):
            summary = {}
    return {
        "dir": out_dir,
        "frames": frames,
        "lifecycle": summarize_lifecycle(lifecycle),
        "summary": summary,
    }


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.3f}"


def render_top(run: dict, alerts=(), width: int = 48) -> str:
    """The fleet-health panel: headline counters, rollup sparklines,
    lifecycle outcome mix, and burn-rate SLO status."""
    frames = run.get("frames", [])
    lifecycle = run.get("lifecycle", {}) or {}
    summary = run.get("summary", {}) or {}
    lines = [f"repro-gpu top — {run.get('dir', '?')}"]

    latest = frames[-1] if frames else {}
    headline = [
        ("t", latest.get("time", summary.get("makespan", 0.0))),
        ("submitted", latest.get("submitted", summary.get("submitted", 0))),
        ("completed", latest.get("completed", summary.get("completed", 0))),
        ("failed", latest.get("failed", summary.get("failed", 0))),
        ("rejected", latest.get("rejected", summary.get("rejected", 0))),
        ("pending", latest.get("pending", summary.get("pending", 0))),
        ("busy", latest.get("busy_nodes", 0)),
    ]
    lines.append("  ".join(f"{k}={_fmt(float(v))}" for k, v in headline))

    if frames:
        rows = (
            ("pending", "pending"),
            ("busy_nodes", "busy nodes"),
            ("utilization", "utilization"),
            ("queue_wait_p95", "queue-wait p95 (s)"),
            ("queue_wait_p99", "queue-wait p99 (s)"),
            ("decisions_per_sec", "decisions/sec"),
            ("energy_joules", "energy (J)"),
        )
        lines.append("")
        for key, label in rows:
            series = frames_series(frames, key)
            lines.append(
                f"{label:>20} {sparkline(series, width)} "
                f"last={_fmt(series[-1])} max={_fmt(max(series))}"
            )
    else:
        lines.append("(no frames.jsonl — run repro-gpu fleet with --telemetry "
                     "and a checkpoint interval)")

    if lifecycle.get("jobs"):
        outcomes = lifecycle.get("outcomes", {})
        mix = "  ".join(f"{k}={outcomes[k]}" for k in sorted(outcomes))
        lines.append("")
        lines.append(
            f"lifecycle: {lifecycle['jobs']} jobs  {mix}  "
            f"attempts={lifecycle.get('attempts', 0)}  "
            f"mean_wait={_fmt(lifecycle.get('mean_wait', 0.0))}s  "
            f"max_wait={_fmt(lifecycle.get('max_wait', 0.0))}s"
        )

    lines.append("")
    alerts = list(alerts)
    if alerts:
        for alert in alerts:
            doc = alert.to_dict() if hasattr(alert, "to_dict") else dict(alert)
            lines.append(
                f"SLO BURN [{doc.get('severity', '?')}] t={_fmt(float(doc.get('ts', 0.0)))} "
                f"{doc.get('message', doc.get('kind', 'alert'))}"
            )
    else:
        lines.append("SLO burn rate: ok")
    return "\n".join(lines)
