"""Turning timed units and traced spans into named metrics.

End-to-end metrics come from the untraced run; per-layer metrics from
the traced pass. A metric whose layer never ran in a workload (or whose
boundary the program no longer has) is ``None``: absent.
"""

from __future__ import annotations

import math
import statistics

__all__ = ["end_to_end", "extras", "per_layer", "percentile"]


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between order statistics."""
    data = sorted(samples)
    if not data:
        raise ValueError("no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail(units, samples: str) -> float:
    """Median over units of each unit's normalised p99: a pooled
    percentile would let one unit caught by a host hiccup fill the
    tail, the median of per-unit tails does not."""
    return statistics.median(
        percentile([t * u.scale for t in getattr(u, samples)], 99)
        for u in units
        if getattr(u, samples)
    )


def _mean(values) -> float:
    values = list(values)
    return math.fsum(values) / len(values)


def _ratio(num: float, den: float):
    return num / den if den else None


def _totals(units) -> dict:
    """Each unit counter summed over ``units``."""
    total: dict = {}
    for u in units:
        for key, value in u.counts.items():
            total[key] = total.get(key, 0) + value
    return total


def end_to_end(workload, units, setups, peak_rss_mb, normalise=True) -> dict:
    """The gated metrics. Host times are normalised to the reference
    probe speed (:mod:`machine`) unless ``normalise`` is false."""
    from machine import REFERENCE_PROBE_S

    def scale(obj) -> float:
        return obj.scale if normalise else 1.0

    decide = [t * scale(u) for u in units for t in u.decide_samples]
    digest_units = units[: workload.digest_units]
    return {
        "setup_s": statistics.median(
            s["setup_s"] * (REFERENCE_PROBE_S / s["probe_s"] if normalise else 1.0)
            for s in setups
        ),
        "jobs_per_s": statistics.median(u.jobs / (u.wall * scale(u)) for u in units),
        "decide_p50_us": percentile(decide, 50) * 1e6,
        "peak_rss_mb": peak_rss_mb,
        "sim_gain": _mean(u.sim["sim_gain"] for u in digest_units),
    }


def extras(workload, units) -> dict:
    """Workload-specific end-to-end figures and workload properties,
    printed with every result; ``None`` where one does not apply."""
    digest_units = units[: workload.digest_units]
    total = _totals(units)
    attempted = sum(u.attempted for u in units)
    out = {
        "fail_ratio": sum(u.failed for u in units) / attempted,
        "decide_samples": sum(len(u.decide_samples) for u in units),
        "decide_p99_us": tail(units, "decide_samples") * 1e6,
        "units": len(units),
        "timed_wall_s": sum(u.wall for u in units),
        "steps_per_s": None,
        "place_p50_us": None,
        "place_p99_us": None,
        "place_samples": sum(len(u.place_samples) for u in units),
        "sim_makespan_s": None,
        "sim_wait_p99_s": None,
        "sim_fairness": None,
        "decision_cache_hit_share": _ratio(
            total.get("cache_hits", 0), total.get("cache_lookups", 0)
        ),
        "corun_hit_share": _ratio(
            total.get("corun_hits", 0), total.get("corun_lookups", 0)
        ),
        "requeue_share": None,
    }
    if workload.drain:
        for key in ("sim_makespan_s", "sim_wait_p99_s", "sim_fairness"):
            out[key] = _mean(u.sim[key] for u in digest_units)
        out["requeue_share"] = total["requeues"] / attempted
    else:
        out["steps_per_s"] = total["env_steps"] / sum(u.wall * u.scale for u in units)
        out["decision_cache_hit_share"] = _ratio(
            total["memo_hits"], total["memo_lookups"]
        )
    place = [t * u.scale for u in units for t in u.place_samples]
    if place:
        out["place_p50_us"] = percentile(place, 50) * 1e6
        out["place_p99_us"] = tail(units, "place_samples") * 1e6
    out["host_speed"] = _mean(u.scale for u in units)
    return out


def per_layer(workload, setup, timed, counts, units, untraced_wall, setup_wall) -> dict:
    """The per-layer table from the traced pass.

    ``setup`` and ``timed`` map span names to ``(calls, inclusive s,
    self s)`` for the set-up phase and for the timed units; ``counts``
    holds the tracer's boundary counters over the timed units. Layer
    times are raw host seconds; the overhead ratio compares
    probe-normalised walls, ``untraced_wall`` being the untraced run's
    over the same units. Every layer time ``X_s`` also appears as the
    share ``X_share`` of its phase's wall (``setup_wall`` for import and
    set-up, the traced timed wall for the rest), zero when absent; the
    timed shares plus ``trace.residual_share`` sum to one.
    """
    drain = workload.drain

    def calls(name, table=timed):
        return table.get(name, (0, 0.0, 0.0))[0]

    def self_s(name, table=timed):
        return table[name][2] if calls(name, table) else None

    def total_s(name, table=timed):
        return table[name][1] if calls(name, table) else None

    def ncalls(name):
        return calls(name) or None

    def count(name, layer):
        return counts.get(name, 0) if calls(layer) else None

    def only(ok, value):
        return value if ok else None

    unit_counts = _totals(units)
    traced_wall = sum(u.wall for u in units)
    scaled_wall = sum(u.wall * u.scale for u in units)
    attributed = sum(agg[2] for agg in timed.values())
    hits = counts.get("decide.cache_hits", 0)
    misses = counts.get("decide.cache_misses", 0)
    corun_lookups = unit_counts.get("corun_lookups")
    table = {
        "import.self_s": self_s("import", setup),
        "setup.train_s": total_s("trainer", setup),
        "setup.profile_s": total_s("profile", setup),
        "setup.warmup_s": total_s("setup.warmup", setup),
        "arrivals.jobs": count("arrivals.jobs", "arrivals"),
        "arrivals.self_s": self_s("arrivals"),
        "fleet.self_s": self_s("fleet"),
        "fleet.rounds": ncalls("decide"),
        "admission.calls": ncalls("admission"),
        "admission.rejected": count("admission.rejected", "admission"),
        "admission.self_s": self_s("admission"),
        "replay.calls": ncalls("replay"),
        "replay.self_s": self_s("replay"),
        "replay.retries": count("replay.retries", "replay"),
        "replay.requeues": only(drain, unit_counts.get("requeues")),
        "decide.calls": ncalls("decide"),
        "decide.windows": count("decide.windows", "decide"),
        "decide.self_s": self_s("decide"),
        "decide.cache_hits": count("decide.cache_hits", "decide.lookup"),
        "decide.cache_misses": count("decide.cache_misses", "decide.lookup"),
        "decide.cache_hit_ratio": _ratio(hits, hits + misses),
        "decide.lookup_s": self_s("decide.lookup"),
        "decide.replay_s": self_s("decide.replay"),
        "decide.validate_s": self_s("decide.validate"),
        "decide.env_s": only(drain, self_s("env")),
        "decide.forward_s": self_s("forward"),
        "decide.forward_rows": count("forward.rows", "forward"),
        "assign.calls": ncalls("assign"),
        "assign.self_s": self_s("assign"),
        "predict.calls": ncalls("predict"),
        "predict.self_s": self_s("predict"),
        "corun.hits": unit_counts.get("corun_hits"),
        "corun.misses": (
            corun_lookups - unit_counts["corun_hits"]
            if corun_lookups is not None
            else None
        ),
        "corun.hit_ratio": _ratio(unit_counts.get("corun_hits", 0), corun_lookups),
        "corun.simulate_s": self_s("corun.simulate"),
        "placement.calls": ncalls("placement"),
        "placement.self_s": self_s("placement"),
        "placement.observe_s": self_s("placement.observe"),
        "placement.mask_s": self_s("placement.mask"),
        "placement.forward_s": only(drain, self_s("act")),
        "telemetry.calls": ncalls("telemetry"),
        "telemetry.self_s": self_s("telemetry"),
        "telemetry.checkpoints": only(
            calls("telemetry"), unit_counts.get("checkpoints")
        ),
        "train.episodes": only(not drain, unit_counts.get("episodes")),
        "train.env_steps": only(not drain, unit_counts.get("env_steps")),
        "train.env_s": only(not drain, self_s("env")),
        "train.act_s": only(not drain, self_s("act")),
        "train.updates": only(not drain, ncalls("update")),
        "train.update_s": only(not drain, self_s("update")),
        "train.sample_s": only(not drain, self_s("sample")),
        "train.memo_hit_ratio": only(
            not drain,
            _ratio(unit_counts.get("memo_hits", 0), unit_counts.get("memo_lookups")),
        ),
        "trace.overhead_ratio": scaled_wall / untraced_wall,
        "trace.wall_s": traced_wall,
        "trace.attributed_s": attributed,
        "trace.residual_s": traced_wall - attributed,
        "trace.residual_share": (traced_wall - attributed) / traced_wall,
        "trace.setup_wall_s": setup_wall,
    }
    for name in [k for k in table if k.endswith("_s") and not k.startswith("trace.")]:
        phase_wall = setup_wall if name.startswith(("import.", "setup.")) else traced_wall
        table[name[:-2] + "_share"] = (table[name] or 0.0) / phase_wall
    return table
