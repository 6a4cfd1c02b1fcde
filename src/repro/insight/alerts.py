"""Streaming anomaly / SLO detectors over a run's telemetry.

:class:`AlertEngine` replays the tracer's (simulated-clock) record
stream chronologically plus the metrics registry, and raises typed
:class:`Alert`\\ s when a detector's threshold is crossed:

=====================  ================================================
``straggler_rate``      injected straggler faults per dispatched window
``retry_spike``         device-level retries per dispatched window
``fallback_spike``      FCFS policy fallbacks per dispatched window
``requeue_spike``       job re-queues (crashes) per dispatched window
``utilization_drop``    cluster utilization below the SLO floor
``queue_wait_p95``      p95 job queue wait above the SLO bound
``q_value_drift``       training Q-max drifting far from its baseline
``td_error_blowup``     training TD loss exploding vs. its baseline
=====================  ================================================

Rate detectors wait for ``min_windows`` dispatched windows before
judging (no alarms off a single window) and each detector *latches*:
it fires once, at the simulated timestamp where the threshold was first
crossed. Every alert is also written back into the tracer as an
``alert:<kind>`` event on the ``alerts`` track (category ``alert``) and
counted in ``alerts_raised_total`` — so exported traces carry their own
diagnosis.

Detection is read-only over telemetry a run already produced: a clean
run stays silent, and running the engine never changes scheduler
outputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.errors import ReproError
from repro.telemetry.export import device_timelines
from repro.telemetry.facade import Telemetry
from repro.telemetry.registry import SketchMetric
from repro.telemetry.tracer import Event, Span

__all__ = [
    "Alert",
    "AlertConfig",
    "AlertEngine",
    "BurnRateConfig",
    "scan_burn_rate",
    "write_alerts_jsonl",
]


@dataclass(frozen=True)
class Alert:
    """One detector firing: what crossed which threshold, and when."""

    kind: str
    severity: str          # "warning" | "critical"
    ts: float              # simulated time of the crossing
    track: str             # where the evidence lives ("cluster", "train", ...)
    value: float
    threshold: float
    message: str

    def to_dict(self) -> dict:
        return {
            "type": "alert",
            "kind": self.kind,
            "severity": self.severity,
            "ts": self.ts,
            "track": self.track,
            "value": self.value,
            "threshold": self.threshold,
            "message": self.message,
        }


@dataclass
class AlertConfig:
    """Thresholds for the detectors (defaults sized for the simulated
    cluster scenarios; every rate is per dispatched window)."""

    min_windows: int = 3            # windows before rate detectors judge
    straggler_rate: float = 0.05
    retry_rate: float = 0.2
    fallback_rate: float = 0.1
    requeue_rate: float = 0.1
    min_utilization: float = 0.3    # SLO floor, cluster-wide
    queue_wait_p95: float = 7200.0  # SLO bound, simulated seconds
    min_wait_samples: int = 10
    baseline_episodes: int = 8      # training baseline prefix
    q_drift: float = 5.0            # |q - q0| > q_drift * max(1, |q0|)
    loss_blowup: float = 50.0       # loss > loss_blowup * max(loss0, 1e-6)


class AlertEngine:
    """Runs every detector over one telemetry handle's data."""

    def __init__(self, telemetry: Telemetry, config: AlertConfig | None = None):
        if not telemetry.enabled:
            raise ReproError("alert detection needs live telemetry")
        self.telemetry = telemetry
        self.config = config or AlertConfig()
        self.alerts: list[Alert] = []

    # ------------------------------------------------------------------
    def scan(self) -> list[Alert]:
        """Run all detectors, emit alert events/counters, return alerts."""
        alerts: list[Alert] = []
        alerts += self._scan_cluster_stream()
        alerts += self._scan_utilization()
        alerts += self._scan_queue_wait()
        alerts += self._scan_training_stream()
        alerts.sort(key=lambda a: (a.ts, a.kind))
        for a in alerts:
            self.telemetry.event(
                f"alert:{a.kind}",
                "alerts",
                a.ts,
                category="alert",
                severity=a.severity,
                value=a.value,
                threshold=a.threshold,
                message=a.message,
            )
            self.telemetry.count("alerts_raised_total", 1, kind=a.kind)
        self.alerts = alerts
        return alerts

    # ------------------------------------------------------------------
    def _scan_cluster_stream(self) -> list[Alert]:
        """Rate detectors over fault/retry/fallback/requeue occurrences,
        normalized by dispatched windows, judged at each window end."""
        cfg = self.config
        # (time, kind) points; window ends carry kind None
        points: list[tuple[float, str | None, str]] = []
        for r in self.telemetry.tracer.records():
            if isinstance(r, Span) and r.name == "window":
                points.append((r.end, None, r.track))
            elif isinstance(r, Event) and r.category != "alert":
                if r.name == "fault:straggler":
                    points.append((r.ts, "straggler", r.track))
                elif r.name == "retry":
                    points.append((r.ts, "retry", r.track))
                elif r.name == "fallback":
                    points.append((r.ts, "fallback", r.track))
                elif r.name == "requeue":
                    points.append((r.ts, "requeue", r.track))
        points.sort(key=lambda p: p[0])

        thresholds = {
            "straggler": ("straggler_rate", cfg.straggler_rate, "critical"),
            "retry": ("retry_spike", cfg.retry_rate, "warning"),
            "fallback": ("fallback_spike", cfg.fallback_rate, "warning"),
            "requeue": ("requeue_spike", cfg.requeue_rate, "warning"),
        }
        counts = {k: 0 for k in thresholds}
        windows = 0
        fired: set[str] = set()
        alerts: list[Alert] = []
        for ts, kind, track in points:
            if kind is not None:
                counts[kind] += 1
                continue
            windows += 1
            if windows < cfg.min_windows:
                continue
            for key, (name, threshold, severity) in thresholds.items():
                if name in fired:
                    continue
                rate = counts[key] / windows
                if rate > threshold:
                    fired.add(name)
                    alerts.append(Alert(
                        kind=name,
                        severity=severity,
                        ts=ts,
                        track="cluster",
                        value=rate,
                        threshold=threshold,
                        message=(
                            f"{counts[key]} {key} occurrences over "
                            f"{windows} windows "
                            f"(rate {rate:.2f} > {threshold:.2f})"
                        ),
                    ))
        return alerts

    def _scan_utilization(self) -> list[Alert]:
        """Whole-run cluster utilization vs. the SLO floor."""
        cfg = self.config
        tracer = self.telemetry.tracer
        n_windows = len(tracer.spans(name="window"))
        if n_windows < cfg.min_windows:
            return []
        timelines = device_timelines(tracer)
        if not timelines:
            return []
        makespan = max(
            iv["end"] for ivs in timelines.values() for iv in ivs
        )
        if makespan <= 0:
            return []
        busy = sum(
            iv["duration"] for ivs in timelines.values() for iv in ivs
        )
        util = busy / (makespan * len(timelines))
        if util >= cfg.min_utilization:
            return []
        return [Alert(
            kind="utilization_drop",
            severity="warning",
            ts=makespan,
            track="cluster",
            value=util,
            threshold=cfg.min_utilization,
            message=(
                f"cluster utilization {util:.2f} below the "
                f"{cfg.min_utilization:.2f} SLO floor"
            ),
        )]

    def _scan_queue_wait(self) -> list[Alert]:
        """p95 queue wait vs. the SLO, read off the fleet engine's
        ``fleet_queue_wait_seconds`` :class:`SketchMetric`."""
        cfg = self.config
        metric = next(
            (
                m
                for m in self.telemetry.registry.collect()
                if m.name == "fleet_queue_wait_seconds"
                and isinstance(m, SketchMetric)
            ),
            None,
        )
        if metric is None:
            return []
        alerts: list[Alert] = []
        for key in metric.series():
            snap = metric.snapshot(**dict(key))
            if snap.count < cfg.min_wait_samples:
                continue
            p95 = snap.quantile(0.95)
            if p95 <= cfg.queue_wait_p95:
                continue
            alerts.append(Alert(
                kind="queue_wait_p95",
                severity="warning",
                ts=snap.maximum,
                track="cluster",
                value=p95,
                threshold=cfg.queue_wait_p95,
                message=(
                    f"queue wait p95 {p95:.0f}s over {snap.count} jobs "
                    f"exceeds the {cfg.queue_wait_p95:.0f}s SLO"
                ),
            ))
            break  # one latched alert regardless of label splits
        return alerts

    def _scan_training_stream(self) -> list[Alert]:
        """Q-drift and TD-loss blowup over per-episode ``episode``
        events (ts = episode index), judged against the baseline built
        from the first ``baseline_episodes`` episodes."""
        cfg = self.config
        episodes = sorted(
            self.telemetry.tracer.events(name="episode", track="train"),
            key=lambda e: e.ts,
        )
        if len(episodes) <= cfg.baseline_episodes:
            return []
        base = episodes[: cfg.baseline_episodes]
        q_base = sum(e.args["q_max"] for e in base) / len(base)
        loss_base = max(
            sum(e.args["loss"] for e in base) / len(base), 1e-6
        )
        q_bound = cfg.q_drift * max(1.0, abs(q_base))
        loss_bound = cfg.loss_blowup * loss_base
        alerts: list[Alert] = []
        fired: set[str] = set()
        for e in episodes[cfg.baseline_episodes:]:
            drift = abs(e.args["q_max"] - q_base)
            if "q_value_drift" not in fired and drift > q_bound:
                fired.add("q_value_drift")
                alerts.append(Alert(
                    kind="q_value_drift",
                    severity="critical",
                    ts=e.ts,
                    track="train",
                    value=e.args["q_max"],
                    threshold=q_bound,
                    message=(
                        f"episode {int(e.ts)}: Q-max "
                        f"{e.args['q_max']:.2f} drifted {drift:.2f} from "
                        f"baseline {q_base:.2f} (bound {q_bound:.2f})"
                    ),
                ))
            if "td_error_blowup" not in fired and e.args["loss"] > loss_bound:
                fired.add("td_error_blowup")
                alerts.append(Alert(
                    kind="td_error_blowup",
                    severity="critical",
                    ts=e.ts,
                    track="train",
                    value=e.args["loss"],
                    threshold=loss_bound,
                    message=(
                        f"episode {int(e.ts)}: TD loss "
                        f"{e.args['loss']:.3g} exceeds "
                        f"{cfg.loss_blowup:.0f}x baseline "
                        f"{loss_base:.3g}"
                    ),
                ))
            if len(fired) == 2:
                break
        return alerts


@dataclass
class BurnRateConfig:
    """Multi-window burn-rate SLO policy over fleet rollup frames.

    The SLO is "``objective`` of checkpoint frames keep queue-wait p95
    at or under ``slo_wait_seconds``"; the error budget is
    ``1 - objective``. A frame whose ``queue_wait_p95`` exceeds the
    bound is *bad*, and a window's burn rate is its bad-frame fraction
    divided by the error budget (burn 1.0 = spending budget exactly on
    schedule). The detector pages only when both a fast window (quick
    to fire) and a slow window (resistant to blips) burn hot — the
    standard multi-window guard against one-frame spikes.
    """

    slo_wait_seconds: float = 7200.0
    objective: float = 0.95       # fraction of frames that must meet the SLO
    fast_frames: int = 6
    slow_frames: int = 36
    fast_burn: float = 6.0        # page when the fast window burns this hot...
    slow_burn: float = 3.0        # ...and the slow window confirms it


def scan_burn_rate(
    frames: list[dict], config: BurnRateConfig | None = None
) -> list[Alert]:
    """Latch one critical alert at the first multi-window burn crossing.

    ``frames`` are rollup-frame dicts (``FleetSnapshot.to_dict`` rows,
    e.g. from ``repro.obs.rollup.read_frames_jsonl``); only their
    ``time`` and ``queue_wait_p95`` fields are read, and frames before
    the sketch has samples (p95 still zero) count as good.
    """
    cfg = config or BurnRateConfig()
    budget = max(1.0 - cfg.objective, 1e-9)
    bad = [
        1 if float(f.get("queue_wait_p95", 0.0)) > cfg.slo_wait_seconds else 0
        for f in frames
    ]
    for i in range(len(frames)):
        if i + 1 < cfg.fast_frames:
            continue
        fast = sum(bad[i + 1 - cfg.fast_frames: i + 1]) / cfg.fast_frames
        slow_n = min(i + 1, cfg.slow_frames)
        slow = sum(bad[i + 1 - slow_n: i + 1]) / slow_n
        fast_rate = fast / budget
        slow_rate = slow / budget
        if fast_rate >= cfg.fast_burn and slow_rate >= cfg.slow_burn:
            return [Alert(
                kind="slo_burn_rate",
                severity="critical",
                ts=float(frames[i].get("time", float(i))),
                track="fleet",
                value=fast_rate,
                threshold=cfg.fast_burn,
                message=(
                    f"queue-wait SLO burning {fast_rate:.1f}x budget over "
                    f"the last {cfg.fast_frames} frames "
                    f"({slow_rate:.1f}x over {slow_n}; p95 bound "
                    f"{cfg.slo_wait_seconds:.0f}s, objective "
                    f"{cfg.objective:.0%})"
                ),
            )]
    return []


def write_alerts_jsonl(alerts: list[Alert], path) -> int:
    """One alert JSON line per raised alert."""
    n = 0
    with open(path, "w") as fh:
        for a in alerts:
            fh.write(json.dumps(a.to_dict(), sort_keys=True))
            fh.write("\n")
            n += 1
    return n
