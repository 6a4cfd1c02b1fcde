"""Causal per-job lifecycle tracing for the fleet engine.

PR 3's span tracer answers "what ran on node N when"; it cannot answer
"why did job J wait 40 s" because nothing links a job's arrival,
admission verdict, placement decision, dispatch attempts, crashes,
requeues, and terminal outcome into one causal chain. This module adds
that chain:

* :class:`TraceContext` — a deterministic per-job identity. The trace
  id is a keyed BLAKE2b digest of the job id salted with the run seed
  (no wall clock, no global RNG — statcheck-clean), so reruns of a
  seeded simulation produce byte-identical ids.
* :class:`LifecycleTracer` — builds one span tree per job. Span ids
  come from a seeded monotonic counter; every span names its parent,
  and the tree is serialized to a JSONL lifecycle log (sorted keys)
  the moment the job reaches a terminal state (completed / failed /
  cancelled / rejected) and evicted from memory — **constant
  memory**: only in-flight jobs are resident, regardless of arrival
  count.
* :func:`lifecycle_chrome_trace` — converts lifecycle records into the
  same Chrome ``trace_event`` JSON the PR 3 exporter emits, one thread
  per node plus a ``jobs`` overview track, so Perfetto renders the
  causal view next to the window timeline.

Record schema (one JSON object per terminal job)::

    {"trace_id": ..., "job_id": ..., "benchmark": ..., "outcome":
     "completed" | "failed" | "cancelled" | "rejected", "submit": t,
     "end": t, "wait": s, "attempts": n, "spans": [{"span_id", "parent_id",
     "name", "start", "end", "args"}...], "events": [{"name", "ts",
     "span_id", "args"}...]}

The root span is named ``job`` and covers submit → terminal; each
dispatch attempt contributes a ``queued`` span (time spent waiting for
that attempt) and an ``execute`` span (the co-run on the node),
both children of the root.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = [
    "TraceContext",
    "LifecycleHooks",
    "LifecycleTracer",
    "trace_id_for",
    "read_lifecycle_jsonl",
    "lifecycle_chrome_trace",
    "summarize_lifecycle",
]


def trace_id_for(job_id: str, seed: int = 0) -> str:
    """Deterministic 16-hex-char trace id for a job under a run seed."""
    digest = hashlib.blake2b(
        str(job_id).encode("utf-8"),
        digest_size=8,
        key=str(int(seed)).encode("utf-8"),
    )
    return digest.hexdigest()


@dataclass(frozen=True)
class TraceContext:
    """The causal identity threaded through a job's lifecycle."""

    trace_id: str
    job_id: str
    benchmark: str

    @classmethod
    def for_job(cls, job, seed: int = 0) -> "TraceContext":
        return cls(
            trace_id=trace_id_for(job.job_id, seed),
            job_id=job.job_id,
            benchmark=job.benchmark_name,
        )


class LifecycleHooks:
    """The per-job hooks :class:`~repro.cluster.fleet.FleetEngine` calls
    on its ``lifecycle=`` observer, in lifecycle order. Each is a no-op
    here; an observer overrides the ones it needs."""

    def arrival(self, job, t: float, admitted: bool) -> None: ...

    def placed(
        self, job, t: float, node_index: int, node_name: str, info: dict | None = None
    ) -> None: ...

    def attempt(
        self, job, start: float, finish: float, node_name: str, policy: str,
        fell_back: bool, crashed: bool, window_size: int, window_seen: bool,
        cache_hits: int | None = None,
    ) -> None: ...

    def requeued(self, job, t: float) -> None: ...

    def completed(self, job, t: float, wait: float) -> None: ...

    def failed(self, job, t: float) -> None: ...

    def cancelled(self, job, t: float) -> None: ...


class LifecycleTracer(LifecycleHooks):
    """One causally-linked span tree per job, streamed to JSONL.

    Hooks are called by :class:`~repro.cluster.fleet.FleetEngine` when a
    lifecycle tracer is attached; they are pure observers (no RNG, no
    clock reads) so traced and untraced runs stay schedule-identical.
    """

    def __init__(
        self,
        seed: int = 0,
        path: str | None = None,
        retain: bool | None = None,
    ):
        self.seed = int(seed)
        self.path = path
        self._file = None
        if path is not None:
            directory = os.path.dirname(path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._file = open(path, "w", encoding="utf-8")
        # retain defaults on only when nothing is being streamed out
        self.retain = (path is None) if retain is None else bool(retain)
        self.records: list[dict] = []
        self.finished = 0
        self.outcomes: dict[str, int] = {"completed": 0, "failed": 0, "rejected": 0}
        # span ids: seeded monotonic counter — unique, reproducible
        self._span_seq = self.seed * 0x100000
        self._open: dict[str, dict] = {}

    # ------------------------------------------------------------------
    def _next_span_id(self) -> str:
        self._span_seq += 1
        return f"s{self._span_seq:010x}"

    def _begin(self, job, t: float) -> dict:
        context = TraceContext.for_job(job, self.seed)
        record = {
            "trace_id": context.trace_id,
            "job_id": context.job_id,
            "benchmark": context.benchmark,
            "submit": t,
            "attempts": 0,
            "root": self._next_span_id(),
            "queued_since": t,
            "spans": [],
            "events": [],
        }
        self._open[context.job_id] = record
        return record

    def _event(self, record: dict, name: str, ts: float, **args) -> None:
        record["events"].append(
            {"name": name, "ts": ts, "span_id": record["root"], "args": args}
        )

    def _span(
        self, record: dict, name: str, start: float, end: float, **args
    ) -> dict:
        span = {
            "span_id": self._next_span_id(),
            "parent_id": record["root"],
            "name": name,
            "start": start,
            "end": end,
            "args": args,
        }
        record["spans"].append(span)
        return span

    # ------------------------------------------------------------------
    # engine hooks, in lifecycle order
    # ------------------------------------------------------------------
    def arrival(self, job, t: float, admitted: bool) -> None:
        record = self._begin(job, t)
        self._event(record, "arrival", t, admitted=admitted)
        if not admitted:
            self._finalize(record, "rejected", t)

    def placed(
        self, job, t: float, node_index: int, node_name: str, info: dict | None = None
    ) -> None:
        record = self._open.get(job.job_id)
        if record is None:  # pragma: no cover - defensive
            return
        args = {"node": node_name, "node_index": int(node_index)}
        if info:
            args.update(info)
        self._event(record, "placed", t, **args)

    def attempt(
        self,
        job,
        start: float,
        finish: float,
        node_name: str,
        policy: str,
        fell_back: bool,
        crashed: bool,
        window_size: int,
        window_seen: bool,
        cache_hits: int | None = None,
    ) -> None:
        """One dispatch attempt: a ``queued`` span then an ``execute``
        span; ``window_seen``/``cache_hits`` carry the decision-cache
        provenance (signature previously dispatched; round-level hit
        delta in the fleet-wide :class:`DecisionCache`)."""
        record = self._open.get(job.job_id)
        if record is None:  # pragma: no cover - defensive
            return
        record["attempts"] += 1
        queued_since = record.pop("queued_since", start)
        self._span(record, "queued", queued_since, start)
        args = {
            "node": node_name,
            "policy": policy,
            "fell_back": fell_back,
            "crashed": crashed,
            "window_size": int(window_size),
            "window_seen": window_seen,
        }
        if cache_hits is not None:
            args["round_cache_hits"] = int(cache_hits)
        self._span(record, "execute", start, finish, **args)
        if crashed:
            self._event(record, "crash", finish)

    def requeued(self, job, t: float) -> None:
        record = self._open.get(job.job_id)
        if record is None:  # pragma: no cover - defensive
            return
        self._event(record, "requeue", t)
        record["queued_since"] = t

    def completed(self, job, t: float, wait: float) -> None:
        record = self._open.get(job.job_id)
        if record is None:  # pragma: no cover - defensive
            return
        record["wait"] = wait
        self._finalize(record, "completed", t)

    def failed(self, job, t: float) -> None:
        record = self._open.get(job.job_id)
        if record is None:  # pragma: no cover - defensive
            return
        self._finalize(record, "failed", t)

    def cancelled(self, job, t: float) -> None:
        record = self._open.get(job.job_id)
        if record is None:  # pragma: no cover - defensive
            return
        self._finalize(record, "cancelled", t)

    # ------------------------------------------------------------------
    def _finalize(self, record: dict, outcome: str, end: float) -> None:
        record.pop("queued_since", None)
        root_id = record.pop("root")
        record["outcome"] = outcome
        record["end"] = end
        record["spans"].insert(
            0,
            {
                "span_id": root_id,
                "parent_id": None,
                "name": "job",
                "start": record["submit"],
                "end": end,
                "args": {"benchmark": record["benchmark"], "outcome": outcome},
            },
        )
        self._open.pop(record["job_id"], None)
        self.finished += 1
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        if self._file is not None:
            self._file.write(
                json.dumps(record, sort_keys=True, separators=(",", ":"))
                + "\n"
            )
        if self.retain:
            self.records.append(record)

    @property
    def open_jobs(self) -> int:
        """Jobs still in flight (should be 0 after a drained run)."""
        return len(self._open)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "LifecycleTracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# readers / converters (zero-fill on missing or empty artifacts)
# ----------------------------------------------------------------------
def read_lifecycle_jsonl(path: str) -> list[dict]:
    """Load lifecycle records; missing file or blank lines -> zero-fill
    (an empty list), never an exception for an absent artifact."""
    if not os.path.exists(path):
        return []
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            records.append(json.loads(line))
    return records


def summarize_lifecycle(records: list[dict]) -> dict:
    """Outcome counts, attempt totals, and wait moments over records."""
    outcomes: dict[str, int] = {}
    attempts = 0
    waits: list[float] = []
    for record in records:
        outcome = str(record.get("outcome", "unknown"))
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        attempts += int(record.get("attempts", 0))
        if "wait" in record:
            waits.append(float(record["wait"]))
    return {
        "jobs": len(records),
        "outcomes": {k: outcomes[k] for k in sorted(outcomes)},
        "attempts": attempts,
        "mean_wait": sum(waits) / len(waits) if waits else 0.0,
        "max_wait": max(waits) if waits else 0.0,
    }


def lifecycle_chrome_trace(records: list[dict]) -> dict:
    """Chrome ``trace_event`` JSON from lifecycle records.

    Thread 0 is the ``jobs`` overview (root spans); each node observed
    in ``execute`` spans gets its own thread, in sorted-name order.
    Times are simulated seconds scaled to microseconds, matching the
    PR 3 exporter. Tolerates an empty record list (valid empty trace).
    """
    nodes = sorted(
        {
            str(span["args"].get("node", ""))
            for record in records
            for span in record.get("spans", ())
            if span.get("name") == "execute"
        }
        - {""}
    )
    tid_of = {name: i + 1 for i, name in enumerate(nodes)}
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "repro-fleet-lifecycle"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "jobs"},
        },
    ]
    for name in nodes:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid_of[name],
                "args": {"name": name},
            }
        )

    def _us(t: float) -> float:
        return float(t) * 1e6

    for record in records:
        base_args = {
            "trace_id": record.get("trace_id"),
            "job_id": record.get("job_id"),
        }
        for span in record.get("spans", ()):
            if span.get("name") == "job":
                tid = 0
                label = f"job {record.get('benchmark', '?')}"
            elif span.get("name") == "execute":
                tid = tid_of.get(str(span["args"].get("node", "")), 0)
                label = f"execute {record.get('benchmark', '?')}"
            else:
                continue  # queued spans clutter the flame view
            args = dict(base_args)
            args.update(
                {"span_id": span.get("span_id"), "parent_id": span.get("parent_id")}
            )
            args.update(span.get("args", {}))
            events.append(
                {
                    "name": label,
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "ts": _us(span["start"]),
                    "dur": _us(span["end"]) - _us(span["start"]),
                    "cat": "lifecycle",
                    "args": args,
                }
            )
        for event in record.get("events", ()):
            events.append(
                {
                    "name": str(event.get("name", "event")),
                    "ph": "i",
                    "pid": 1,
                    "tid": 0,
                    "ts": _us(float(event.get("ts", 0.0))),
                    "s": "t",
                    "cat": "lifecycle",
                    "args": dict(base_args, **event.get("args", {})),
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _validate_record(record: dict) -> None:
    """Raise when a record is not one closed causal tree (test helper)."""
    spans = record.get("spans", [])
    if not spans:
        raise ConfigurationError(f"record {record.get('job_id')} has no spans")
    ids = {span["span_id"] for span in spans}
    if len(ids) != len(spans):
        raise ConfigurationError("duplicate span ids in record")
    roots = [span for span in spans if span["parent_id"] is None]
    if len(roots) != 1 or roots[0]["name"] != "job":
        raise ConfigurationError("record must have exactly one root 'job' span")
    for span in spans:
        parent = span["parent_id"]
        if parent is not None and parent not in ids:
            raise ConfigurationError(f"span {span['span_id']} orphaned")
