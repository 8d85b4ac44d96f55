"""Trace exporter: Chrome-trace JSON.

It works from the :class:`~repro.obs.trace.Span` tree a job retains in
history, so any job still in the ring buffer can be exported after the
fact and loaded in ``chrome://tracing`` / Perfetto. Timestamps are
simulated milliseconds converted to microseconds, so exports are
deterministic across runs like everything else in the simulation.

Beyond single jobs, :func:`serve_chrome_trace` exports a whole *serve
run* — every job still in history — onto one timeline with per-principal
lanes (one pid per principal, one tid per job), so a multi-principal
workload's queueing, overlap, and per-task slot occupancy are visible in
a single Perfetto load.
"""

from __future__ import annotations

import json
from typing import Any

from repro.obs.trace import Span


def _json_tag(value: Any) -> Any:
    """Tags may hold arbitrary objects; keep JSON-native values, stringify
    the rest."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


# --------------------------------------------------------------------------
# Chrome trace event format
# --------------------------------------------------------------------------


def chrome_trace(root: Span, *, process_name: str = "repro") -> dict[str, Any]:
    """The span tree as a Chrome trace-event document.

    Each span becomes one complete ("ph": "X") event; ``ts``/``dur`` are in
    microseconds per the format. Nesting is positional in the viewer (same
    pid/tid, containment by time range), which holds by construction: a
    child span's sim-time interval lies inside its parent's. ``span_id`` /
    ``parent_id`` ride along in ``args`` so the hierarchy survives
    round-tripping even outside the viewer.
    """
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "args": {"name": process_name},
        }
    ]
    for span in root.walk():
        args: dict[str, Any] = {k: _json_tag(v) for k, v in sorted(span.tags.items())}
        args["span_id"] = span.span_id
        args["parent_id"] = span.parent_id or 0
        args["self_ms"] = round(span.self_time_ms(), 6)
        events.append(
            {
                "name": span.name,
                "cat": span.layer or "other",
                "ph": "X",
                "ts": round(span.start_ms * 1000.0, 3),
                "dur": round(span.duration_ms * 1000.0, 3),
                "pid": 1,
                "tid": 1,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_trace_json(root: Span, *, process_name: str = "repro") -> str:
    return json.dumps(chrome_trace(root, process_name=process_name), indent=2)


# --------------------------------------------------------------------------
# Whole-serve-run exports (per-principal lanes)
# --------------------------------------------------------------------------


def serve_chrome_trace(
    records: list[Any], *, process_prefix: str = "repro serve"
) -> dict[str, Any]:
    """A whole serve run as one Chrome trace document.

    One *process* per principal (lanes group naturally in Perfetto), one
    *thread* per job. Each job contributes a ``queued`` event (creation →
    admission), a job event (admission → end) carrying the serving facts,
    and one event per scheduler task attempt (``task_timeline`` offsets
    are admission-relative, so they land inside the job event). History
    order is deterministic, hence so is the document.
    """
    done = [r for r in records if r.done]
    principals = sorted({r.principal for r in done})
    pid_of = {p: i + 1 for i, p in enumerate(principals)}
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid_of[p],
            "tid": 0,
            "args": {"name": f"{process_prefix}: {p}"},
        }
        for p in principals
    ]
    tids: dict[int, int] = {}
    for record in done:
        pid = pid_of[record.principal]
        tid = tids.get(pid, 0) + 1
        tids[pid] = tid
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": f"{record.job_id} ({record.kind})"},
            }
        )
        if record.start_ms > record.creation_ms:
            events.append(
                {
                    "name": "queued",
                    "cat": "serving",
                    "ph": "X",
                    "ts": round(record.creation_ms * 1000.0, 3),
                    "dur": round(
                        (record.start_ms - record.creation_ms) * 1000.0, 3
                    ),
                    "pid": pid,
                    "tid": tid,
                    "args": {"queue_wait_ms": round(record.queue_wait_ms, 6)},
                }
            )
        events.append(
            {
                "name": record.job_id,
                "cat": "serving",
                "ph": "X",
                "ts": round(record.start_ms * 1000.0, 3),
                "dur": round(max(record.end_ms - record.start_ms, 0.0) * 1000.0, 3),
                "pid": pid,
                "tid": tid,
                "args": {
                    "state": record.state,
                    "kind": record.kind,
                    "retry_count": record.retry_count,
                    "degraded": record.degraded,
                    "backoff_ms": round(record.backoff_ms, 6),
                    "cold_read_ms": round(record.cold_read_ms, 6),
                    "degraded_ms": round(record.degraded_ms, 6),
                    "task_skew": round(record.task_skew, 6),
                },
            }
        )
        for run in record.task_timeline:
            events.append(
                {
                    "name": f"{run.stage}[{run.task}]",
                    "cat": "scheduler",
                    "ph": "X",
                    "ts": round((record.start_ms + run.start_ms) * 1000.0, 3),
                    "dur": round((run.end_ms - run.start_ms) * 1000.0, 3),
                    "pid": pid,
                    "tid": tid,
                    "args": {
                        "slot": run.slot,
                        "speculative": run.speculative,
                        "winner": run.winner,
                        "cancelled": run.cancelled,
                        "slow_factor": round(run.slow_factor, 6),
                    },
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def serve_chrome_trace_json(
    records: list[Any], *, process_prefix: str = "repro serve"
) -> str:
    return json.dumps(
        serve_chrome_trace(records, process_prefix=process_prefix), indent=2
    )
