"""Persistent job history: the record behind ``INFORMATION_SCHEMA.JOBS``.

Every submitted statement — SELECT or DML, succeeded, failed or cancelled —
is one :class:`JobRecord`, created by the job queue at submit and appended
to the platform's :class:`JobHistory`, a bounded ring buffer keyed by a
monotonically assigned ``job_id``. The record holds the lifecycle, the
error, the job's costs and the full span tree, and points at the
statement's ``QueryStats`` for the per-query numbers, so the timeline view
(``INFORMATION_SCHEMA.JOBS_TIMELINE``) and the trace exporters
(:mod:`repro.obs.export`) can be derived from history alone —
observability you can SELECT, long after the ``QueryResult`` is gone.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import NotFoundError
from repro.obs.trace import Span, layer_breakdown

if TYPE_CHECKING:
    from repro.engine.engine import QueryStats

#: Job lifecycle states (mirrors the BigQuery job lifecycle). BigQuery
#: reports one ``DONE`` state plus an error result; we disaggregate the
#: terminal state into SUCCEEDED / FAILED / CANCELLED so history queries
#: need no error-presence join.
PENDING = "PENDING"
RUNNING = "RUNNING"
SUCCEEDED = "SUCCEEDED"
FAILED = "FAILED"
CANCELLED = "CANCELLED"

#: States a job can never leave.
DONE_STATES = frozenset({SUCCEEDED, FAILED, CANCELLED})

#: Span-id floor for synthetic scheduler.task timeline rows (real span ids
#: are small monotonically assigned ints; this keeps the ranges disjoint).
_TASK_SPAN_BASE = 1_000_000


@dataclass
class JobRecord:
    """One submitted statement: the single holder of a job's lifecycle,
    error and cost facts. The queue's handle, this ring and every
    ``INFORMATION_SCHEMA`` job table read this object.

    The per-query numbers (bytes, rows, files, slot time, the pool's
    verdict) are not copied here: they are read from ``stats``, and a job
    with no result reads as a query that did nothing.
    """

    job_id: str
    principal: str  # "user:alice" — the str() of the Principal
    sql: str
    kind: str  # select / insertvalues / delete / ... (statement kind)
    engine: str
    state: str  # PENDING | RUNNING | SUCCEEDED | FAILED | CANCELLED
    error: str = ""
    # Stable machine-readable code for the terminal error ("" on success);
    # see repro.errors.error_code. Dashboards and abort budgets key off
    # this instead of parsing free-text error strings.
    error_code: str = ""
    # Multi-table transaction this statement ran inside ("" when none).
    transaction_id: str = ""
    # Lifecycle timestamps (sim-clock ms): creation_ms is stamped at
    # submit time by the job queue, start_ms at admission onto the slot
    # pool, end_ms at the terminal transition. queue_wait_ms is the
    # admission delay (start - creation) the serving benchmarks report.
    creation_ms: float = 0.0
    start_ms: float = 0.0
    end_ms: float = 0.0
    queue_wait_ms: float = 0.0
    # The succeeded statement's repro.engine.engine.QueryStats — the object
    # itself, shared with the QueryResult (and, for CTAS, with the inner
    # SELECT's record). None until the job succeeds.
    stats: QueryStats | None = None
    rows_produced: int = 0
    # Object-store traffic attributable to this job (metering delta).
    bytes_read: int = 0
    bytes_written: int = 0
    bytes_egressed: int = 0
    # Chaos/recovery accounting: transient-failure retries charged to this
    # job and whether any degraded (fallback) path served it. Held here, not
    # read from ``stats``: they exist for failed jobs too, and a CTAS shell
    # and its inner SELECT share one stats object but not these.
    retry_count: int = 0
    degraded: bool = False
    # Variance attribution (derived from the span tree): time parked in
    # retry backoff, object-store self-time (cold reads the cache missed),
    # and time inside spans a degraded fallback path served.
    backoff_ms: float = 0.0
    cold_read_ms: float = 0.0
    degraded_ms: float = 0.0
    # Self-time per layer over the job's span tree (empty if tracing off).
    layers_ms: dict[str, float] = field(default_factory=dict)
    trace: Span | None = None

    def __getattr__(self, name: str) -> Any:
        # Reached only for names the record does not hold: the per-query
        # numbers (bytes_scanned, slot_ms, task_timeline, cache_hit_ratio …).
        stats = self.__dict__.get("stats")
        if stats is None:
            # Imported here: the engine package imports repro.obs.
            from repro.engine.engine import QueryStats

            stats = QueryStats()
        return getattr(stats, name)

    @property
    def total_ms(self) -> float:
        """Modeled slot-limited latency for a success; sim wall time from
        admission to the end for a failed or cancelled job that started."""
        if self.stats is not None:
            return self.stats.elapsed_ms
        if self.done and self.start_ms:
            return max(0.0, self.end_ms - self.start_ms)
        return 0.0

    @property
    def succeeded(self) -> bool:
        return self.state == SUCCEEDED

    @property
    def done(self) -> bool:
        return self.state in DONE_STATES


def timeline_rows(record: JobRecord) -> list[tuple]:
    """Flatten a job's span tree into ``JOBS_TIMELINE`` rows.

    One row per span, depth-first in start order: (job_id, span_id,
    parent_span_id, name, layer, start_ms, duration_ms, self_ms, tags).
    The root's parent_span_id is 0; tags render as sorted ``k=v`` pairs so
    rows stay scalar and deterministic.

    After the span rows, every scheduler task attempt appends one synthetic
    ``scheduler.task`` row (layer ``scheduler``). Task times are *model*
    offsets within the job's elapsed_ms budget, not sim-clock timestamps,
    and their span ids live in a reserved high range so they never collide
    with real spans. These rows appear even when tracing was off — the
    scheduler always runs.
    """
    rows: list[tuple] = []
    if record.trace is not None:
        for span in record.trace.walk():
            tags = " ".join(f"{k}={v}" for k, v in sorted(span.tags.items()))
            rows.append(
                (
                    record.job_id,
                    span.span_id,
                    span.parent_id or 0,
                    span.name,
                    span.layer or "other",
                    span.start_ms,
                    span.duration_ms,
                    span.self_time_ms(),
                    tags,
                )
            )
    for i, run in enumerate(record.task_timeline):
        tags = " ".join(
            f"{k}={v}"
            for k, v in sorted(
                {
                    "slot": run.slot,
                    "task": run.task,
                    "stage": run.stage,
                    "slow_factor": f"{run.slow_factor:g}",
                    "speculative": run.speculative,
                    "winner": run.winner,
                    "cancelled": run.cancelled,
                }.items()
            )
        )
        rows.append(
            (
                record.job_id,
                _TASK_SPAN_BASE + i,
                0,
                "scheduler.task",
                "scheduler",
                run.start_ms,
                run.end_ms - run.start_ms,
                run.end_ms - run.start_ms,
                tags,
            )
        )
    return rows


class JobHistory:
    """A bounded, append-only ring buffer of job records.

    Owned by the platform (one history across all of its engines, like the
    project-scoped ``INFORMATION_SCHEMA.JOBS``). The ring bound keeps long
    benchmark runs from growing memory without limit; evicted jobs simply
    age out of the queryable window, oldest first.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError(f"history capacity must be positive (got {capacity})")
        self.capacity = capacity
        self._records: deque[JobRecord] = deque(maxlen=capacity)
        self._ids = itertools.count(1)

    def next_job_id(self) -> str:
        """Reserve the next job id (assigned before execution starts, so
        failed jobs burn an id too — matching real job-server behavior)."""
        return f"job_{next(self._ids):06d}"

    def record(self, record: JobRecord) -> JobRecord:
        self._records.append(record)
        return record

    def jobs(self) -> list[JobRecord]:
        """All retained records, oldest first."""
        return list(self._records)

    def get(self, job_id: str) -> JobRecord:
        for record in self._records:
            if record.job_id == job_id:
                return record
        raise NotFoundError(f"job {job_id!r} not in history (evicted or never ran)")

    def has(self, job_id: str) -> bool:
        return any(r.job_id == job_id for r in self._records)

    @property
    def last(self) -> JobRecord | None:
        return self._records[-1] if self._records else None

    def for_principal(self, principal: str) -> list[JobRecord]:
        return [r for r in self._records if r.principal == principal]

    def __len__(self) -> int:
        return len(self._records)


def record_from_trace(record: JobRecord) -> JobRecord:
    """Fill the per-layer breakdown and variance attribution from the
    record's own span tree."""
    if record.trace is not None:
        record.layers_ms = {
            layer: round(ms, 6) for layer, ms in layer_breakdown(record.trace).items()
        }
        backoff = 0.0
        degraded = 0.0
        for span in record.trace.walk():
            if span.name == "retry.backoff":
                backoff += span.duration_ms
            if "degraded" in span.tags:
                degraded += span.duration_ms
        record.backoff_ms = round(backoff, 6)
        record.degraded_ms = round(degraded, 6)
        record.cold_read_ms = record.layers_ms.get("objectstore", 0.0)
    return record


def job_summary(record: JobRecord) -> dict[str, Any]:
    """A compact dict view (used by the CLI and benchmarks)."""
    return {
        "job_id": record.job_id,
        "user": record.principal,
        "state": record.state,
        "kind": record.kind,
        "total_ms": round(record.total_ms, 3),
        "queue_wait_ms": round(record.queue_wait_ms, 3),
        "bytes_scanned": record.bytes_scanned,
        "layers_ms": dict(record.layers_ms),
    }
