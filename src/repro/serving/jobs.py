"""BigQuery-style async jobs API over the shared slot pool.

The query entry point is asynchronous, the way BigQuery's control plane
works, and every queued statement is scheduled on one shared pool:

* :meth:`JobQueue.submit` (``jobs.insert``-shaped) parses + validates the
  statement, reserves a job id, stamps ``creation_time``, and records a
  ``PENDING`` :class:`~repro.obs.history.JobRecord` — the job is in
  ``INFORMATION_SCHEMA.JOBS`` *before* it runs.
* :meth:`QueryJob.wait` (``getQueryResults``-shaped) drains the queue:
  every pending job is admitted onto one shared
  :class:`~repro.serving.pool.SlotPool` (admission control, fair-share
  across principals, FIFO within), transitions ``PENDING → RUNNING →
  SUCCEEDED/FAILED/CANCELLED``, and lands its verdict in history with
  real ``creation/start/end`` timestamps and ``queue_wait_ms``.
* ``QueryEngine.execute()`` survives as a thin ``submit()+wait()``
  wrapper, so the blocking API is a special case of the async one —
  single code path, no behavior change for existing callers.

Determinism: submission order fixes admission order per seat, the *real*
work of each job (actual scanning, actual fault probes) happens serially
in admission order, and the pool interleaves only *model* time — so a
seeded many-principal run replays byte-identically, chaos plans included.

Statements submitted while a drain (or an inline nested execution) is in
progress — e.g. the SELECT inside a CTAS — execute inline: each runs alone,
as a one-job batch on a private pool
(:meth:`~repro.engine.engine.QueryStats.finalize`), and the enclosing job
passes through the shared pool as opaque seat occupancy.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import AnalysisError, JobCancelledError, QueryError, error_code
from repro.obs.history import (
    CANCELLED,
    DONE_STATES,
    FAILED,
    PENDING,
    RUNNING,
    SUCCEEDED,
    JobRecord,
    record_from_trace,
)
from repro.serving.pool import (
    JobVerdict,
    PoolArrival,
    PoolExecution,
    PoolOpaque,
    SlotPool,
)
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse_statement

if TYPE_CHECKING:
    from repro.engine.engine import QueryEngine, QueryResult
    from repro.security.iam import Principal


@dataclass
class ServingConfig:
    """Concurrency policy for the platform's shared slot pool."""

    # Admission control: jobs concurrently drawing from the slot pool.
    max_concurrent_jobs: int = 8
    # Inter-stage overlap: a stage's tasks become runnable as soon as
    # their input partitions land. Off by default, so a queued job alone on
    # the pool gets the verdict it would get inline; the serve driver turns
    # it on.
    inter_stage_overlap: bool = False
    # Reservation weights per principal ("user:alice" form); a principal
    # with weight 2 gets twice the slot share of weight 1 under contention.
    weights: dict[str, float] = field(default_factory=dict)


class _WeakAttr:
    """An attribute that does not keep its value alive. Ownership points
    down — platform → queue → jobs, platform → engines — so a job's way back
    to its queue and engine, and the queue's to its default engine, are weak:
    a dropped deployment is then freed by refcount, not by a gen-2 collection.
    Reads as ``None`` once unset or once the referent is gone."""

    def __set_name__(self, owner, name: str) -> None:
        self._slot = f"_{name}_ref"

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        ref = getattr(obj, self._slot, None)
        return None if ref is None else ref()

    def __set__(self, obj, value) -> None:
        # setattr, not obj.__dict__[...]: touching __dict__ materializes the
        # instance dict and de-optimizes every other attribute of a job on
        # the serving hot path (4 % of a dashboard refresh, measured).
        setattr(obj, self._slot, None if value is None else weakref.ref(value))


class QueryJob:
    """Handle to one submitted statement (``jobs.insert`` resource). A handle
    only: it does not keep the queue or engine it was submitted to alive."""

    queue = _WeakAttr()
    engine = _WeakAttr()

    def __init__(
        self,
        queue: "JobQueue",
        engine: "QueryEngine",
        principal: "Principal",
        job_id: str,
        creation_ms: float,
        sql: str,
        snapshot_ms: float | None = None,
        use_query_cache: bool = False,
        cache_sql: str | None = None,
    ) -> None:
        self.queue = queue
        self.engine = engine
        self.principal = principal
        self.job_id = job_id
        self.creation_ms = creation_ms
        self.sql = sql
        self.snapshot_ms = snapshot_ms
        # Result-cache opt-in plus the cache key text: the original SQL
        # string, or None when the caller submitted an AST (an AST has no
        # stable text to key on, so those statements never hit the caches).
        self.use_query_cache = use_query_cache
        self.cache_sql = cache_sql
        self.kind = "invalid"
        # Multi-table transaction this statement runs inside ("" if none);
        # stamped from the queue's current_transaction_id at submit.
        self.transaction_id = ""
        # The parsed statement, or None for a SELECT whose text the query
        # cache already knows: that one is parsed at execution, and only if
        # a cache tier misses.
        self.statement: ast.Statement | None = None
        self.record: JobRecord | None = None
        self.state = PENDING
        self.start_ms = 0.0
        self.end_ms = 0.0
        self.queue_wait_ms = 0.0
        self._result: "QueryResult | None" = None
        self._error: BaseException | None = None

    # -- lifecycle ----------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.state in DONE_STATES

    def wait(self) -> "QueryResult":
        """Block (in sim terms: drain the queue) until this job reaches a
        terminal state; return its result or re-raise its error."""
        if not self.done:
            self.queue.drain()
        if self.state == CANCELLED:
            raise JobCancelledError(f"job {self.job_id or '<unnamed>'} was cancelled")
        if self._error is not None:
            raise self._error
        if self._result is None:
            raise QueryError(f"job {self.job_id or '<unnamed>'} produced no result")
        return self._result

    def result(self) -> "QueryResult":
        """Alias for :meth:`wait` (concurrent.futures spelling)."""
        return self.wait()

    def cancel(self) -> bool:
        """Request cancellation. Queued jobs are dropped before admission;
        running jobs have their remaining work descheduled at current model
        time. Returns False once the job is already terminal."""
        return self.queue._cancel(self)

    def to_api_resource(self) -> dict[str, Any]:
        """The ``jobs.get``-shaped JSON view of this job."""
        out: dict[str, Any] = {
            "jobReference": {"jobId": self.job_id},
            "user_email": str(self.principal),
            "configuration": {"query": {"query": self.sql}},
            "statistics": {
                "creationTime": round(self.creation_ms, 6),
                "startTime": round(self.start_ms, 6),
                "endTime": round(self.end_ms, 6),
                "queueWaitMs": round(self.queue_wait_ms, 6),
            },
            "status": {"state": self.state},
        }
        if self._error is not None:
            out["status"]["errorResult"] = {"message": str(self._error)}
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"QueryJob({self.job_id or '<unnamed>'}, {self.state})"


class JobQueue:
    """The admission-control queue feeding one platform's slot pool."""

    default_engine = _WeakAttr()

    def __init__(
        self,
        history=None,
        config: ServingConfig | None = None,
        default_engine: "QueryEngine | None" = None,
    ) -> None:
        self.history = history
        self.config = config or ServingConfig()
        self.default_engine = default_engine
        # repro.obs.monitor.FleetMonitor (set by the platform); a pure
        # reader that scrapes metrics on submit/drain ticks and derives
        # RESERVATION_TIMELINE + SLO samples from settled batches.
        self.monitor = None
        # Set by repro.txn.Transaction.execute around statements it runs,
        # so their JOBS rows carry the transaction id.
        self.current_transaction_id = ""
        self._pending: list[QueryJob] = []
        self._jobs_by_id: dict[str, QueryJob] = {}
        self._depth = 0  # >0 while executing (drain or inline): nested
        # submits run inline, alone.
        self._active_pool: SlotPool | None = None
        self._active_keys: dict[int, QueryJob] = {}
        self._on_admit_hooks: list[Any] = []

    # -- submission ---------------------------------------------------------

    def on_admit(self, hook) -> None:
        """Register ``hook(job)`` to fire when a job is admitted onto the
        pool, before its real work runs — the deterministic seam tests use
        to cancel a queued or running job mid-batch."""
        self._on_admit_hooks.append(hook)

    def submit(
        self,
        sql_or_select: "str | ast.Statement",
        principal: "Principal",
        *,
        engine: "QueryEngine | None" = None,
        snapshot_ms: float | None = None,
        use_query_cache: bool = False,
    ) -> QueryJob:
        """``jobs.insert``: parse + validate, reserve a job id, record a
        PENDING job. Validation failures record a FAILED job and raise
        immediately (they never occupy the pool). A text the engine's query
        cache already knows is not parsed here (see ``QueryJob.statement``)."""
        engine = engine or self.default_engine
        if engine is None:
            raise QueryError("JobQueue has no engine to run statements on")
        sql_text = sql_or_select if isinstance(sql_or_select, str) else (
            f"<{type(sql_or_select).__name__} AST>"
        )
        job_id = self.history.next_job_id() if self.history is not None else ""
        creation_ms = engine.ctx.clock.now_ms
        job = QueryJob(
            queue=self, engine=engine, principal=principal, job_id=job_id,
            creation_ms=creation_ms, sql=sql_text, snapshot_ms=snapshot_ms,
            use_query_cache=use_query_cache,
            cache_sql=sql_or_select if isinstance(sql_or_select, str) else None,
        )
        job.transaction_id = self.current_transaction_id
        try:
            cache = engine.query_cache
            if job.cache_sql is not None and cache is not None and cache.knows(
                job.cache_sql, engine
            ):
                # A text the query cache has planned before is a SELECT by
                # construction: leave it unparsed until a cache tier misses.
                statement = None
                job.kind = "select"
            else:
                statement = (
                    parse_statement(sql_or_select)
                    if isinstance(sql_or_select, str)
                    else sql_or_select
                )
                job.kind = type(statement).__name__.lower()
            if job.kind != "select":
                if use_query_cache:
                    raise AnalysisError(
                        "use_query_cache applies to SELECT statements only"
                    )
                if snapshot_ms is not None:
                    raise AnalysisError(
                        "snapshot_ms applies to SELECT statements only"
                    )
                if engine.dml_handler is None:
                    raise QueryError(
                        f"{type(statement).__name__} requires a DML handler "
                        "(wire the engine through a table manager)"
                    )
        except Exception as exc:
            job.state = FAILED
            job._error = exc
            job.start_ms = job.end_ms = creation_ms
            self._record_terminal(job, error=str(exc), exc=exc)
            raise
        job.statement = statement
        job.record = self._record_pending(job)
        self._register(job)
        if self.monitor is not None and not self._depth:
            # Clock moved since the last scrape opportunity; catch the
            # metrics-history grid up (read-only, observer-effect zero).
            self.monitor.tick(engine.ctx.clock.now_ms)
        if self._depth:
            self._run_inline(job)
        else:
            self._pending.append(job)
        return job

    def get(self, job_id: str) -> QueryJob:
        """Look up a submitted job by id (``jobs.get``)."""
        try:
            return self._jobs_by_id[job_id]
        except KeyError:
            from repro.errors import NotFoundError

            raise NotFoundError(f"job {job_id!r} not known to the queue") from None

    def _register(self, job: QueryJob) -> None:
        if not job.job_id:
            return
        self._jobs_by_id[job.job_id] = job
        # Bound the lookup map the way history bounds its ring.
        cap = self.history.capacity if self.history is not None else 256
        while len(self._jobs_by_id) > cap:
            self._jobs_by_id.pop(next(iter(self._jobs_by_id)))

    # -- cancellation -------------------------------------------------------

    def _cancel(self, job: QueryJob) -> bool:
        if job.done:
            return False
        if job in self._pending:
            self._pending.remove(job)
            job.state = CANCELLED
            job.end_ms = job.engine.ctx.clock.now_ms
            self._finish_cancelled(job, end_abs=job.end_ms)
            return True
        if self._active_pool is not None:
            for key, active in self._active_keys.items():
                if active is job:
                    return self._active_pool.cancel(key)
        return False

    # -- drain: the shared-pool batch ---------------------------------------

    def drain(self) -> None:
        """Run every pending job to a terminal state over the shared pool."""
        if self._depth:
            raise QueryError("JobQueue.drain() re-entered during execution")
        while self._pending:
            batch, self._pending = self._pending, []
            # One pool per engine: slots are an engine resource. Groups
            # run in first-submission order, deterministically.
            groups: dict[Any, list[QueryJob]] = {}
            for job in batch:
                groups.setdefault(job.engine, []).append(job)
            for engine, jobs in groups.items():
                self._drain_engine(engine, jobs)

    def _drain_engine(self, engine: "QueryEngine", jobs: list[QueryJob]) -> None:
        anchor = jobs[0].creation_ms
        arrivals = [
            PoolArrival(
                key=i, principal=str(job.principal),
                arrival_ms=job.creation_ms - anchor,
            )
            for i, job in enumerate(jobs)
        ]
        pool = SlotPool(
            slots=engine.slots,
            max_concurrent_jobs=self.config.max_concurrent_jobs,
            inter_stage_overlap=self.config.inter_stage_overlap,
            weights=self.config.weights,
        )
        outcomes: dict[int, dict[str, Any]] = {}
        self._active_pool = pool
        self._active_keys = {i: job for i, job in enumerate(jobs)}
        self._depth += 1
        try:
            verdicts = pool.run(
                arrivals,
                lambda key, admitted_ms: self._execute_for_pool(
                    jobs[key], anchor, admitted_ms, outcomes, key
                ),
                on_admit=self._fire_admit_hooks,
            )
        finally:
            self._depth -= 1
            self._active_pool = None
            self._active_keys = {}
        for key, job in enumerate(jobs):
            self._settle(job, anchor, verdicts.get(key), outcomes.get(key))
        if self.monitor is not None and getattr(self.monitor, "enabled", False):
            entries = []
            for key in sorted(verdicts):
                outcome = outcomes.get(key, {})
                entries.append(
                    {
                        "principal": str(jobs[key].principal),
                        "verdict": verdicts[key],
                        "retried": outcome.get("retry_count", 0) > 0,
                        "degraded": bool(outcome.get("degraded", False)),
                        "cache_bypass": outcome.get("cache_bypass", 0.0) > 0,
                    }
                )
            self.monitor.observe_batch(
                anchor, entries, slots=engine.slots, weights=self.config.weights
            )
            self.monitor.tick(engine.ctx.clock.now_ms)

    def _fire_admit_hooks(self, key: int, admitted_ms: float) -> None:
        job = self._active_keys[key]
        for hook in self._on_admit_hooks:
            hook(job)

    @staticmethod
    def _cache_bypass_total(ctx) -> float:
        """Current cache-bypass count (pure metric read; 0.0 if untracked)."""
        metrics = getattr(ctx, "metrics", None)
        if metrics is None or not metrics.has("repro_cache_bypass_total"):
            return 0.0
        return metrics.get("repro_cache_bypass_total").total()

    def _run_statement(self, job: QueryJob, start_ms: float) -> dict[str, Any]:
        """Mark the job RUNNING from ``start_ms`` and run its *real* work on
        the sim clock, under its audit job id. The outcome holds ``result``
        (or ``error`` and its ``trace``) plus what the statement cost:
        retries, degradation, cache bypasses, the metering baseline."""
        engine = job.engine
        ctx = engine.ctx
        job.state = RUNNING
        job.start_ms = start_ms
        job.queue_wait_ms = start_ms - job.creation_ms
        if job.record is not None:
            job.record.state = RUNNING
            job.record.start_ms = job.start_ms
            job.record.queue_wait_ms = job.queue_wait_ms
        counts = ctx.metering.op_counts
        outcome: dict[str, Any] = {
            "metering_before": (
                ctx.metering.snapshot() if self.history is not None else None
            ),
        }
        retries_before = counts.get("repro.retry", 0)
        degraded_before = counts.get("repro.degraded", 0)
        bypass_before = self._cache_bypass_total(ctx)
        audit = getattr(engine.read_api, "audit", None)
        prev_job_id = audit.current_job_id if audit is not None else ""
        if audit is not None:
            audit.current_job_id = job.job_id
        try:
            outcome["result"] = engine._execute_statement(
                job.statement, job.principal, job.kind, job.snapshot_ms,
                sql_text=job.cache_sql, use_query_cache=job.use_query_cache,
            )
        except Exception as exc:
            outcome["error"] = exc
            outcome["trace"] = engine._last_root if ctx.tracer.enabled else None
        finally:
            if audit is not None:
                audit.current_job_id = prev_job_id
        outcome["retry_count"] = counts.get("repro.retry", 0) - retries_before
        outcome["degraded"] = counts.get("repro.degraded", 0) > degraded_before
        outcome["cache_bypass"] = self._cache_bypass_total(ctx) - bypass_before
        return outcome

    def _execute_for_pool(
        self,
        job: QueryJob,
        anchor: float,
        admitted_ms: float,
        outcomes: dict[int, dict[str, Any]],
        key: int,
    ):
        """The pool's admission callback: run the job's *real* work on the
        sim clock, report its schedulable shape back in model time."""
        engine = job.engine
        ctx = engine.ctx
        clock_before = ctx.clock.now_ms
        outcome = outcomes[key] = self._run_statement(job, anchor + admitted_ms)
        if "error" in outcome:
            return PoolOpaque(ctx.clock.now_ms - clock_before, failed=True)
        if job.kind != "select":
            # DML shells: inner statements already ran as inline jobs (and
            # CTAS reuses the inner stats); model them as seat occupancy
            # for as long as their real work took.
            return PoolOpaque(ctx.clock.now_ms - clock_before)
        return outcome["result"].stats.pool_execution(
            engine.slots, ctx.costs.slot_startup_ms, engine.shuffle_partitions,
            ctx.faults, engine.speculation,
        )

    # -- terminal transitions -----------------------------------------------

    def _settle(
        self,
        job: QueryJob,
        anchor: float,
        verdict: JobVerdict | None,
        outcome: dict[str, Any] | None,
    ) -> None:
        if verdict is None:  # defensive: the pool verdicts every arrival
            return
        end_abs = anchor + verdict.end_ms
        if verdict.state == "cancelled":
            job.state = CANCELLED
            job.end_ms = end_abs
            if verdict.admitted:
                job.start_ms = anchor + verdict.admitted_ms
                job.queue_wait_ms = verdict.queue_wait_ms
            self._finish_cancelled(job, end_abs=end_abs)
            return
        if verdict.state == "done" and job.kind == "select":
            result = outcome["result"]
            result.stats.apply_verdict(verdict)
            job.engine._record_verdict(result.stats, result.sched_span)
        self._finish(job, outcome, end_abs)

    def _finish(self, job: QueryJob, outcome: dict[str, Any], end_ms: float) -> None:
        """Terminal transition of a job whose statement ran: FAILED with its
        error, or SUCCEEDED with the (already settled) result."""
        job.end_ms = end_ms
        costs = {
            key: outcome[key] for key in ("metering_before", "retry_count", "degraded")
        }
        if "error" in outcome:
            exc = outcome["error"]
            job.state = FAILED
            job._error = exc
            self._record_terminal(
                job, error=str(exc), exc=exc, trace=outcome["trace"], **costs
            )
            return
        result = outcome["result"]
        result.stats.retry_count = outcome["retry_count"]
        result.stats.degraded = outcome["degraded"]
        job.state = SUCCEEDED
        job._result = result
        self._observe_query_metrics(job, result)
        self._record_terminal(job, result=result, trace=result.trace, **costs)

    def _finish_cancelled(self, job: QueryJob, end_abs: float) -> None:
        job._error = None
        job._result = None
        engine = job.engine
        engine.ctx.metrics.counter(
            "repro_jobs_cancelled_total", "jobs cancelled before completion"
        ).inc(engine=engine.name)
        if job.record is not None:
            record = job.record
            record.state = CANCELLED
            record.error = "job cancelled"
            record.error_code = "CANCELLED"
            record.start_ms = job.start_ms
            record.end_ms = end_abs
            record.queue_wait_ms = job.queue_wait_ms
            record.total_ms = max(0.0, end_abs - record.start_ms) if job.start_ms else 0.0

    def _observe_query_metrics(self, job: QueryJob, result: "QueryResult") -> None:
        engine = job.engine
        metrics = engine.ctx.metrics
        metrics.counter("queries_total", "statements executed").inc(
            engine=engine.name, kind=job.kind
        )
        metrics.counter(
            "query_bytes_scanned_total", "bytes scanned on behalf of queries"
        ).inc(result.stats.bytes_scanned, engine=engine.name)
        metrics.histogram(
            "query_elapsed_ms", "modeled slot-limited query latency"
        ).observe(result.stats.elapsed_ms, engine=engine.name)
        metrics.histogram(
            "repro_job_queue_wait_ms", "admission-control queue wait per job"
        ).observe(job.queue_wait_ms, engine=engine.name)

    # -- inline (nested / blocking) execution --------------------------------

    def _run_inline(self, job: QueryJob) -> None:
        """Execute one job alone, now — used for statements submitted while
        a drain or another execution is already on the stack (CTAS /
        INSERT..SELECT inner queries). Sequential by construction: no
        queue wait, and the job ends where the sim clock stands."""
        engine = job.engine
        clock = engine.ctx.clock
        outcome = self._run_statement(job, clock.now_ms)
        if job.kind == "select" and "result" in outcome:
            result = outcome["result"]
            engine._settle_solo(result.stats, result.sched_span)
        self._finish(job, outcome, clock.now_ms)

    # -- history ------------------------------------------------------------

    def _record_pending(self, job: QueryJob) -> JobRecord | None:
        if self.history is None:
            return None
        record = JobRecord(
            job_id=job.job_id,
            principal=str(job.principal),
            sql=job.sql,
            kind=job.kind,
            engine=job.engine.name,
            state=PENDING,
            creation_ms=job.creation_ms,
            transaction_id=job.transaction_id,
        )
        return self.history.record(record)

    def _record_terminal(
        self,
        job: QueryJob,
        *,
        result: "QueryResult | None" = None,
        error: str = "",
        exc: BaseException | None = None,
        trace: Any | None = None,
        metering_before: Any | None = None,
        retry_count: int = 0,
        degraded: bool = False,
    ) -> None:
        if self.history is None:
            return
        ctx = job.engine.ctx
        delta = (
            ctx.metering.delta_since(metering_before)
            if metering_before is not None
            else None
        )
        stats = result.stats if result is not None else None
        record = job.record
        if record is None:
            # Validation failures land here before a PENDING record exists.
            record = JobRecord(
                job_id=job.job_id, principal=str(job.principal), sql=job.sql,
                kind=job.kind, engine=job.engine.name, state=job.state,
                creation_ms=job.creation_ms,
            )
            job.record = self.history.record(record)
        record.kind = job.kind
        record.state = job.state
        record.error = error
        record.error_code = error_code(exc)
        record.transaction_id = job.transaction_id
        record.start_ms = job.start_ms
        record.end_ms = job.end_ms
        record.queue_wait_ms = job.queue_wait_ms
        record.total_ms = (
            stats.elapsed_ms if stats is not None else job.end_ms - job.start_ms
        )
        record.slot_ms = stats.slot_ms if stats is not None else 0.0
        record.bytes_scanned = stats.bytes_scanned if stats is not None else 0
        record.rows_scanned = stats.rows_scanned if stats is not None else 0
        record.rows_produced = result.num_rows if result is not None else 0
        record.files_read = stats.files_read if stats is not None else 0
        record.files_total = stats.files_total if stats is not None else 0
        record.shuffle_partitions = stats.shuffle_partitions if stats is not None else 0
        record.compute_parallelism = (
            stats.compute_parallelism if stats is not None else 0
        )
        record.bytes_read = delta.bytes_read if delta is not None else 0
        record.bytes_written = delta.bytes_written if delta is not None else 0
        record.bytes_egressed = delta.total_egress() if delta is not None else 0
        record.retry_count = retry_count
        record.degraded = degraded
        record.cache_hit_bytes = stats.cache_hit_bytes if stats is not None else 0
        record.cache_hit_ratio = stats.cache_hit_ratio if stats is not None else 0.0
        record.cache_hit = stats.cache_hit if stats is not None else False
        record.task_skew = stats.task_skew if stats is not None else 1.0
        record.speculative_count = stats.speculative_count if stats is not None else 0
        record.task_timeline = list(stats.task_timeline) if stats is not None else []
        record.trace = trace
        record_from_trace(record)


class JobsApi:
    """``jobs.*``-shaped facade over the queue (the REST surface of §2)."""

    def __init__(self, queue: JobQueue) -> None:
        self.queue = queue

    def insert(
        self, sql: str, principal: "Principal", **kwargs: Any
    ) -> dict[str, Any]:
        """``jobs.insert``: submit and return the job resource."""
        job = self.queue.submit(sql, principal, **kwargs)
        return job.to_api_resource()

    def get(self, job_id: str) -> dict[str, Any]:
        """``jobs.get``: the current resource view of a submitted job."""
        return self.queue.get(job_id).to_api_resource()

    def cancel(self, job_id: str) -> dict[str, Any]:
        """``jobs.cancel``: request cancellation, return the resource."""
        job = self.queue.get(job_id)
        job.cancel()
        return job.to_api_resource()

    def get_query_results(self, job_id: str) -> dict[str, Any]:
        """``jobs.getQueryResults``: wait for the job and return rows."""
        job = self.queue.get(job_id)
        result = job.wait()
        return {
            "jobReference": {"jobId": job.job_id},
            "jobComplete": True,
            "schema": {
                "fields": [
                    {"name": f.name, "type": f.dtype.name}
                    for f in result.schema.fields
                ]
            },
            "totalRows": result.num_rows,
            "rows": result.rows(),
        }
