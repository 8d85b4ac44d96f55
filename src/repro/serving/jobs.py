"""BigQuery-style async jobs API over the shared slot pool.

The query entry point is asynchronous, the way BigQuery's control plane
works, and every queued statement is scheduled on one shared pool:

* :meth:`JobQueue.submit` (``jobs.insert``-shaped) reserves a job id and
  creates the job's one :class:`~repro.obs.history.JobRecord` — ``PENDING``,
  stamped with ``creation_time``, appended to the history ring — then
  parses + validates the statement: the job is in
  ``INFORMATION_SCHEMA.JOBS`` *before* it runs. The :class:`QueryJob` handle
  it returns reads its lifecycle from that record.
* :meth:`QueryJob.wait` (``getQueryResults``-shaped) drains the queue:
  every pending job is admitted onto one shared
  :class:`~repro.serving.pool.SlotPool` (admission control, fair-share
  across principals, FIFO within) and its record transitions ``PENDING →
  RUNNING → SUCCEEDED/FAILED/CANCELLED`` with real ``creation/start/end``
  timestamps and ``queue_wait_ms``, one assignment per transition.
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

from repro.errors import AnalysisError, JobCancelledError, NotFoundError, QueryError, error_code
from repro.obs.history import (
    CANCELLED,
    FAILED,
    PENDING,
    RUNNING,
    SUCCEEDED,
    JobRecord,
    record_from_trace,
)
from repro.serving.pool import JobVerdict, PoolArrival, PoolOpaque, SlotPool
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
    only: it does not keep the queue or engine it was submitted to alive, and
    it stores no lifecycle fact — ``job_id``, ``sql``, ``kind``, ``state``,
    the timestamps, ``queue_wait_ms`` and ``transaction_id`` are read from
    :attr:`record`, the same object the history ring and
    ``INFORMATION_SCHEMA.JOBS`` read."""

    queue = _WeakAttr()
    engine = _WeakAttr()

    def __init__(
        self,
        queue: "JobQueue",
        engine: "QueryEngine",
        principal: "Principal",
        record: JobRecord,
        snapshot_ms: float | None = None,
        use_query_cache: bool = False,
        cache_sql: str | None = None,
    ) -> None:
        self.record = record
        self.queue = queue
        self.engine = engine
        self.principal = principal
        self.snapshot_ms = snapshot_ms
        # Result-cache opt-in plus the cache key text: the original SQL
        # string, or None when the caller submitted an AST (an AST has no
        # stable text to key on, so those statements never hit the caches).
        self.use_query_cache = use_query_cache
        self.cache_sql = cache_sql
        # The parsed statement, or None for a SELECT whose text the query
        # cache already knows: that one is parsed at execution, and only if
        # a cache tier misses.
        self.statement: ast.Statement | None = None
        self._result: "QueryResult | None" = None
        self._error: BaseException | None = None

    def __getattr__(self, name: str) -> Any:
        # Reached only for names the handle does not hold.
        if name == "record":  # not constructed yet: nothing to read through
            raise AttributeError(name)
        return getattr(self.record, name)

    # -- lifecycle ----------------------------------------------------------

    def wait(self) -> "QueryResult":
        """Block (in sim terms: drain the queue) until this job reaches a
        terminal state; return its result or re-raise its error."""
        record = self.record
        if not record.done:
            self.queue.drain()
        if record.state == CANCELLED:
            raise JobCancelledError(
                f"job {record.job_id or '<unnamed>'} was cancelled"
            )
        if self._error is not None:
            raise self._error
        if self._result is None:
            raise QueryError(f"job {record.job_id or '<unnamed>'} produced no result")
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
        record = self.record
        out: dict[str, Any] = {
            "jobReference": {"jobId": record.job_id},
            "user_email": record.principal,
            "configuration": {"query": {"query": record.sql}},
            "statistics": {
                "creationTime": round(record.creation_ms, 6),
                "startTime": round(record.start_ms, 6),
                "endTime": round(record.end_ms, 6),
                "queueWaitMs": round(record.queue_wait_ms, 6),
            },
            "status": {"state": record.state},
        }
        if self._error is not None:
            out["status"]["errorResult"] = {"message": record.error}
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"QueryJob({self.job_id or '<unnamed>'}, {self.state})"


@dataclass
class _Run:
    """What one statement's real work produced and what it cost: the result
    or the error (with the span tree either way), retries, degradation,
    cache bypasses and the object-store traffic metered while it ran."""

    result: "QueryResult | None" = None
    error: BaseException | None = None
    trace: Any | None = None
    retry_count: int = 0
    degraded: bool = False
    cache_bypass: bool = False
    bytes_read: int = 0
    bytes_written: int = 0
    bytes_egressed: int = 0


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
        """``jobs.insert``: reserve a job id, create the job's record
        (PENDING, in the history ring), parse + validate. A validation failure
        turns that record FAILED and raises immediately (it never occupies
        the pool). A text the engine's query cache already knows is not
        parsed here (see ``QueryJob.statement``)."""
        engine = engine or self.default_engine
        if engine is None:
            raise QueryError("JobQueue has no engine to run statements on")
        sql_text = sql_or_select if isinstance(sql_or_select, str) else (
            f"<{type(sql_or_select).__name__} AST>"
        )
        creation_ms = engine.ctx.clock.now_ms
        record = JobRecord(
            job_id=self.history.next_job_id() if self.history is not None else "",
            principal=str(principal),
            sql=sql_text,
            kind="invalid",
            engine=engine.name,
            state=PENDING,
            creation_ms=creation_ms,
            transaction_id=self.current_transaction_id,
        )
        if self.history is not None:
            self.history.record(record)
        job = QueryJob(
            queue=self, engine=engine, principal=principal, record=record,
            snapshot_ms=snapshot_ms, use_query_cache=use_query_cache,
            cache_sql=sql_or_select if isinstance(sql_or_select, str) else None,
        )
        try:
            cache = engine.query_cache
            if job.cache_sql is not None and cache is not None and cache.knows(
                job.cache_sql, engine
            ):
                # A text the query cache has planned before is a SELECT by
                # construction: leave it unparsed until a cache tier misses.
                statement = None
                record.kind = "select"
            else:
                statement = (
                    parse_statement(sql_or_select)
                    if isinstance(sql_or_select, str)
                    else sql_or_select
                )
                record.kind = type(statement).__name__.lower()
            if record.kind != "select":
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
            # Never occupies the pool: it starts and ends where it was made.
            record.start_ms = creation_ms
            self._close(job, creation_ms, exc)
            raise
        job.statement = statement
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
        if job.record.done:
            return False
        if job in self._pending:
            self._pending.remove(job)
            self._finish_cancelled(job, job.engine.ctx.clock.now_ms)
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
        anchor = jobs[0].record.creation_ms
        arrivals = [
            PoolArrival(
                key=i, principal=job.record.principal,
                arrival_ms=job.record.creation_ms - anchor,
            )
            for i, job in enumerate(jobs)
        ]
        pool = SlotPool(
            slots=engine.slots,
            max_concurrent_jobs=self.config.max_concurrent_jobs,
            inter_stage_overlap=self.config.inter_stage_overlap,
            weights=self.config.weights,
        )
        runs: dict[int, _Run] = {}
        self._active_pool = pool
        self._active_keys = {i: job for i, job in enumerate(jobs)}
        self._depth += 1
        try:
            verdicts = pool.run(
                arrivals,
                lambda key, admitted_ms: self._execute_for_pool(
                    jobs[key], anchor, admitted_ms, runs, key
                ),
                on_admit=self._fire_admit_hooks,
            )
        finally:
            self._depth -= 1
            self._active_pool = None
            self._active_keys = {}
        for key, job in enumerate(jobs):
            self._settle(job, anchor, verdicts.get(key), runs.get(key))
        if self.monitor is not None and getattr(self.monitor, "enabled", False):
            never_ran = _Run()
            entries = []
            for key in sorted(verdicts):
                run = runs.get(key, never_ran)
                entries.append(
                    {
                        "principal": jobs[key].record.principal,
                        "verdict": verdicts[key],
                        "retried": run.retry_count > 0,
                        "degraded": run.degraded,
                        "cache_bypass": run.cache_bypass,
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

    def _run_statement(self, job: QueryJob, start_ms: float) -> _Run:
        """PENDING → RUNNING from ``start_ms``, then the job's *real* work on
        the sim clock, under its audit job id."""
        engine = job.engine
        ctx = engine.ctx
        record = job.record
        record.state = RUNNING
        record.start_ms = start_ms
        record.queue_wait_ms = start_ms - record.creation_ms
        metering = ctx.metering
        counts = metering.op_counts
        retries_before = counts.get("repro.retry", 0)
        degraded_before = counts.get("repro.degraded", 0)
        bypass_before = self._cache_bypass_total(ctx)
        read_before = metering.bytes_read
        written_before = metering.bytes_written
        egress_before = metering.total_egress()
        audit = getattr(engine.read_api, "audit", None)
        prev_job_id = audit.current_job_id if audit is not None else ""
        if audit is not None:
            audit.current_job_id = record.job_id
        run = _Run()
        try:
            run.result = engine._execute_statement(
                job.statement, job.principal, record.kind, job.snapshot_ms,
                sql_text=job.cache_sql, use_query_cache=job.use_query_cache,
            )
            run.trace = run.result.trace
        except Exception as exc:
            run.error = exc
            run.trace = engine._last_root if ctx.tracer.enabled else None
        finally:
            if audit is not None:
                audit.current_job_id = prev_job_id
        run.retry_count = counts.get("repro.retry", 0) - retries_before
        run.degraded = counts.get("repro.degraded", 0) > degraded_before
        run.cache_bypass = self._cache_bypass_total(ctx) > bypass_before
        run.bytes_read = metering.bytes_read - read_before
        run.bytes_written = metering.bytes_written - written_before
        run.bytes_egressed = metering.total_egress() - egress_before
        return run

    def _execute_for_pool(
        self,
        job: QueryJob,
        anchor: float,
        admitted_ms: float,
        runs: dict[int, _Run],
        key: int,
    ):
        """The pool's admission callback: run the job's *real* work on the
        sim clock, report its schedulable shape back in model time."""
        engine = job.engine
        ctx = engine.ctx
        clock_before = ctx.clock.now_ms
        run = runs[key] = self._run_statement(job, anchor + admitted_ms)
        if run.error is not None:
            return PoolOpaque(ctx.clock.now_ms - clock_before, failed=True)
        if job.record.kind != "select":
            # DML shells: inner statements already ran as inline jobs (and
            # CTAS reuses the inner stats); model them as seat occupancy
            # for as long as their real work took.
            return PoolOpaque(ctx.clock.now_ms - clock_before)
        return run.result.stats.pool_execution(
            engine.slots, ctx.costs.slot_startup_ms, engine.shuffle_partitions,
            ctx.faults, engine.speculation,
        )

    # -- terminal transitions -----------------------------------------------

    def _settle(
        self,
        job: QueryJob,
        anchor: float,
        verdict: JobVerdict | None,
        run: _Run | None,
    ) -> None:
        if verdict is None:  # defensive: the pool verdicts every arrival
            return
        end_abs = anchor + verdict.end_ms
        if verdict.state == "cancelled":
            if verdict.admitted:  # else never started: start_ms stays 0
                job.record.start_ms = anchor + verdict.admitted_ms
                job.record.queue_wait_ms = verdict.queue_wait_ms
            self._finish_cancelled(job, end_abs)
            return
        if verdict.state == "done" and job.record.kind == "select":
            result = run.result
            result.stats.apply_verdict(verdict)
            job.engine._record_verdict(result.stats, result.sched_span)
        self._finish(job, run, end_abs)

    def _finish(self, job: QueryJob, run: _Run, end_ms: float) -> None:
        """Terminal transition of a job whose statement ran: its costs land
        on the record, then FAILED with the error or SUCCEEDED with the
        (already settled) result."""
        record = job.record
        record.retry_count = run.retry_count
        record.degraded = run.degraded
        record.bytes_read = run.bytes_read
        record.bytes_written = run.bytes_written
        record.bytes_egressed = run.bytes_egressed
        record.trace = run.trace
        record_from_trace(record)
        self._close(job, end_ms, run.error)
        result = run.result
        if result is not None:
            # The caller-facing copy. The record keeps its own: a CTAS shell
            # and its inner SELECT hold one stats object between them.
            result.stats.retry_count = run.retry_count
            result.stats.degraded = run.degraded
            record.stats = result.stats
            record.rows_produced = result.num_rows
            job._result = result
            self._observe_query_metrics(job, result)

    def _close(
        self, job: QueryJob, end_ms: float, exc: BaseException | None
    ) -> None:
        """→ SUCCEEDED, or → FAILED with ``exc``, at ``end_ms``."""
        record = job.record
        record.state = SUCCEEDED if exc is None else FAILED
        record.end_ms = end_ms
        if exc is not None:
            record.error = str(exc)
            record.error_code = error_code(exc)
            job._error = exc

    def _finish_cancelled(self, job: QueryJob, end_ms: float) -> None:
        """→ CANCELLED at ``end_ms``."""
        record = job.record
        record.state = CANCELLED
        record.end_ms = end_ms
        record.error = "job cancelled"
        record.error_code = "CANCELLED"
        engine = job.engine
        engine.ctx.metrics.counter(
            "repro_jobs_cancelled_total", "jobs cancelled before completion"
        ).inc(engine=engine.name)

    def _observe_query_metrics(self, job: QueryJob, result: "QueryResult") -> None:
        engine = job.engine
        meters = engine.meters
        labels = (("engine", engine.name),)
        meters.counter(
            "queries_total", "statements executed",
            (("engine", engine.name), ("kind", job.record.kind)),
        ).inc()
        meters.counter(
            "query_bytes_scanned_total", "bytes scanned on behalf of queries", labels
        ).inc(result.stats.bytes_scanned)
        meters.histogram(
            "query_elapsed_ms", "modeled slot-limited query latency", labels
        ).observe(result.stats.elapsed_ms)
        meters.histogram(
            "repro_job_queue_wait_ms", "admission-control queue wait per job", labels
        ).observe(job.record.queue_wait_ms)

    # -- inline (nested / blocking) execution --------------------------------

    def _run_inline(self, job: QueryJob) -> None:
        """Execute one job alone, now — used for statements submitted while
        a drain or another execution is already on the stack (CTAS /
        INSERT..SELECT inner queries). Sequential by construction: no
        queue wait, and the job ends where the sim clock stands."""
        engine = job.engine
        clock = engine.ctx.clock
        run = self._run_statement(job, clock.now_ms)
        if job.record.kind == "select" and run.result is not None:
            engine._settle_solo(run.result.stats, run.result.sched_span)
        self._finish(job, run, clock.now_ms)


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
