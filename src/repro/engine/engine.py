"""The query engine facade: parse -> plan -> optimize -> execute."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Protocol

from repro.data.batch import RecordBatch, concat_batches
from repro.data.types import Schema
from repro.errors import AnalysisError, QueryError
from repro.metastore.catalog import Catalog, TableKind
from repro.obs.metrics import MetricHandles
from repro.security.iam import Principal
# Bound as a module and read at call time: the pool builds on this package's
# scheduler types, so when it is imported first it is still mid-import here.
from repro.serving import pool as slot_pool
from repro.sql import ast_nodes as ast
from repro.sql.expressions import FunctionRegistry
from repro.sql.parser import parse_statement
from repro.storageapi.read_api import ReadApi, SessionStats

from repro.engine.operators import ExecContext, execute_plan
from repro.engine.optimizer import optimize
from repro.engine.plan import PlanNode, ScanNode, TvfNode
from repro.engine.planner import Planner
from repro.engine.scheduler import (
    SpeculationConfig,
    TaskRun,
    normalize_costs,
    probe_slow_factors,
)


@dataclass
class StageScan:
    """One plan stage's scan work: measured time + per-task estimates."""

    stage: str
    scan_ms: float
    task_costs: list[float] = field(default_factory=list)

    @property
    def tasks(self) -> int:
        return len(self.task_costs)


@dataclass
class QueryStats:
    """Accounting for one query execution (simulated time + work)."""

    planning_ms: float = 0.0
    scan_work_ms: float = 0.0
    compute_ms: float = 0.0  # join/aggregate CPU (rows processed)
    scan_tasks: int = 0
    bytes_scanned: int = 0
    rows_scanned: int = 0
    files_total: int = 0
    files_read: int = 0
    row_groups_pruned: int = 0
    dpp_applied: int = 0
    elapsed_ms: float = 0.0
    slot_ms: float = 0.0
    shuffle_partitions: int = 0  # set by pool_execution() from the engine config
    compute_parallelism: int = 0  # set by pool_execution(): min(slots, shuffle_partitions)
    retry_count: int = 0  # transient-failure retries spent on this query
    degraded: bool = False  # True when any fallback path served the query
    cache_hit_bytes: int = 0  # source bytes served from the data cache
    cache_hit: bool = False  # True when the query-result cache served this query
    # Per-stage scan accounting (one entry per scan operator); stage-less
    # callers (e.g. ML batch scoring) keep bumping scan_work_ms/scan_tasks
    # directly and that work is scheduled as the uniform-wave tail.
    scan_stages: list[StageScan] = field(default_factory=list)
    # The pool's verdict (set by apply_verdict): per-task timeline plus skew and
    # speculation facts, surfaced on JobRecord / INFORMATION_SCHEMA.JOBS.
    task_skew: float = 1.0
    speculative_count: int = 0
    speculative_wins: int = 0
    task_timeline: list[TaskRun] = field(default_factory=list)

    def record_scan(
        self,
        session: SessionStats,
        scan_ms: float,
        tasks: int,
        stage: str | None = None,
        task_costs: list[float] | None = None,
    ) -> None:
        self.scan_work_ms += scan_ms
        self.scan_tasks += tasks
        self.bytes_scanned += session.bytes_scanned
        self.rows_scanned += session.rows_scanned
        self.files_total += session.files_total
        self.files_read += session.files_after_pruning
        self.row_groups_pruned += session.row_groups_pruned
        self.cache_hit_bytes += session.cache_hit_bytes
        if stage is not None:
            # Self-joins scan the same table twice; keep stage names unique
            # so timelines stay unambiguous.
            taken = {s.stage for s in self.scan_stages}
            name, k = stage, 2
            while name in taken:
                name = f"{stage}#{k}"
                k += 1
            self.scan_stages.append(
                StageScan(name, scan_ms, normalize_costs(task_costs, scan_ms, tasks))
            )

    @property
    def files_pruned(self) -> int:
        return self.files_total - self.files_read

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of source bytes served from the data cache."""
        total = self.cache_hit_bytes + self.bytes_scanned
        return self.cache_hit_bytes / total if total else 0.0

    def pool_execution(
        self,
        slots: int,
        startup_ms: float,
        shuffle_partitions: int,
        faults: Any | None,
        speculation: SpeculationConfig | None,
    ) -> "slot_pool.PoolExecution":
        """The job's schedulable shape for the slot pool: metadata/planning
        work is a serial prelude; each scan stage brings its task costs and
        straggler factors (stages probed in order, before any is placed);
        operator compute spreads across shuffle partitions (bounded by
        slots). Records the slot-count facts the shape was built from.
        """
        self.shuffle_partitions = shuffle_partitions
        self.compute_parallelism = max(1, min(slots, shuffle_partitions))
        self.slot_ms = self.planning_ms + self.scan_work_ms + self.compute_ms
        stages = [
            slot_pool.PoolStage(
                s.stage, s.task_costs, probe_slow_factors(faults, s.stage, s.tasks)
            )
            for s in self.scan_stages
        ]
        # Scan work recorded without a stage runs in uniform waves: 3 equal
        # tasks on 2 slots take 2 waves (2/3 of the total scan work
        # elapses), not the 1.5 "waves" plain division would claim. For
        # equal tasks the pool's list schedule gives exactly this makespan.
        leftover_tasks = self.scan_tasks - sum(s.tasks for s in self.scan_stages)
        leftover_ms = self.scan_work_ms - sum(s.scan_ms for s in self.scan_stages)
        tail_ms = 0.0
        if leftover_ms > 1e-9:  # float residue from the += accumulation is not work
            tasks = max(1, leftover_tasks)
            waves = math.ceil(tasks / max(1, slots))
            tail_ms = leftover_ms * waves / tasks
        return slot_pool.PoolExecution(
            prelude_ms=startup_ms + self.planning_ms,
            stages=stages,
            tail_ms=tail_ms,
            compute_ms=self.compute_ms,
            compute_tasks=self.compute_parallelism,
            speculation=speculation,
        )

    def apply_verdict(self, verdict: "slot_pool.JobVerdict") -> None:
        """Graft the pool's verdict for this job onto the stats."""
        self.elapsed_ms = verdict.elapsed_ms
        self.task_timeline = list(verdict.runs)
        self.task_skew = verdict.task_skew
        self.speculative_count = verdict.speculative_launched
        self.speculative_wins = verdict.speculative_wins

    def finalize(
        self,
        slots: int,
        startup_ms: float,
        shuffle_partitions: int = 8,
        faults: Any | None = None,
        speculation: SpeculationConfig | None = None,
    ) -> None:
        """Slot-limited elapsed-time verdict for a statement that runs
        alone (nested inside another job, or a regional subquery): its
        shape as a one-job batch on a private pool of ``slots``."""
        work = self.pool_execution(
            slots, startup_ms, shuffle_partitions, faults, speculation
        )
        self.apply_verdict(slot_pool.run_solo(slots, work))


@dataclass
class QueryResult:
    """A completed query: schema, data, stats, and the executed plan."""

    schema: Schema
    batches: list[RecordBatch]
    stats: QueryStats
    plan_text: str = ""
    rows_affected: int = 0  # set by DML statements
    cross_cloud: dict | None = None  # set by the cross-cloud planner
    # The query's span tree (repro.obs.Span) when tracing was enabled.
    trace: Any | None = None
    # The zero-duration ``scheduler.simulate`` marker span, stashed when
    # the job queue will settle the verdict and tag it.
    sched_span: Any | None = None

    @property
    def num_rows(self) -> int:
        return sum(b.num_rows for b in self.batches)

    def rows(self) -> list[tuple]:
        out: list[tuple] = []
        for batch in self.batches:
            out.extend(batch.iter_rows())
        return out

    def to_pydict(self) -> dict[str, list[Any]]:
        return concat_batches(self.schema, self.batches).to_pydict()

    def column(self, name: str) -> list[Any]:
        index = self.schema.index_of(name)
        only = Schema((self.schema.fields[index],))
        narrowed = [RecordBatch(only, [b.columns[index]]) for b in self.batches]
        return concat_batches(only, narrowed).columns[0].to_pylist()

    def single_value(self) -> Any:
        rows = self.rows()
        if len(rows) != 1 or len(rows[0]) != 1:
            raise QueryError("query did not produce a single value")
        return rows[0][0]


class TvfHandler(Protocol):
    """Handler for one table-valued function family (registered by ML)."""

    def output_schema(self, model: tuple[str, ...], input_schema: Schema | None) -> Schema:
        ...

    def execute(
        self, node: TvfNode, input_batches: list[RecordBatch] | None, ctx: ExecContext
    ) -> list[RecordBatch]:
        ...


class DmlHandler(Protocol):
    """Executes DML/CTAS statements (provided by the table manager)."""

    def execute_dml(self, statement: ast.Statement, engine: "QueryEngine", principal: Principal) -> "QueryResult":
        ...


class QueryEngine:
    """A regional Dremel-like engine instance.

    Feature flags mirror the paper's ablations:

    * ``use_stats`` — planner sees Big Metadata statistics (join
      reordering); off reproduces the pre-acceleration baseline.
    * ``enable_dpp`` — dynamic partition pruning at execution time.
    * ``use_row_oriented_reader`` — the §3.4 prototype scan path.
    """

    # How scans consume a read session. The home engine schedules one task
    # per file over ``slots`` streams; an external connector (SparkSim)
    # requests ``scan_streams`` streams, attaches through the serialized
    # handle and schedules one executor per stream.
    executor_per_stream = False
    scan_streams: int | None = None

    def __init__(
        self,
        read_api: ReadApi,
        catalog: Catalog,
        location: str = "gcp/us-central1",
        name: str = "dremel",
        slots: int = 64,
        functions: FunctionRegistry | None = None,
        use_stats: bool = True,
        enable_dpp: bool = True,
        use_row_oriented_reader: bool = False,
        enable_aggregate_pushdown: bool = True,
        shuffle_partitions: int = 8,
        speculation: SpeculationConfig | None = None,
    ) -> None:
        self.read_api = read_api
        self.catalog = catalog
        self.location = location
        self.name = name
        self.slots = slots
        self.functions = functions or FunctionRegistry()
        self.use_stats = use_stats
        self.enable_dpp = enable_dpp
        self.use_row_oriented_reader = use_row_oriented_reader
        self.enable_aggregate_pushdown = enable_aggregate_pushdown
        self.shuffle_partitions = shuffle_partitions
        self.speculation = speculation or SpeculationConfig()
        self.ctx = read_api.ctx
        # The per-job metric series the job queue writes for this engine
        # (repro.serving.jobs.JobQueue._observe_query_metrics).
        self.meters = MetricHandles(self.ctx.metrics)
        self._tvf_handlers: dict[str, TvfHandler] = {}
        self.dml_handler: DmlHandler | None = None
        # Platform-owned observability services (set by _wire_engine); a
        # bare engine runs fine without them — no history, and
        # INFORMATION_SCHEMA names fall through to the catalog.
        self.history = None  # repro.obs.history.JobHistory
        self.system_tables = None  # repro.obs.system_tables.SystemTables
        # The serving-layer job queue execute() submits through. Platform
        # wiring points every engine at the shared platform queue (one
        # admission-control queue + slot pool per project); bare engines
        # lazily get a private queue so execute() has a single code path.
        self.job_queue = None  # repro.serving.jobs.JobQueue
        # The platform's plan/result cache (repro.cache.plan.QueryCache);
        # a bare engine has none and simply replans every statement.
        self.query_cache = None
        # Root span of the most recent _execute_statement call (survives
        # exceptions so the queue can attach traces to failed jobs).
        self._last_root = None

    # -- registration -------------------------------------------------------

    def register_tvf(self, name: str, handler: TvfHandler) -> None:
        self._tvf_handlers[name.upper()] = handler

    def set_dml_handler(self, handler: DmlHandler) -> None:
        self.dml_handler = handler

    # -- planning helpers -----------------------------------------------------

    def _planner(self) -> Planner:
        return Planner(
            self.catalog,
            functions=self.functions,
            tvf_schema_resolver=self._tvf_schema,
            system_tables=self.system_tables,
        )

    def _tvf_schema(
        self, name: str, model: tuple[str, ...], input_schema: Schema | None
    ) -> Schema:
        handler = self._tvf_handlers.get(name.upper())
        if handler is None:
            raise AnalysisError(f"no handler registered for {name}")
        return handler.output_schema(model, input_schema)

    def stats_provider(self, scan: ScanNode) -> float | None:
        """Cardinality source for the optimizer (Big Metadata / managed)."""
        if not self.use_stats:
            return None
        table = scan.table
        if table.kind is TableKind.MANAGED:
            if self.read_api.managed.exists(table.table_id):
                return float(self.read_api.managed.row_count(table.table_id))
            return None
        if self.read_api.bigmeta.has_table(table.table_id):
            return float(self.read_api.bigmeta.table_stats(table.table_id)["num_rows"])
        return None

    def remote_location_for(self, table) -> str | None:
        """Engine location when reading a bucket outside this region."""
        if table.storage is None:
            return None
        if table.storage.location == self.location:
            return None
        return self.location

    # -- entry points ------------------------------------------------------------

    def plan(self, select: ast.Select) -> PlanNode:
        plan = self._planner().plan_select(select)
        return optimize(
            plan,
            stats_provider=self.stats_provider,
            use_stats=self.use_stats,
            aggregate_pushdown=self.enable_aggregate_pushdown,
        )

    def explain(self, sql: str) -> str:
        statement = parse_statement(sql)
        if not isinstance(statement, ast.Select):
            raise AnalysisError("EXPLAIN supports SELECT statements")
        return self.plan(statement).describe()

    def execute(
        self,
        sql_or_select: str | ast.Select,
        principal: Principal,
        *,
        snapshot_ms: float | None = None,
        use_query_cache: bool = False,
    ) -> QueryResult:
        """The single query entry point: SELECT (string or AST) and DML.

        SELECTs are planned and executed here; other statements dispatch
        to the registered DML handler. Every statement runs under a root
        ``query`` span, so ``result.trace`` (when tracing is enabled)
        holds the full cross-layer span tree, and the query metrics
        (``queries_total``, ``query_elapsed_ms``,
        ``query_bytes_scanned_total``) are recorded on the way out.

        When the engine is platform-wired, every call — including ones
        that fail — persists a :class:`~repro.obs.history.JobRecord` into
        the platform's job history, queryable afterwards through
        ``INFORMATION_SCHEMA.JOBS`` / ``JOBS_TIMELINE``. Audit events
        emitted while the statement runs carry its job id.

        Since the serving redesign this is a thin blocking wrapper over
        the async jobs API — ``submit(...).wait()`` — so a solo execute()
        is just a one-job batch on the shared slot pool and there is a
        single lifecycle/history/metrics code path for both styles.
        """
        return self.submit(
            sql_or_select, principal, snapshot_ms=snapshot_ms,
            use_query_cache=use_query_cache,
        ).wait()

    def submit(
        self,
        sql_or_select: str | ast.Select,
        principal: Principal,
        *,
        snapshot_ms: float | None = None,
        use_query_cache: bool = False,
    ):
        """``jobs.insert``: enqueue a statement, return its
        :class:`~repro.serving.jobs.QueryJob` handle (PENDING until a
        ``wait()`` drains the queue over the shared slot pool)."""
        if self.job_queue is None:
            from repro.serving.jobs import JobQueue

            self.job_queue = JobQueue(default_engine=self)
        return self.job_queue.submit(
            sql_or_select, principal, engine=self, snapshot_ms=snapshot_ms,
            use_query_cache=use_query_cache,
        )

    def _execute_statement(
        self,
        statement: ast.Statement | None,
        principal: Principal,
        kind: str,
        snapshot_ms: float | None = None,
        sql_text: str | None = None,
        use_query_cache: bool = False,
    ) -> QueryResult:
        """Run one already-validated statement under the root ``query``
        span — the execution half of the old execute(). Lifecycle, job
        history, and query metrics live in :class:`repro.serving.JobQueue`;
        the root span is kept on ``self._last_root`` (even on failure) so
        the queue can attach traces to failed jobs.

        ``sql_text`` (the original statement text; None when the caller
        submitted an AST) keys the plan and result caches. Plan-cache use
        is automatic; the result cache additionally requires the caller's
        ``use_query_cache=True`` opt-in. ``statement`` is None for a SELECT
        whose text the query cache knows: it is parsed only if a tier
        misses.
        """
        tracer = self.ctx.tracer
        self._last_root = None
        with tracer.span(
            "query", layer="engine", engine=self.name, kind=kind
        ) as root:
            self._last_root = root
            if kind == "select":
                result = self._execute_select(
                    statement, principal, snapshot_ms, sql_text, use_query_cache
                )
            else:
                result = self.dml_handler.execute_dml(statement, self, principal)
        if tracer.enabled:
            result.trace = root
        return result

    def _execute_select(
        self,
        statement: ast.Select | None,
        principal: Principal,
        snapshot_ms: float | None,
        sql_text: str | None,
        use_query_cache: bool,
    ) -> QueryResult:
        """Run one SELECT through the query cache: result tier first (when
        the caller opted in), then the plan tier, then the planner.

        The text's remembered tables are resolved fresh in the catalog and
        digested once; both tiers are keyed from that one resolution. A
        result hit re-checks IAM on those tables and returns — it neither
        parses the text nor touches the plan tier. Only a miss parses (if
        the statement arrived unparsed), plans, runs and stores.
        """
        cache = self.query_cache
        if cache is None or sql_text is None:
            return self._run_plan(
                self.plan(statement), principal, snapshot_ms=snapshot_ms,
                finalize=False,
            )
        resolution = cache.resolve(sql_text, self, principal)
        probed = None
        if use_query_cache and resolution is not None:
            probed = cache.text_result_key(resolution, principal, snapshot_ms)
            if probed is not None:
                served = self._serve_cached(cache, probed, principal)
                if served is not None:
                    return served
        plan = cache.lookup_plan(sql_text, self, principal, resolution)
        if plan is None:
            if statement is None:
                statement = parse_statement(sql_text)
            plan = self.plan(statement)
            cache.store_plan(sql_text, self, principal, plan)
        result_key = None
        if use_query_cache:
            result_key = cache.result_key(
                sql_text, self, principal, snapshot_ms, plan
            )
            # The text-keyed probe above already missed on this very key
            # unless the text was unknown (or its refs evicted) until now.
            if result_key is not None and (
                probed is None or result_key.key != probed.key
            ):
                served = self._serve_cached(cache, result_key, principal)
                if served is not None:
                    return served
        result = self._run_plan(
            plan, principal, snapshot_ms=snapshot_ms, finalize=False
        )
        if result_key is not None:
            cache.store_result(
                result_key, result.schema, result.batches, result.plan_text
            )
        return result

    @staticmethod
    def _serve_cached(cache, key, principal: Principal) -> QueryResult | None:
        served = cache.lookup_result(key, principal)
        if served is None:
            return None
        schema, batches, plan_text = served
        return QueryResult(
            schema=schema, batches=batches, stats=QueryStats(cache_hit=True),
            plan_text=plan_text,
        )

    def explain_analyze(
        self,
        sql: str | ast.Select,
        principal: Principal,
        *,
        snapshot_ms: float | None = None,
    ) -> str:
        """Execute ``sql`` and render its span tree with a per-layer
        self-time breakdown — deterministic across identical runs."""
        from repro.obs.trace import layer_breakdown, render_trace

        result = self.execute(sql, principal, snapshot_ms=snapshot_ms)
        if result.trace is None:
            return result.plan_text
        lines = [render_trace(result.trace), "", "layer self time:"]
        breakdown = layer_breakdown(result.trace)
        for layer in sorted(breakdown, key=lambda k: (-breakdown[k], k)):
            lines.append(f"  {layer:<12} {breakdown[layer]:12.3f} ms")
        return "\n".join(lines)

    def _run_plan(
        self,
        plan: PlanNode,
        principal: Principal,
        snapshot_ms: float | None = None,
        finalize: bool = True,
    ) -> QueryResult:
        """Execute a physical plan. With ``finalize=True`` (direct callers:
        the cross-cloud planner's regional subqueries) the statement runs
        alone and its verdict is settled here. The job queue passes
        ``finalize=False``: it settles the verdict itself, on the shared
        slot pool for a queued job, alone for a nested one."""
        stats = QueryStats()
        ctx = ExecContext(
            engine=self,
            principal=principal,
            stats=stats,
            dpp_enabled=self.enable_dpp,
            snapshot_ms=snapshot_ms,
        )
        batches = execute_plan(plan, ctx)
        # The verdict is model time only — the span below is zero-duration
        # on the sim clock, a marker carrying the verdict's tags.
        with self.ctx.tracer.span("scheduler.simulate", layer="scheduler") as span:
            if finalize:
                self._settle_solo(stats, span)
        result = QueryResult(
            schema=plan.schema, batches=batches, stats=stats, plan_text=plan.describe()
        )
        if not finalize:
            result.sched_span = span
        return result

    def _settle_solo(self, stats: QueryStats, span: Any | None) -> None:
        """The verdict of a statement that runs alone on this engine's slots."""
        stats.finalize(
            self.slots, self.ctx.costs.slot_startup_ms, self.shuffle_partitions,
            faults=self.ctx.faults, speculation=self.speculation,
        )
        self._record_verdict(stats, span)

    def _record_verdict(self, stats: QueryStats, span: Any | None) -> None:
        """Tag the ``scheduler.simulate`` marker (None when a cache served
        the statement) with the verdict and bump the scheduler metrics."""
        if not stats.task_timeline:
            return
        tasks = sum(s.tasks for s in stats.scan_stages)
        if span is not None:
            span.set_tag("tasks", tasks)
            span.set_tag("task_skew", round(stats.task_skew, 4))
            span.set_tag("speculative", stats.speculative_count)
        metrics = self.ctx.metrics
        metrics.counter(
            "repro_scheduler_tasks_total", "scan tasks placed on the simulated slot pool"
        ).inc(tasks, engine=self.name)
        if stats.speculative_count:
            metrics.counter(
                "repro_scheduler_speculative_launched_total",
                "speculative backup tasks launched",
            ).inc(stats.speculative_count, engine=self.name)
        if stats.speculative_wins:
            metrics.counter(
                "repro_scheduler_speculative_wins_total",
                "speculative backups that beat their primary",
            ).inc(stats.speculative_wins, engine=self.name)
        metrics.gauge(
            "repro_task_skew_ratio",
            "max/mean winner task duration of the last scheduled query",
        ).set(stats.task_skew, engine=self.name)

    # -- TVF execution -------------------------------------------------------------

    def execute_tvf(self, node: TvfNode, ctx: ExecContext) -> list[RecordBatch]:
        handler = self._tvf_handlers.get(node.name.upper())
        if handler is None:
            raise AnalysisError(f"no handler registered for {node.name}")
        input_batches = None
        if node.input_plan is not None:
            input_batches = execute_plan(node.input_plan, ctx)
        return handler.execute(node, input_batches, ctx)
