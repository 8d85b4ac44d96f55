"""INFORMATION_SCHEMA system tables: queryable job history + governance.

The acceptance surface for the queryable-observability tentpole: SELECTs
over ``INFORMATION_SCHEMA.JOBS`` / ``JOBS_TIMELINE`` return correct rows
for previously executed queries (including a FAILED one), timeline
durations reconcile with ``QueryResult.trace`` self-times, non-admin
principals are silently scoped to their own jobs and hard-denied on
``DATA_ACCESS``, and the other tables (TABLE_STORAGE, METRICS) compose
with ordinary SQL (filters, joins, aggregates).
"""

import dataclasses

import pytest

from repro.core.platform import LakehousePlatform, PlatformConfig
from repro.data.types import DataType
from repro.engine.engine import QueryStats
from repro.errors import (
    AccessDeniedError,
    AnalysisError,
    NotFoundError,
    SqlSyntaxError,
    TransientExecutionError,
)
from repro.faults import FaultSpec
from repro.obs.history import JobRecord
from repro.obs.system_tables import TABLES
from repro.obs.trace import layer_breakdown
from repro.serving.jobs import ServingConfig

from tests.helpers import make_platform, setup_sales_lake

SALES_SQL = (
    "SELECT region, SUM(amount) AS total FROM ds.sales "
    "WHERE year = 2023 GROUP BY region ORDER BY total DESC"
)


def sales_platform():
    platform, admin = make_platform()
    setup_sales_lake(platform, admin)
    return platform, admin


class TestJobs:
    def test_jobs_rows_for_previous_queries(self):
        platform, admin = sales_platform()
        engine = platform.home_engine
        result = engine.execute(SALES_SQL, admin)
        with pytest.raises(NotFoundError):
            engine.execute("SELECT * FROM ds.missing", admin)

        rows = engine.execute(
            "SELECT job_id, user, state, error, kind, total_ms, bytes_scanned "
            "FROM INFORMATION_SCHEMA.JOBS ORDER BY job_id",
            admin,
        ).rows()
        # Jobs are recorded at submit time: the introspection query sees
        # the two prior jobs as terminal — and itself, mid-flight, RUNNING.
        assert len(rows) == 3
        ok, bad, self_row = rows
        assert ok[0] == "job_000001"
        assert ok[1] == "user:admin"
        assert ok[2] == "SUCCEEDED"
        assert ok[3] == ""
        assert ok[4] == "select"
        assert ok[5] == pytest.approx(result.stats.elapsed_ms)
        assert ok[6] == result.stats.bytes_scanned > 0
        # The failed job is retained with its terminal state and error.
        assert bad[0] == "job_000002"
        assert bad[2] == "FAILED"
        assert "ds.missing" in bad[3]
        assert bad[6] == 0
        assert self_row[0] == "job_000003"
        assert self_row[2] == "RUNNING"

    def test_jobs_query_sees_itself_running(self):
        platform, admin = sales_platform()
        engine = platform.home_engine
        engine.execute(SALES_SQL, admin)
        count = engine.execute(
            "SELECT COUNT(*) AS n FROM INFORMATION_SCHEMA.JOBS", admin
        ).single_value()
        # Records land at submit time (PENDING), flip to RUNNING at
        # admission: the introspection query's own scan counts itself.
        assert count == 2
        assert len(platform.history) == 2
        record = platform.history.last
        assert record.sql.startswith("SELECT COUNT(*)")
        # ...and by the time execute() returns, the job is terminal, with
        # the full PENDING -> RUNNING -> SUCCEEDED lifecycle stamped.
        assert record.state == "SUCCEEDED"
        assert record.end_ms >= record.start_ms >= record.creation_ms
        assert record.queue_wait_ms == record.start_ms - record.creation_ms

    def test_record_carries_execution_stats(self):
        platform, admin = sales_platform()
        result = platform.home_engine.execute(SALES_SQL, admin)
        record = platform.history.last
        assert record.rows_produced == result.num_rows
        assert record.files_read == result.stats.files_read
        assert record.files_total == result.stats.files_total
        assert record.slot_ms == pytest.approx(result.stats.slot_ms)
        assert record.compute_parallelism == result.stats.compute_parallelism
        assert record.bytes_read > 0  # metering delta: object-store reads
        assert record.bytes_egressed == 0  # home-region query, no egress
        assert record.layers_ms  # per-layer self-time breakdown filled
        assert platform.job(record.job_id) is record

    def test_project_qualified_name_resolves(self):
        platform, admin = sales_platform()
        platform.home_engine.execute(SALES_SQL, admin)
        rows = platform.home_engine.execute(
            "SELECT job_id FROM `repro-project`.INFORMATION_SCHEMA.JOBS "
            "WHERE state = 'SUCCEEDED'",
            admin,
        ).rows()
        assert rows == [("job_000001",)]

    def test_unknown_system_table(self):
        platform, admin = sales_platform()
        with pytest.raises(NotFoundError, match="INFORMATION_SCHEMA.NOPE"):
            platform.home_engine.execute(
                "SELECT * FROM INFORMATION_SCHEMA.NOPE", admin
            )

    def test_time_travel_rejected(self):
        platform, admin = sales_platform()
        with pytest.raises(AnalysisError, match="SYSTEM_TIME"):
            platform.home_engine.execute(
                "SELECT * FROM INFORMATION_SCHEMA.JOBS "
                "FOR SYSTEM_TIME AS OF TIMESTAMP '2024-01-01 00:00:00'",
                admin,
            )


class TestTimeline:
    def test_timeline_reconciles_with_trace_self_times(self):
        platform, admin = sales_platform()
        engine = platform.home_engine
        result = engine.execute(SALES_SQL, admin)
        job_id = platform.history.last.job_id

        rows = engine.execute(
            "SELECT span_id, parent_span_id, name, layer, duration_ms, self_ms "
            f"FROM INFORMATION_SCHEMA.JOBS_TIMELINE WHERE job_id = '{job_id}' "
            "AND span_id < 1000000 ORDER BY span_id",  # exclude synthetic task rows
            admin,
        ).rows()
        spans = {s.span_id: s for s in result.trace.walk()}
        assert {r[0] for r in rows} == set(spans)
        for span_id, parent_id, name, layer, duration_ms, self_ms in rows:
            span = spans[span_id]
            assert parent_id == (span.parent_id or 0)
            assert name == span.name
            assert layer == (span.layer or "other")
            assert duration_ms == pytest.approx(span.duration_ms)
            assert self_ms == pytest.approx(span.self_time_ms())

    def test_per_layer_aggregate_matches_layer_breakdown(self):
        platform, admin = sales_platform()
        engine = platform.home_engine
        result = engine.execute(SALES_SQL, admin)
        job_id = platform.history.last.job_id

        rows = engine.execute(
            "SELECT layer, SUM(self_ms) AS ms FROM INFORMATION_SCHEMA.JOBS_TIMELINE "
            f"WHERE job_id = '{job_id}' AND span_id < 1000000 "
            "GROUP BY layer ORDER BY layer",
            admin,
        ).rows()
        expected = layer_breakdown(result.trace)
        assert dict(rows) == pytest.approx(expected)
        # Self-time partitions the root duration exactly.
        assert sum(ms for _, ms in rows) == pytest.approx(result.trace.duration_ms)

    def test_join_jobs_with_timeline(self):
        platform, admin = sales_platform()
        engine = platform.home_engine
        engine.execute(SALES_SQL, admin)
        rows = engine.execute(
            "SELECT j.job_id, COUNT(*) AS spans "
            "FROM INFORMATION_SCHEMA.JOBS AS j "
            "JOIN INFORMATION_SCHEMA.JOBS_TIMELINE AS t ON j.job_id = t.job_id "
            "WHERE j.state = 'SUCCEEDED' GROUP BY j.job_id",
            admin,
        ).rows()
        record = platform.history.get("job_000001")
        # Span rows plus one synthetic scheduler.task row per task attempt.
        expected = sum(1 for _ in record.trace.walk()) + len(record.task_timeline)
        assert record.task_timeline  # the scan produced scheduled tasks
        assert rows == [("job_000001", expected)]


class TestGovernance:
    def test_non_admin_sees_only_own_jobs(self):
        platform, admin = sales_platform()
        engine = platform.home_engine
        engine.execute(SALES_SQL, admin)
        alice = platform.create_user("alice")
        engine.execute("SELECT 1 AS x", alice)

        # Admin (bigquery.jobs.listAll) sees everyone.
        users = engine.execute(
            "SELECT user FROM INFORMATION_SCHEMA.JOBS", admin
        ).column("user")
        assert set(users) == {"user:admin", "user:alice"}
        # Alice is silently scoped to her own jobs — no error, no leakage.
        rows = engine.execute(
            "SELECT job_id, user FROM INFORMATION_SCHEMA.JOBS", alice
        ).rows()
        assert rows and all(user == "user:alice" for _, user in rows)
        timeline_jobs = set(
            engine.execute(
                "SELECT job_id FROM INFORMATION_SCHEMA.JOBS_TIMELINE", alice
            ).column("job_id")
        )
        own = {r.job_id for r in platform.history.for_principal("user:alice")}
        assert timeline_jobs and timeline_jobs <= own

    def test_data_access_denied_without_audit_read(self):
        platform, admin = sales_platform()
        alice = platform.create_user("alice")
        with pytest.raises(AccessDeniedError, match="admin-only"):
            platform.home_engine.execute(
                "SELECT * FROM INFORMATION_SCHEMA.DATA_ACCESS", alice
            )
        # The denial is itself audited, and the failed attempt is a job.
        denial = [
            e
            for e in platform.audit.events
            if e.action == "system_tables.read" and not e.allowed
        ]
        assert denial and denial[-1].resource.endswith("DATA_ACCESS")
        assert str(denial[-1].principal) == "user:alice"
        assert platform.history.last.state == "FAILED"

    def test_data_access_correlates_job_ids(self):
        platform, admin = sales_platform()
        engine = platform.home_engine
        engine.execute(SALES_SQL, admin)
        job_id = platform.history.last.job_id
        rows = engine.execute(
            "SELECT action, allowed FROM INFORMATION_SCHEMA.DATA_ACCESS "
            f"WHERE job_id = '{job_id}'",
            admin,
        ).rows()
        # The sales query's own data accesses carry its job id.
        assert rows and all(allowed for _, allowed in rows)
        actions = {action for action, _ in rows}
        assert "table.read" in actions or "read_session.create" in actions

    def test_table_storage_filtered_by_tables_get(self):
        platform, admin = sales_platform()
        storage_sql = (
            "SELECT table_schema, table_name, total_files, total_rows "
            "FROM INFORMATION_SCHEMA.TABLE_STORAGE"
        )
        # Stats come from the Big Metadata cache, which fills on first use:
        # a never-queried AUTOMATIC-mode table reports zeros (stale), then
        # real counts once a query has refreshed the cache.
        assert ("ds", "sales", 0, 0) in platform.home_engine.execute(
            storage_sql, admin
        ).rows()
        platform.home_engine.execute(SALES_SQL, admin)
        rows = platform.home_engine.execute(storage_sql, admin).rows()
        assert ("ds", "sales", 4, 200) in rows
        # A principal with no table grants sees an empty (not denied) view.
        alice = platform.create_user("alice")
        assert (
            platform.home_engine.execute(
                "SELECT COUNT(*) AS n FROM INFORMATION_SCHEMA.TABLE_STORAGE", alice
            ).single_value()
            == 0
        )


class TestMetricsTable:
    def test_metrics_rows_reflect_registry(self):
        platform, admin = sales_platform()
        engine = platform.home_engine
        engine.execute(SALES_SQL, admin)
        before = platform.ctx.metrics.counter("queries_total").total()
        rows = engine.execute(
            "SELECT name, kind, value FROM INFORMATION_SCHEMA.METRICS "
            "WHERE name = 'queries_total'",
            admin,
        ).rows()
        assert rows
        name, kind, value = rows[0]
        assert kind == "counter"
        # The scan runs mid-query, before the scanning query's own counters
        # land, so it reflects the registry as of query start.
        assert value == before

    def test_filter_and_aggregate_compose(self):
        platform, admin = sales_platform()
        engine = platform.home_engine
        for _ in range(3):
            engine.execute(SALES_SQL, admin)
        total = engine.execute(
            "SELECT SUM(bytes_scanned) AS b FROM INFORMATION_SCHEMA.JOBS "
            "WHERE state = 'SUCCEEDED'",
            admin,
        ).single_value()
        assert total == sum(r.bytes_scanned for r in platform.jobs())


BOOL, INT64, FLOAT64, STRING = (
    DataType.BOOL, DataType.INT64, DataType.FLOAT64, DataType.STRING
)

#: Every table's columns, spelled out: names, order and dtypes are public
#: (positional readers exist), so an edit to a declaration in
#: ``obs/system_tables.py`` has to be repeated here on purpose.
EXPECTED_COLUMNS = {
    "JOBS": [
        ("job_id", STRING), ("user", STRING), ("sql", STRING), ("kind", STRING),
        ("state", STRING), ("error", STRING), ("engine", STRING),
        ("start_ms", FLOAT64), ("end_ms", FLOAT64), ("total_ms", FLOAT64),
        ("slot_ms", FLOAT64), ("bytes_scanned", INT64), ("rows_scanned", INT64),
        ("rows_produced", INT64), ("files_read", INT64), ("files_total", INT64),
        ("shuffle_partitions", INT64), ("compute_parallelism", INT64),
        ("bytes_read", INT64), ("bytes_written", INT64), ("bytes_egressed", INT64),
        ("retry_count", INT64), ("degraded", BOOL), ("cache_hit_bytes", INT64),
        ("cache_hit_ratio", FLOAT64), ("task_skew", FLOAT64),
        ("speculative_count", INT64), ("creation_ms", FLOAT64),
        ("queue_wait_ms", FLOAT64), ("backoff_ms", FLOAT64),
        ("cold_read_ms", FLOAT64), ("degraded_ms", FLOAT64),
        ("transaction_id", STRING), ("error_code", STRING), ("cache_hit", BOOL),
    ],
    "JOBS_TIMELINE": [
        ("job_id", STRING), ("span_id", INT64), ("parent_span_id", INT64),
        ("name", STRING), ("layer", STRING), ("start_ms", FLOAT64),
        ("duration_ms", FLOAT64), ("self_ms", FLOAT64), ("tags", STRING),
    ],
    "TABLE_STORAGE": [
        ("table_catalog", STRING), ("table_schema", STRING),
        ("table_name", STRING), ("kind", STRING), ("total_files", INT64),
        ("total_rows", INT64), ("total_bytes", INT64), ("commit_count", INT64),
        ("version", INT64),
    ],
    "DATA_ACCESS": [
        ("timestamp_ms", FLOAT64), ("principal", STRING), ("action", STRING),
        ("resource", STRING), ("allowed", BOOL), ("detail", STRING),
        ("job_id", STRING),
    ],
    "METRICS": [
        ("name", STRING), ("kind", STRING), ("sample", STRING), ("value", FLOAT64),
    ],
    "CACHE_STATS": [
        ("tier", STRING), ("entries", INT64), ("resident_bytes", INT64),
        ("capacity_bytes", INT64), ("hits", INT64), ("misses", INT64),
        ("evictions", INT64), ("admission_rejects", INT64), ("hit_bytes", INT64),
        ("hit_ratio", FLOAT64),
    ],
    "RESERVATION_TIMELINE": [
        ("period_start_ms", FLOAT64), ("period_end_ms", FLOAT64),
        ("principal", STRING), ("slot_ms", FLOAT64), ("scan_slot_ms", FLOAT64),
        ("compute_slot_ms", FLOAT64), ("queue_ms", FLOAT64),
        ("queue_depth_avg", FLOAT64), ("running_avg", FLOAT64),
        ("jobs_admitted", INT64), ("jobs_completed", INT64), ("weight", FLOAT64),
        ("attainment", FLOAT64),
    ],
    "METRICS_HISTORY": [
        ("scrape_ms", FLOAT64), ("name", STRING), ("kind", STRING),
        ("sample", STRING), ("value", FLOAT64), ("stale", BOOL),
    ],
    "ALERTS": [
        ("at_ms", FLOAT64), ("rule", STRING), ("severity", STRING),
        ("state", STRING), ("value", FLOAT64), ("threshold", FLOAT64),
        ("window_ms", FLOAT64), ("series", STRING), ("detail", STRING),
    ],
    "TRANSACTIONS": [
        ("transaction_id", STRING), ("state", STRING), ("writer", STRING),
        ("begin_ms", FLOAT64), ("commit_ms", FLOAT64), ("finalized", BOOL),
        ("table_count", INT64), ("tables", STRING),
    ],
}


class TestDeclarations:
    def test_the_ten_tables_and_their_columns(self):
        declared = {
            table.name: [(c.name, c.dtype) for c in table.columns] for table in TABLES
        }
        assert declared == EXPECTED_COLUMNS

    def test_schema_and_rows_come_from_the_same_declaration(self):
        """Every table scans (monitor and txn log absent included) and each
        row is as wide as the planner's schema for it."""
        platform, admin = sales_platform()
        platform.home_engine.execute(SALES_SQL, admin)
        for name, columns in EXPECTED_COLUMNS.items():
            schema = platform.system_tables.schema(name)
            assert [(f.name, f.dtype) for f in schema.fields] == columns
            for row in platform.system_tables.scan(name, admin):
                assert len(row) == len(columns), name

    def test_record_repeats_no_query_stat(self):
        """The per-query numbers live on QueryStats only; the record owns
        just the two a CTAS shell must not share with its inner SELECT."""
        record = {f.name for f in dataclasses.fields(JobRecord)}
        stats = {f.name for f in dataclasses.fields(QueryStats)}
        assert record & stats == {"retry_count", "degraded"}


#: JOBS columns whose values are sim-clock readings.
TIMING = {
    "start_ms", "end_ms", "total_ms", "slot_ms", "creation_ms", "queue_wait_ms",
    "backoff_ms", "cold_read_ms", "degraded_ms",
}
#: A row of a job with no result, minus identity, engine, state and error.
NOTHING_RAN = {
    "bytes_scanned": 0, "rows_scanned": 0, "rows_produced": 0,
    "files_read": 0, "files_total": 0, "shuffle_partitions": 0,
    "compute_parallelism": 0, "bytes_read": 0, "bytes_written": 0,
    "bytes_egressed": 0, "retry_count": 0, "degraded": False,
    "cache_hit_bytes": 0, "cache_hit_ratio": 0.0, "task_skew": 1.0,
    "speculative_count": 0, "transaction_id": "", "cache_hit": False,
}
REPORT_SQL = "SELECT * FROM INFORMATION_SCHEMA.JOBS"


def jobs_rows(result):
    """``SELECT *`` rows as {job_id: {column: value}} without the timings."""
    names = [name for name, _ in EXPECTED_COLUMNS["JOBS"]]
    return {
        row[0]: {k: v for k, v in zip(names, row) if k not in TIMING}
        for row in result.rows()
    }


def two_seat_platform():
    platform = LakehousePlatform(
        PlatformConfig(serving=ServingConfig(max_concurrent_jobs=2))
    )
    admin = platform.admin_user()
    setup_sales_lake(platform, admin)
    return platform, admin


class TestOneRecordPerJob:
    """The handle, the history ring and ``INFORMATION_SCHEMA.JOBS`` read one
    object, in every state a job can be seen in."""

    def test_pending_and_running(self):
        platform, admin = two_seat_platform()
        engine_name = platform.home_engine.name
        report = platform.submit(REPORT_SQL, admin)
        queued = platform.submit(SALES_SQL, admin)
        platform.job_queue.config.max_concurrent_jobs = 1  # queued waits its turn
        assert platform.job(queued.job_id) is queued.record
        assert platform.job(report.job_id) is report.record
        assert queued.state == queued.record.state == "PENDING"
        rows = jobs_rows(report.wait())
        # The report is the self-observing query: it scans its own record
        # mid-flight, and the job behind it still waiting.
        assert rows[report.job_id] == {
            **NOTHING_RAN, "engine": engine_name, "job_id": report.job_id,
            "user": "user:admin", "sql": REPORT_SQL, "kind": "select",
            "state": "RUNNING", "error": "", "error_code": "",
        }
        assert rows[queued.job_id] == {
            **NOTHING_RAN, "engine": engine_name, "job_id": queued.job_id,
            "user": "user:admin", "sql": SALES_SQL, "kind": "select",
            "state": "PENDING", "error": "", "error_code": "",
        }
        assert report.state == queued.state == "SUCCEEDED"
        assert platform.job(report.job_id) is report.record

    def test_terminal_states(self):
        platform, admin = two_seat_platform()
        engine = platform.home_engine
        ok = platform.submit(SALES_SQL, admin)
        result = ok.wait()
        with pytest.raises(SqlSyntaxError):
            platform.submit("SELEC nothing", admin)
        invalid = platform.history.last
        missing = platform.submit("SELECT * FROM ds.missing", admin)
        with pytest.raises(NotFoundError):
            missing.wait()
        dropped = platform.submit(SALES_SQL, admin)
        assert dropped.cancel()
        torn_down = platform.submit(SALES_SQL, admin)
        platform.ctx.clock.advance(1.0)
        trigger = platform.submit("SELECT 1 AS x", admin)
        platform.job_queue.on_admit(
            lambda job: torn_down.cancel() if job is trigger else None
        )
        platform.drain()

        for job in (ok, missing, dropped, torn_down, trigger):
            assert platform.job(job.job_id) is job.record
            assert platform.job_queue.get(job.job_id) is job
        assert platform.job(invalid.job_id) is invalid
        # The handle stores no fact of its own that the record has — bar the
        # Principal object the engine runs under (the record has its str()).
        recorded = {f.name for f in dataclasses.fields(JobRecord)}
        assert set(vars(ok)) & recorded == {"principal"}

        rows = jobs_rows(engine.execute(REPORT_SQL, admin))
        common = {**NOTHING_RAN, "engine": engine.name, "user": "user:admin"}
        stats = result.stats
        assert ok.record.stats is stats
        assert rows[ok.job_id] == {
            **common, "job_id": ok.job_id, "sql": SALES_SQL, "kind": "select",
            "state": "SUCCEEDED", "error": "", "error_code": "",
            "bytes_scanned": stats.bytes_scanned, "rows_scanned": stats.rows_scanned,
            "rows_produced": result.num_rows, "files_read": stats.files_read,
            "files_total": stats.files_total,
            "shuffle_partitions": stats.shuffle_partitions,
            "compute_parallelism": stats.compute_parallelism,
            "bytes_read": ok.record.bytes_read, "task_skew": stats.task_skew,
        }
        assert stats.bytes_scanned > 0 and ok.record.bytes_read > 0
        assert rows[invalid.job_id] == {
            **common, "job_id": invalid.job_id, "sql": "SELEC nothing",
            "kind": "invalid", "state": "FAILED", "error": invalid.error,
            "error_code": "INVALID_SYNTAX",
        }
        assert invalid.start_ms == invalid.end_ms == invalid.creation_ms
        assert rows[missing.job_id] == {
            **common, "job_id": missing.job_id, "sql": "SELECT * FROM ds.missing",
            "kind": "select", "state": "FAILED", "error": missing.record.error,
            "error_code": "NOT_FOUND",
        }
        assert "ds.missing" in missing.record.error
        for job in (dropped, torn_down):
            assert rows[job.job_id] == {
                **common, "job_id": job.job_id, "sql": SALES_SQL, "kind": "select",
                "state": "CANCELLED", "error": "job cancelled",
                "error_code": "CANCELLED",
            }
        assert dropped.start_ms == 0.0 and dropped.record.total_ms == 0.0
        assert torn_down.start_ms > 0.0
        assert torn_down.record.total_ms == torn_down.end_ms - torn_down.start_ms

    def test_batched_job_is_charged_its_own_reads_only(self):
        """``bytes_read`` is metered around the job's own real work, not up
        to the end of the batch it ran in."""
        by_year = "SELECT COUNT(*) AS n FROM ds.sales WHERE year = {}"
        solo_platform, solo_admin = sales_platform()
        solo = solo_platform.submit(by_year.format(2022), solo_admin)
        solo.wait()
        platform, admin = sales_platform()
        first = platform.submit(by_year.format(2022), admin)
        second = platform.submit(by_year.format(2023), admin)
        platform.drain()
        assert second.record.bytes_read > 0
        assert first.record.bytes_read == solo.record.bytes_read

    def test_ctas_inner_row_survives_the_outer_job(self):
        """A CTAS shell reports its inner SELECT's stats — one object — but
        retries and degradation are per job: what the shell retries after
        the inner job has ended is the shell's alone."""
        platform, admin = sales_platform()
        platform.ctx.faults.add(
            FaultSpec(op="engine.task", error="TransientExecutionError", count=1)
        )
        seen = []
        append = platform.tables.append

        def flaky_append(table, batches):
            # Runs after the inner job's terminal transition and before the
            # outer's: snapshot the inner row, then charge the shell a retry.
            inner = platform.history.last
            seen.append((inner, platform.system_tables.scan("JOBS", admin)[-1]))
            failures = [TransientExecutionError("flaky landing")]

            def land():
                if failures:
                    raise failures.pop()
                append(table, batches)

            platform.ctx.with_retry("tables.append", land)

        platform.tables.append = flaky_append
        result = platform.home_engine.execute(
            f"CREATE TABLE ds.copy AS {SALES_SQL}", admin
        )
        (inner, row_before), = seen
        outer = platform.jobs()[-2]  # submitted first, so recorded first
        assert (outer.kind, inner.kind) == ("createtableasselect", "select")
        assert inner.stats is outer.stats is result.stats
        assert (inner.retry_count, outer.retry_count) == (1, 2)
        # The caller-facing stats carry the statement the caller ran.
        assert result.stats.retry_count == 2
        after = {row[0]: row for row in platform.system_tables.scan("JOBS", admin)}
        assert after[inner.job_id] == row_before
