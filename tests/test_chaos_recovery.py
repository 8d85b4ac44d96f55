"""End-to-end chaos tests: queries under injected faults recover via
retries and graceful degradation, outcomes land on INFORMATION_SCHEMA.JOBS,
and a fixed seed makes whole chaos runs exactly replayable."""

from __future__ import annotations

import pytest

from repro.errors import (
    ExecutionError,
    MetadataUnavailableError,
    ReproError,
    StorageError,
    TransientExecutionError,
    UnavailableError,
)
from repro.faults import FaultPlan, FaultSpec

from tests.helpers import fail_store_ops, make_platform, setup_sales_lake

SALES_SQL = "SELECT region, COUNT(*) AS n, SUM(amount) AS total FROM ds.sales GROUP BY region ORDER BY region"


@pytest.fixture
def lake():
    platform, admin = make_platform()
    table, store = setup_sales_lake(platform, admin)
    return platform, admin, table, store


def make_blmt(platform, admin, name, schema):
    """A managed table over its own writable bucket/connection."""
    from repro import Role

    store = platform.stores.store_for(platform.config.home_region.location)
    if not store.has_bucket("cust"):
        store.create_bucket("cust")
    conn_name = "ds.custconn"
    if not platform.connections.has_connection(conn_name):
        conn = platform.connections.create_connection(conn_name)
        platform.connections.grant_lake_access(conn, "cust", writable=True)
        platform.iam.grant(f"connections/{conn_name}", Role.CONNECTION_USER, admin)
    return platform.tables.create_blmt(
        admin, "ds", name, schema, "cust", name, conn_name
    )


class TestTaskRetry:
    def test_worker_restart_retried_without_duplicate_rows(self, lake):
        platform, admin, _, _ = lake
        baseline = platform.home_engine.execute(SALES_SQL, admin).rows()
        platform.ctx.faults.add(
            FaultSpec(op="engine.task", error="TransientExecutionError", count=1)
        )
        result = platform.home_engine.execute(SALES_SQL, admin)
        # The retried stream must not leak a partial first attempt.
        assert result.rows() == baseline
        assert result.stats.retry_count >= 1
        assert not result.stats.degraded


class TestRetrySafeScanAccounting:
    """Regression: a retried stream read must not double-count scan stats.

    The plan below exhausts one data GET's inner retry budget (max_attempts
    consecutive fires) mid-stream, after earlier files' bytes/rows already
    accrued on the session, so the failure escalates to the ``engine.task``
    retry and re-runs the whole stream. Pre-fix, the failed attempt's
    partial progress stayed on ``SessionStats`` and the re-execution counted
    it again.
    """

    # Window start chosen (deterministic sim time, slots=1) so the burst
    # lands on a mid-stream data GET — files before it have accrued stats.
    # The premise assertions below fail loudly if cost-model changes ever
    # move the window off target; re-tune the constant then.
    PLAN = [
        FaultSpec(
            op="objectstore.get", error="UnavailableError", count=4, start_ms=300.0
        )
    ]
    SQL = "SELECT region, SUM(amount) AS total FROM ds.sales GROUP BY region ORDER BY region"

    def run_single_stream(self, faulted: bool):
        platform, admin = make_platform()
        setup_sales_lake(platform, admin)
        engine = platform.home_engine
        engine.slots = 1  # one stream reads every file sequentially
        if faulted:
            platform.ctx.faults.install(FaultPlan(seed=0, specs=self.PLAN))
        result = engine.execute(self.SQL, admin)
        task_retries = platform.ctx.metrics.counter("repro_retries_total").get(
            op="engine.task"
        )
        return platform, result, task_retries

    def per_file_bytes(self, platform):
        """(full size, needed-column chunk bytes) for each sales file."""
        from repro.formats import pqs

        store = platform.stores.store_for(platform.config.home_region.location)
        out = []
        for i in range(4):
            data = store.get_object("lake", f"sales/part-{i:04d}.pqs")
            footer = pqs.read_footer(data)
            needed = sum(
                rg.column(name).length
                for rg in footer.row_groups
                for name in ("region", "amount")
            )
            out.append((len(data), needed))
        return out

    def test_retried_stream_does_not_double_count_stats(self):
        from itertools import combinations

        _, clean, _ = self.run_single_stream(faulted=False)
        platform, chaos, task_retries = self.run_single_stream(faulted=True)
        # Premise: the fault escalated past the per-GET retry into a full
        # stream re-run (otherwise this test is not covering the rollback).
        assert task_retries >= 1
        assert chaos.rows() == clean.rows()
        # No double-counted rows from the rolled-back attempt.
        assert chaos.stats.rows_scanned == clean.stats.rows_scanned
        # Every source byte is accounted exactly once: the files the failed
        # attempt already admitted to the cache are re-served as chunk-level
        # hits (needed columns only), the rest are scanned whole — so the
        # totals must decompose as one cold/warm partition of the 4 files.
        files = self.per_file_bytes(platform)
        partitions = [
            (
                sum(size for j, (size, _) in enumerate(files) if j not in warm),
                sum(needed for j, (_, needed) in enumerate(files) if j in warm),
            )
            for k in range(1, len(files))
            for warm in combinations(range(len(files)), k)
        ]
        assert (
            chaos.stats.bytes_scanned,
            chaos.stats.cache_hit_bytes,
        ) in partitions

    def test_rollback_is_what_prevents_double_counting(self, monkeypatch):
        # Bug reproducer: with the per-attempt rollback disabled, the same
        # seeded plan double-counts the failed attempt's partial progress —
        # proving the scenario above actually exercises the fix.
        from repro.storageapi.read_api import SessionStats

        _, clean, _ = self.run_single_stream(faulted=False)
        monkeypatch.setattr(SessionStats, "restore", lambda self, snap: None)
        _, chaos, task_retries = self.run_single_stream(faulted=True)
        assert task_retries >= 1
        assert chaos.rows() == clean.rows()  # results stay correct...
        # ...but the accounting inflates without the snapshot/rollback.
        assert chaos.stats.rows_scanned > clean.stats.rows_scanned

    def test_transient_get_fault_retried(self, lake):
        platform, admin, _, _ = lake
        # Data cache off: a warm second run would serve the scan without any
        # GET, so the injected store fault would never reach the retry path
        # this test is about.
        platform.data_cache.config.enabled = False
        # Warm the metadata cache first so the fault fires on the data-read
        # path (wrapped in with_retry) rather than during cache refresh
        # (which would be absorbed by degradation instead).
        platform.home_engine.execute(SALES_SQL, admin)
        platform.ctx.faults.add(
            FaultSpec(op="objectstore.get", error="UnavailableError", count=1)
        )
        result = platform.home_engine.execute(SALES_SQL, admin)
        assert result.num_rows == 3
        assert result.stats.retry_count >= 1

    def test_persistent_fault_exhausts_budget_and_fails(self, lake):
        platform, admin, _, _ = lake
        platform.ctx.faults.install(FaultPlan(seed=0, specs=[
            FaultSpec(op="engine.task", error="TransientExecutionError", rate=1.0)
        ]))
        with pytest.raises(ExecutionError):
            platform.home_engine.execute(SALES_SQL, admin)
        assert (
            platform.ctx.metering.op_counts["repro.retry"]
            == platform.ctx.retry.max_attempts - 1
        )

    def test_retries_disabled_fails_fast(self, lake):
        platform, admin, _, _ = lake
        platform.ctx.retry.enabled = False
        platform.ctx.faults.add(
            FaultSpec(op="engine.task", error="TransientExecutionError", count=1)
        )
        with pytest.raises(TransientExecutionError):
            platform.home_engine.execute(SALES_SQL, admin)
        assert "repro.retry" not in platform.ctx.metering.op_counts

    def test_legacy_injected_fault_still_fatal(self, lake):
        # A plain (non-transient) StorageError is a crash: the retry
        # layer must pass it through untouched.
        platform, admin, _, store = lake
        fail_store_ops(store, "get", 1)
        with pytest.raises(StorageError) as err:
            platform.home_engine.execute(SALES_SQL, admin)
        assert not isinstance(err.value, UnavailableError)


class TestGracefulDegradation:
    def test_metadata_outage_degrades_to_listing(self, lake):
        platform, admin, _, _ = lake
        baseline = platform.home_engine.execute(SALES_SQL, admin).rows()
        platform.ctx.faults.install(FaultPlan(seed=0, specs=[
            FaultSpec(op="bigmeta.lookup", error="MetadataUnavailableError", rate=1.0)
        ]))
        result = platform.home_engine.execute(SALES_SQL, admin)
        assert result.rows() == baseline
        assert result.stats.degraded
        assert platform.ctx.metering.op_counts["repro.degraded"] >= 1
        # The fallback actually LISTed the bucket.
        assert platform.ctx.metering.op_counts["object_store.list_page"] >= 1

    def test_degradation_metric_labelled(self, lake):
        platform, admin, _, _ = lake
        platform.ctx.faults.add(
            FaultSpec(op="bigmeta.lookup", error="MetadataUnavailableError", count=1)
        )
        platform.home_engine.execute(SALES_SQL, admin)
        assert "metadata_cache" in platform.ctx.metrics.render()

    def test_blmt_does_not_degrade_to_listing(self, lake):
        # BLMT buckets may hold uncommitted files: Big Metadata is the only
        # source of truth, so a metadata outage fails the query (after
        # retries) rather than serving a possibly-wrong listing.
        platform, admin, _, _ = lake
        from repro import DataType, Schema, batch_from_pydict

        schema = Schema.of(("k", DataType.INT64))
        table = make_blmt(platform, admin, "managed_t", schema)
        platform.tables.blmt.insert(
            table, [batch_from_pydict(schema, {"k": [1, 2]})]
        )
        platform.ctx.faults.install(FaultPlan(seed=0, specs=[
            FaultSpec(op="bigmeta.lookup", error="MetadataUnavailableError", rate=1.0)
        ]))
        with pytest.raises(MetadataUnavailableError):
            platform.home_engine.execute("SELECT COUNT(*) FROM ds.managed_t", admin)
        assert "repro.degraded" not in platform.ctx.metering.op_counts

    def test_transient_metadata_blip_recovers_without_degrading(self, lake):
        # One blip, then healthy: BLMT prune retry absorbs it.
        platform, admin, _, _ = lake
        from repro import DataType, Schema, batch_from_pydict

        schema = Schema.of(("k", DataType.INT64))
        table = make_blmt(platform, admin, "managed_u", schema)
        platform.tables.blmt.insert(
            table, [batch_from_pydict(schema, {"k": [1, 2, 3]})]
        )
        platform.ctx.faults.add(
            FaultSpec(op="bigmeta.lookup", error="MetadataUnavailableError", count=1)
        )
        result = platform.home_engine.execute("SELECT COUNT(*) FROM ds.managed_u", admin)
        assert result.single_value() == 3
        assert result.stats.retry_count >= 1


class TestJobsVisibility:
    def test_retry_and_degraded_columns_on_jobs(self, lake):
        platform, admin, _, _ = lake
        platform.ctx.faults.add(
            FaultSpec(op="engine.task", error="TransientExecutionError", count=1)
        )
        platform.ctx.faults.add(
            FaultSpec(op="bigmeta.lookup", error="MetadataUnavailableError", count=1)
        )
        platform.home_engine.execute(SALES_SQL, admin)
        rows = platform.home_engine.execute(
            "SELECT job_id, state, retry_count, degraded FROM INFORMATION_SCHEMA.JOBS "
            "ORDER BY job_id",
            admin,
        ).rows()
        job_id, state, retry_count, degraded = rows[0]
        assert state == "SUCCEEDED"
        assert retry_count >= 1
        assert degraded is True

    def test_failed_job_records_retries_spent(self, lake):
        platform, admin, _, _ = lake
        platform.ctx.faults.install(FaultPlan(seed=0, specs=[
            FaultSpec(op="engine.task", error="TransientExecutionError", rate=1.0)
        ]))
        with pytest.raises(ExecutionError):
            platform.home_engine.execute(SALES_SQL, admin)
        platform.ctx.faults.clear()
        rows = platform.home_engine.execute(
            "SELECT state, retry_count, error FROM INFORMATION_SCHEMA.JOBS",
            admin,
        ).rows()
        state, retry_count, error = rows[0]
        assert state == "FAILED"
        assert retry_count == platform.ctx.retry.max_attempts - 1
        assert "injected TransientExecutionError" in error

    def test_retry_spans_in_trace(self, lake):
        platform, admin, _, _ = lake
        platform.ctx.faults.add(
            FaultSpec(op="engine.task", error="TransientExecutionError", count=1)
        )
        result = platform.home_engine.execute(SALES_SQL, admin)
        names = _span_names(result.trace)
        assert "retry.backoff" in names

    def test_faults_injected_metric(self, lake):
        platform, admin, _, _ = lake
        platform.ctx.faults.add(
            FaultSpec(op="objectstore.get", error="UnavailableError", count=1)
        )
        platform.home_engine.execute(SALES_SQL, admin)
        assert "repro_faults_injected_total" in platform.ctx.metrics.render()


class TestDeterminism:
    WORKLOAD = [
        SALES_SQL,
        "SELECT COUNT(*) FROM ds.sales WHERE year = 2023",
        "SELECT SUM(amount) FROM ds.sales WHERE region = 'eu'",
        "SELECT order_id FROM ds.sales WHERE order_id < 10 ORDER BY order_id",
    ]

    def _chaos_run(self, seed: int):
        platform, admin = make_platform()
        setup_sales_lake(platform, admin)
        platform.ctx.faults.install(FaultPlan.uniform(0.2, seed=seed))
        for sql in self.WORKLOAD:
            try:
                platform.home_engine.execute(sql, admin)
            except ReproError:
                pass
        events = [
            (e.seq, e.op, e.error, round(e.at_ms, 6))
            for e in platform.ctx.faults.events
        ]
        platform.ctx.faults.clear()
        rows = platform.home_engine.execute(
            "SELECT job_id, state, retry_count, degraded, error "
            "FROM INFORMATION_SCHEMA.JOBS ORDER BY job_id",
            admin,
        ).rows()
        outcomes = [tuple(r) for r in rows]
        return outcomes, events

    def test_same_seed_same_run(self):
        outcomes_a, events_a = self._chaos_run(seed=1234)
        outcomes_b, events_b = self._chaos_run(seed=1234)
        assert outcomes_a == outcomes_b
        assert events_a == events_b

    def test_different_seed_different_faults(self):
        # Not guaranteed in general, but at 20% over this workload the fault
        # sequences diverge for these specific seeds.
        _, events_a = self._chaos_run(seed=1)
        _, events_b = self._chaos_run(seed=2)
        assert events_a != events_b


class TestWritePathRecovery:
    def test_blmt_insert_survives_transient_put(self, lake):
        platform, admin, _, _ = lake
        from repro import DataType, Schema, batch_from_pydict

        schema = Schema.of(("k", DataType.INT64))
        table = make_blmt(platform, admin, "w1", schema)
        platform.ctx.faults.add(
            FaultSpec(op="objectstore.put", error="UnavailableError", count=1)
        )
        platform.tables.blmt.insert(
            table, [batch_from_pydict(schema, {"k": [1, 2, 3]})]
        )
        result = platform.home_engine.execute("SELECT COUNT(*) FROM ds.w1", admin)
        assert result.single_value() == 3
        assert platform.ctx.metering.op_counts["repro.retry"] >= 1

    def test_blmt_insert_survives_transient_commit(self, lake):
        platform, admin, _, _ = lake
        from repro import DataType, Schema, batch_from_pydict

        schema = Schema.of(("k", DataType.INT64))
        table = make_blmt(platform, admin, "w2", schema)
        platform.ctx.faults.add(
            FaultSpec(op="bigmeta.commit", error="MetadataUnavailableError", count=1)
        )
        platform.tables.blmt.insert(
            table, [batch_from_pydict(schema, {"k": [7]})]
        )
        result = platform.home_engine.execute("SELECT COUNT(*) FROM ds.w2", admin)
        assert result.single_value() == 1  # exactly once: no double commit


def _span_names(span, acc=None):
    acc = acc if acc is not None else set()
    if span is None:
        return acc
    acc.add(span.name)
    for child in span.children:
        _span_names(child, acc)
    return acc
