"""Integration tests for the async jobs API (``repro.serving.jobs``).

Drives the BigQuery-shaped surface end to end over a real platform:
submit/wait lifecycle and the PENDING -> RUNNING -> terminal record
trail, FIFO-within-principal and fair-share-across-principals admission
(pinned through observable start times), cancellation of queued vs
running jobs (via the deterministic ``on_admit`` seam), the ``JobsApi``
REST facade, and the headline determinism claim: a seeded 20-job
multi-principal serve run — chaos plan included — replays
byte-identically.
"""

from __future__ import annotations

import json

import pytest

from repro import Cloud, DataType, MetadataCacheMode, Region, Schema, batch_from_pydict
from repro.core.platform import LakehousePlatform, PlatformConfig
from repro.errors import AnalysisError, JobCancelledError, NotFoundError
from repro.faults import FaultPlan
from repro.security.iam import Role
from repro.serving.jobs import ServingConfig
from repro.serving.workload import run_serve
from repro.sql.parser import parse_statement
from repro.storageapi.fileutil import write_data_file

from tests.helpers import make_platform, setup_sales_lake
from tests.reference_scheduler import attempt_facts

SALES_SQL = (
    "SELECT region, SUM(amount) AS total FROM ds.sales "
    "WHERE year = 2023 GROUP BY region ORDER BY total DESC"
)
POINT_SQL = "SELECT COUNT(*) AS n FROM ds.sales WHERE region = 'eu'"


def serving_platform(**serving_kwargs):
    platform = LakehousePlatform(
        PlatformConfig(serving=ServingConfig(**serving_kwargs))
    )
    admin = platform.admin_user()
    setup_sales_lake(platform, admin)
    return platform, admin


def analyst(platform, name):
    user = platform.create_user(name, [Role.DATA_VIEWER, Role.JOB_USER])
    platform.iam.grant("connections/ds.lakeconn", Role.CONNECTION_USER, user)
    return user


class TestLifecycle:
    def test_submit_is_pending_until_waited(self):
        platform, admin = serving_platform()
        job = platform.submit(SALES_SQL, admin)
        assert job.state == "PENDING"
        assert not job.done
        record = platform.job(job.job_id)
        assert record.state == "PENDING"
        assert record.creation_ms == job.creation_ms
        result = job.wait()
        assert job.state == "SUCCEEDED"
        assert record.state == "SUCCEEDED"
        assert result.rows() == platform.home_engine.execute(
            SALES_SQL, admin
        ).rows()
        assert record.end_ms >= record.start_ms >= record.creation_ms
        assert record.queue_wait_ms == record.start_ms - record.creation_ms

    def test_execute_is_submit_plus_wait(self):
        # The blocking entry point is a special case of the async one:
        # both paths land identical rows and identical record shapes.
        platform, admin = serving_platform()
        via_execute = platform.home_engine.execute(SALES_SQL, admin)
        blocking = platform.history.last
        job = platform.submit(SALES_SQL, admin)
        via_jobs = job.wait()
        assert via_jobs.rows() == via_execute.rows()
        async_record = platform.history.last
        assert async_record is not blocking
        assert blocking.state == async_record.state == "SUCCEEDED"
        assert async_record.total_ms == pytest.approx(
            via_jobs.stats.elapsed_ms
        )

    def test_wait_is_idempotent(self):
        platform, admin = serving_platform()
        job = platform.submit(SALES_SQL, admin)
        assert job.wait() is job.wait() is job.result()

    def test_validation_failure_records_failed_and_raises(self):
        platform, admin = serving_platform()
        with pytest.raises(AnalysisError, match="snapshot_ms"):
            platform.submit(
                "CREATE TABLE ds.t AS SELECT * FROM ds.sales",
                admin,
                snapshot_ms=1.0,
            )
        record = platform.history.last
        assert record.state == "FAILED"
        assert "snapshot_ms" in record.error

    def test_failed_job_wait_reraises(self):
        platform, admin = serving_platform()
        job = platform.submit("SELECT * FROM ds.missing", admin)
        assert job.state == "PENDING"  # parse-valid: fails at execution
        with pytest.raises(NotFoundError):
            job.wait()
        assert job.state == "FAILED"
        with pytest.raises(NotFoundError):  # terminal: re-raised, not re-run
            job.wait()
        assert platform.job(job.job_id).state == "FAILED"


class TestAdmissionOrdering:
    def test_fifo_within_principal(self):
        platform, admin = serving_platform(max_concurrent_jobs=1)
        alice = analyst(platform, "alice")
        jobs = []
        for _ in range(3):
            jobs.append(platform.submit(POINT_SQL, alice))
            platform.ctx.clock.advance(1.0)
        jobs[-1].wait()
        starts = [job.start_ms for job in jobs]
        assert all(job.state == "SUCCEEDED" for job in jobs)
        assert starts == sorted(starts)
        # One seat: each later job waits for the previous one's makespan.
        assert jobs[1].queue_wait_ms > 0
        assert jobs[2].queue_wait_ms > jobs[1].queue_wait_ms

    def test_fair_share_across_principals(self):
        # alice queues three jobs before bob's lands; with one seat the
        # pool still alternates: bob runs second, not behind her backlog.
        platform, admin = serving_platform(max_concurrent_jobs=1)
        alice, bob = analyst(platform, "alice"), analyst(platform, "bob")
        a_jobs = [platform.submit(POINT_SQL, alice) for _ in range(3)]
        platform.ctx.clock.advance(1.0)
        b_job = platform.submit(POINT_SQL, bob)
        platform.drain()
        assert a_jobs[0].start_ms < b_job.start_ms < a_jobs[1].start_ms
        assert a_jobs[1].start_ms < a_jobs[2].start_ms

    def test_concurrent_batch_records_full_lifecycle(self):
        platform, admin = serving_platform(max_concurrent_jobs=4)
        users = [analyst(platform, f"u{i}") for i in range(3)]
        jobs = []
        for i in range(6):
            jobs.append(platform.submit(POINT_SQL, users[i % 3]))
            platform.ctx.clock.advance(2.0)
        platform.drain()
        for job in jobs:
            record = platform.job(job.job_id)
            assert record.state == "SUCCEEDED"
            assert record.end_ms >= record.start_ms >= record.creation_ms
            assert record.queue_wait_ms == pytest.approx(
                record.start_ms - record.creation_ms
            )
        # The batch genuinely overlapped: someone started before an
        # earlier submitter finished.
        assert any(
            later.start_ms < earlier.end_ms
            for i, earlier in enumerate(jobs)
            for later in jobs[i + 1 :]
        )


class TestCancellation:
    def test_cancel_queued_job_before_drain(self):
        platform, admin = serving_platform()
        keep = platform.submit(SALES_SQL, admin)
        drop = platform.submit(SALES_SQL, admin)
        before = platform.ctx.metrics.counter(
            "repro_jobs_cancelled_total", "jobs cancelled before completion"
        ).total()
        assert drop.cancel() is True
        assert drop.state == "CANCELLED"
        assert drop.cancel() is False  # already terminal
        with pytest.raises(JobCancelledError):
            drop.wait()
        assert keep.wait().num_rows > 0
        record = platform.job(drop.job_id)
        assert record.state == "CANCELLED"
        assert record.error == "job cancelled"
        assert record.start_ms == 0.0  # never admitted
        counter = platform.ctx.metrics.counter(
            "repro_jobs_cancelled_total", "jobs cancelled before completion"
        )
        assert counter.total() == before + 1

    def test_cancel_queued_job_mid_drain(self):
        # One seat: job2 is still in the pool's admission queue when job1
        # runs; cancelling it there must drop it without admission.
        platform, admin = serving_platform(max_concurrent_jobs=1)
        job1 = platform.submit(SALES_SQL, admin)
        job2 = platform.submit(SALES_SQL, admin)
        platform.job_queue.on_admit(
            lambda job: job2.cancel() if job is job1 else None
        )
        job1.wait()
        assert job1.state == "SUCCEEDED"
        assert job2.state == "CANCELLED"
        assert job2.start_ms == 0.0  # cancelled pre-admission: never ran
        assert platform.job(job2.job_id).state == "CANCELLED"

    def test_cancel_running_job_mid_drain(self):
        # Two seats: job1 is mid-flight when job2's admission hook fires;
        # cancellation deschedules its remaining model time.
        platform, admin = serving_platform(max_concurrent_jobs=2)
        alice, bob = analyst(platform, "alice"), analyst(platform, "bob")
        job1 = platform.submit(SALES_SQL, alice)
        platform.ctx.clock.advance(1.0)
        job2 = platform.submit(SALES_SQL, bob)
        platform.job_queue.on_admit(
            lambda job: job1.cancel() if job is job2 else None
        )
        platform.drain()
        assert job1.state == "CANCELLED"
        assert job1.start_ms > 0  # it was admitted and running
        with pytest.raises(JobCancelledError):
            job1.wait()
        assert job2.state == "SUCCEEDED"
        record = platform.job(job1.job_id)
        assert record.state == "CANCELLED"
        # Torn down at job2's admission instant, not at its own end.
        assert record.end_ms == pytest.approx(job2.start_ms)


class TestJobsApiFacade:
    def test_insert_get_query_results(self):
        platform, admin = serving_platform()
        resource = platform.jobs_api.insert(SALES_SQL, admin)
        job_id = resource["jobReference"]["jobId"]
        assert resource["status"]["state"] == "PENDING"
        assert resource["configuration"]["query"]["query"] == SALES_SQL
        results = platform.jobs_api.get_query_results(job_id)
        assert results["jobComplete"] is True
        assert results["totalRows"] == len(results["rows"]) > 0
        assert [f["name"] for f in results["schema"]["fields"]] == [
            "region", "total",
        ]
        done = platform.jobs_api.get(job_id)
        assert done["status"]["state"] == "SUCCEEDED"
        stats = done["statistics"]
        assert stats["endTime"] >= stats["startTime"] >= stats["creationTime"]

    def test_cancel_and_unknown_job(self):
        platform, admin = serving_platform()
        resource = platform.jobs_api.insert(SALES_SQL, admin)
        cancelled = platform.jobs_api.cancel(resource["jobReference"]["jobId"])
        assert cancelled["status"]["state"] == "CANCELLED"
        with pytest.raises(NotFoundError):
            platform.jobs_api.get("job_999999")

    def test_failed_job_resource_carries_error(self):
        platform, admin = serving_platform()
        resource = platform.jobs_api.insert("SELECT * FROM ds.missing", admin)
        job = platform.job_queue.get(resource["jobReference"]["jobId"])
        with pytest.raises(NotFoundError):
            job.wait()
        failed = platform.jobs_api.get(job.job_id)
        assert failed["status"]["state"] == "FAILED"
        assert "ds.missing" in failed["status"]["errorResult"]["message"]


class TestSeededReplay:
    """The tentpole determinism claim, pinned at 20-job scale."""

    def test_twenty_job_replay_is_byte_identical(self):
        first = run_serve(seed=11, jobs=20, scale=0.05, analysts=4)
        second = run_serve(seed=11, jobs=20, scale=0.05, analysts=4)
        assert first["states"] == {"SUCCEEDED": 20}
        assert first["tie_out_ok"]
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_chaos_replay_is_byte_identical(self):
        chaos = ["objectstore.get:rate=0.25:max=40", "task.slow:rate=0.15:factor=4"]
        first = run_serve(seed=11, jobs=20, scale=0.05, analysts=4, chaos=chaos)
        second = run_serve(seed=11, jobs=20, scale=0.05, analysts=4, chaos=chaos)
        assert first["tie_out_ok"]
        assert sum(first["states"].values()) == 20
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_different_seed_changes_arrivals(self):
        a = run_serve(seed=1, jobs=6, scale=0.05, analysts=2)
        b = run_serve(seed=2, jobs=6, scale=0.05, analysts=2)
        assert [j["creation_ms"] for j in a["jobs"]] != [
            j["creation_ms"] for j in b["jobs"]
        ]


STRAGGLERS = ["task.slow:rate=0.4:factor=6"]
AWS = Region(Cloud.AWS, "us-east-1")
ORDERS = Schema.of(
    ("order_id", DataType.INT64),
    ("customer_id", DataType.INT64),
    ("order_total", DataType.FLOAT64),
)
ORDERS_SQL = (
    "SELECT customer_id, SUM(order_total) AS total "
    "FROM aws_dataset.customer_orders WHERE order_total > 150 GROUP BY customer_id"
)


def verdict_facts(timeline, *rest):
    return (
        [attempt_facts(r) for r in timeline],
        sum(r.speculative and r.winner for r in timeline),
        *rest,
    )


def next_probes(platform):
    """What the fault stream hands out next: equal lists mean the two
    platforms have consumed their (same-seed) RNGs identically."""
    return [
        platform.ctx.faults.slowdown("task.slow", stage="probe", task=i)
        for i in range(8)
    ]


class TestInlineMatchesPooled:
    """A statement that runs inline — nested in another job, or a regional
    subquery — gets the verdict the same statement gets as a queued job
    alone on the shared pool, and draws the same straggler factors."""

    def sales_platform(self):
        platform, admin = make_platform()
        setup_sales_lake(platform, admin, files=12)
        platform.ctx.faults.install(FaultPlan.parse(STRAGGLERS, seed=3))
        return platform, admin

    def test_ctas_inner_select_matches_top_level_select(self):
        nested, admin = self.sales_platform()
        nested.home_engine.execute(f"CREATE TABLE ds.copy AS {SALES_SQL}", admin)
        inner = [r for r in nested.history.jobs() if r.kind == "select"][-1]
        queued, admin = self.sales_platform()
        queued.home_engine.execute(SALES_SQL, admin)
        top = queued.history.last
        assert inner.job_id != top.job_id  # the inner SELECT is its own job
        assert inner.speculative_count >= 1  # a backup launched
        for record in (inner, top):
            assert record.state == "SUCCEEDED" and record.queue_wait_ms == 0.0
        assert verdict_facts(
            inner.task_timeline, inner.total_ms, inner.speculative_count,
            inner.task_skew,
        ) == verdict_facts(
            top.task_timeline, top.total_ms, top.speculative_count, top.task_skew
        )
        assert next_probes(nested) == next_probes(queued)

    def orders_platform(self):
        platform, admin = make_platform()
        platform.omni.deploy_region(AWS)
        s3 = platform.stores.store_for(AWS.location)
        s3.create_bucket("orders-s3")
        conn = platform.connections.create_connection("aws.orders")
        platform.connections.grant_lake_access(conn, "orders-s3")
        platform.iam.grant("connections/aws.orders", Role.CONNECTION_USER, admin)
        for f in range(10):
            rows = {
                "order_id": list(range(f * 60, (f + 1) * 60)),
                "customer_id": [i % 25 for i in range(60)],
                "order_total": [float(i) * 2 * (f + 1) for i in range(60)],
            }
            write_data_file(
                s3, "orders-s3", f"orders/part-{f}.pqs", ORDERS,
                [batch_from_pydict(ORDERS, rows)],
            )
        platform.catalog.create_dataset("aws_dataset")
        platform.tables.create_biglake_table(
            admin, "aws_dataset", "customer_orders", ORDERS,
            "orders-s3", "orders", "aws.orders",
            cache_mode=MetadataCacheMode.AUTOMATIC,
        )
        platform.ctx.faults.install(FaultPlan.parse(STRAGGLERS, seed=3))
        return platform, admin, platform.engine_in(AWS.location)

    def test_regional_subquery_matches_queued_select(self):
        # The cross-cloud planner runs each regional subquery through
        # ``_run_plan`` on the remote engine, which settles the verdict alone.
        direct, admin, engine = self.orders_platform()
        subquery = engine._run_plan(engine.plan(parse_statement(ORDERS_SQL)), admin)
        queued, admin, engine = self.orders_platform()
        select = engine.execute(ORDERS_SQL, admin)
        assert subquery.rows() == select.rows()
        assert subquery.stats.speculative_count >= 1  # a backup launched
        assert verdict_facts(
            subquery.stats.task_timeline, subquery.stats.elapsed_ms,
            subquery.stats.speculative_count, subquery.stats.speculative_wins,
            subquery.stats.task_skew,
        ) == verdict_facts(
            select.stats.task_timeline, select.stats.elapsed_ms,
            select.stats.speculative_count, select.stats.speculative_wins,
            select.stats.task_skew,
        )
        assert next_probes(direct) == next_probes(queued)
