"""Integration tests for fleet telemetry (``repro.obs.monitor``).

The load-bearing claims, each pinned here:

* **Tie-out by construction** — ``RESERVATION_TIMELINE`` is derived from
  the same pool verdicts as ``JOBS``/``JOBS_TIMELINE``, so per-principal
  sums (slot-ms vs scheduler.task durations, queue-ms vs queue waits,
  admissions vs job counts) must agree field by field.
* **Compute-run parity** — pool-executed jobs and the solo scheduler
  path both emit ``stage="compute"`` task runs, so slot accounting ties
  out across both paths.
* **Observer-effect zero** — enabling scraping/alerting changes no query
  results, fault draws, or JOBS rows: the serve report is byte-identical
  monitoring on vs off, chaos included.
* **Governance** — RESERVATION_TIMELINE scopes to the caller like JOBS;
  METRICS_HISTORY/ALERTS are admin-only with audited denials.
* **Deterministic alerting** — a seeded chaos run fires the burn-rate
  rules; exports load as JSON and replay byte-identically.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import AccessDeniedError
from repro.obs.export import serve_chrome_trace_json
from repro.serving.workload import run_monitor, run_serve

SMOKE = dict(jobs=6, scale=0.05, analysts=2, mean_gap_ms=30.0)
CHAOS_PLAN = [
    "objectstore.get:rate=0.25:max=40",
    "task.slow:rate=0.15:factor=4",
    "cache.get:rate=0.35:max=30",
]


@pytest.fixture(scope="module")
def monitored():
    """One monitored smoke serve run (plain) plus its live platform."""
    keep: dict = {}
    report = run_monitor(seed=11, keep=keep, **SMOKE)
    return report, keep


@pytest.fixture(scope="module")
def monitored_chaos():
    keep: dict = {}
    report = run_monitor(seed=11, chaos=CHAOS_PLAN, keep=keep, **SMOKE)
    return report, keep


class TestReservationTieOut:
    def test_reservation_ties_out_against_jobs_aggregates(self, monitored):
        report, _ = monitored
        section = report["monitor"]
        assert section["tie_out_errors"] == []
        assert section["tie_out_ok"] and report["tie_out_ok"]
        # Field-by-field: the tie-out compared all four aggregates for
        # every analyst, and both sides were non-trivial.
        assert len(section["tie_out"]) == SMOKE["analysts"]
        for entry in section["tie_out"].values():
            assert set(entry) == {
                "slot_ms", "queue_ms", "jobs_admitted", "jobs_completed",
            }
            assert entry["slot_ms"]["reservation"] > 0
            assert entry["jobs_completed"]["jobs"] >= 1

    def test_tie_out_holds_under_chaos(self, monitored_chaos):
        report, _ = monitored_chaos
        assert report["monitor"]["tie_out_errors"] == []

    def test_reservation_rows_shape_and_split(self, monitored):
        _, keep = monitored
        monitor = keep["platform"].monitor
        rows = monitor.reservation_rows()
        assert rows, "monitored run produced no reservation rows"
        for row in rows:
            assert len(row) == 13
            slot, scan, compute = row[3], row[4], row[5]
            assert slot == pytest.approx(scan + compute)
            assert row[1] > row[0]  # period_end > period_start


class TestComputeRunParity:
    def test_pool_jobs_record_compute_runs(self, monitored):
        _, keep = monitored
        platform = keep["platform"]
        succeeded = [
            platform.job(job.job_id)
            for _, job in keep["handles"]
            if job.state == "SUCCEEDED"
        ]
        assert succeeded
        for record in succeeded:
            compute = [r for r in record.task_timeline if r.stage == "compute"]
            if record.compute_parallelism > 0:
                assert len(compute) == record.compute_parallelism
                assert all(r.winner and not r.speculative for r in compute)
                # Compute pipelines per slot: each compute run starts only
                # once the last scan run on ITS slot has finished (other
                # slots may still be scanning another table of a join).
                for run in compute:
                    slot_scan_end = max(
                        (
                            r.end_ms
                            for r in record.task_timeline
                            if r.stage != "compute" and r.slot == run.slot
                        ),
                        default=0.0,
                    )
                    assert run.start_ms >= slot_scan_end - 1e-3

    def test_solo_path_emits_compute_runs_too(self):
        from tests.helpers import make_platform, setup_sales_lake

        platform, admin = make_platform()
        setup_sales_lake(platform, admin)
        stats = platform.home_engine.execute(
            "SELECT region, SUM(amount) AS total FROM ds.sales "
            "GROUP BY region ORDER BY total DESC",
            admin,
        ).stats
        compute = [r for r in stats.task_timeline if r.stage == "compute"]
        assert stats.compute_ms > 0
        assert len(compute) == stats.compute_parallelism
        per = stats.compute_ms / stats.compute_parallelism
        for p, run in enumerate(sorted(compute, key=lambda r: r.task)):
            assert run.task == p and run.slot == p
            assert run.end_ms - run.start_ms == pytest.approx(per)


class TestObserverEffectZero:
    @pytest.mark.parametrize("chaos", [None, CHAOS_PLAN], ids=["plain", "chaos"])
    def test_serve_report_identical_monitoring_on_vs_off(self, chaos):
        off = run_serve(seed=5, chaos=chaos, monitor=False, **SMOKE)
        on = run_serve(seed=5, chaos=chaos, monitor=True, **SMOKE)
        section = on.pop("monitor")
        assert section["batches_observed"] > 0 and section["scrapes"] > 0
        assert json.dumps(on, sort_keys=True) == json.dumps(off, sort_keys=True)


class TestGovernance:
    def test_reservation_timeline_scopes_to_caller(self, monitored):
        _, keep = monitored
        platform, admin = keep["platform"], keep["admin"]
        analyst = keep["users"][0]
        mine = platform.home_engine.execute(
            "SELECT principal FROM INFORMATION_SCHEMA.RESERVATION_TIMELINE",
            analyst,
        ).rows()
        assert mine, "analyst sees their own reservation intervals"
        assert {row[0] for row in mine} == {str(analyst)}
        everyone = platform.home_engine.execute(
            "SELECT principal FROM INFORMATION_SCHEMA.RESERVATION_TIMELINE",
            admin,
        ).rows()
        assert len({row[0] for row in everyone}) > 1

    @pytest.mark.parametrize("table", ["METRICS_HISTORY", "ALERTS"])
    def test_monitoring_tables_admin_only_with_audited_denial(
        self, monitored, table
    ):
        _, keep = monitored
        platform, admin = keep["platform"], keep["admin"]
        analyst = keep["users"][0]
        with pytest.raises(AccessDeniedError, match="admin-only"):
            platform.system_tables.scan(table, analyst)
        denied = [
            e
            for e in platform.audit.events
            if e.principal == analyst
            and not e.allowed
            and e.resource.endswith(f"informationSchema/{table}")
        ]
        assert denied, f"denied {table} read was not audited"
        # Admin reads fine, and METRICS_HISTORY carries live + kind cols.
        rows = platform.system_tables.scan(table, admin)
        if table == "METRICS_HISTORY":
            assert rows and len(rows[0]) == 6
        else:
            assert all(len(r) == 9 for r in rows)

    def test_metrics_history_readable_via_sql(self, monitored):
        _, keep = monitored
        platform, admin = keep["platform"], keep["admin"]
        count = platform.home_engine.execute(
            "SELECT COUNT(*) AS n FROM INFORMATION_SCHEMA.METRICS_HISTORY "
            "WHERE stale = FALSE",
            admin,
        ).single_value()
        assert count > 0

    def test_disabled_monitor_renders_empty_but_governed(self):
        from tests.helpers import make_platform

        platform, admin = make_platform()
        assert platform.system_tables.scan("RESERVATION_TIMELINE", admin) == []
        assert platform.system_tables.scan("METRICS_HISTORY", admin) == []
        viewer = platform.create_user("viewer", [])
        with pytest.raises(AccessDeniedError):
            platform.system_tables.scan("ALERTS", viewer)


class TestAlerting:
    def test_chaos_fires_burn_rate_alerts_deterministically(self, monitored_chaos):
        report, _ = monitored_chaos
        section = report["monitor"]
        assert "retry-budget-burn" in section["burn_alerts_fired"]
        assert section["alerts"], "chaos run logged no alert transitions"
        replay = run_monitor(seed=11, chaos=CHAOS_PLAN, **SMOKE)
        # RESOLVED events can carry value=NaN (window drained while the
        # rule was FIRING) and NaN != NaN, so compare the serialization.
        assert json.dumps(replay["monitor"]["alerts"]) == json.dumps(
            section["alerts"]
        )

    def test_plain_run_stays_quiet_on_pages(self, monitored):
        report, _ = monitored
        assert report["monitor"]["burn_alerts_fired"] == []

    def test_alerts_visible_in_alerts_table(self, monitored_chaos):
        _, keep = monitored_chaos
        platform, admin = keep["platform"], keep["admin"]
        rules = {
            row[0]
            for row in platform.home_engine.execute(
                "SELECT rule FROM INFORMATION_SCHEMA.ALERTS WHERE state = 'FIRING'",
                admin,
            ).rows()
        }
        assert "retry-budget-burn" in rules


class TestServeExports:
    def test_chrome_trace_loads_with_principal_lanes(self, monitored):
        _, keep = monitored
        records = keep["platform"].jobs()
        doc = json.loads(serve_chrome_trace_json(records))
        events = doc["traceEvents"]
        principals = {r.principal for r in records if r.done}
        lanes = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert len(lanes) == len(principals)
        assert any(e["name"] == "queued" for e in events)
        assert any(e.get("cat") == "scheduler" for e in events)

    def test_exports_are_deterministic(self):
        keeps = []
        for _ in range(2):
            keep: dict = {}
            run_serve(seed=9, monitor=True, keep=keep, **SMOKE)
            keeps.append(keep["platform"].jobs())
        assert serve_chrome_trace_json(keeps[0]) == serve_chrome_trace_json(keeps[1])


class TestVarianceAttribution:
    def test_jobs_table_exposes_variance_columns(self, monitored_chaos):
        _, keep = monitored_chaos
        platform, admin = keep["platform"], keep["admin"]
        rows = platform.home_engine.execute(
            "SELECT job_id, retry_count, backoff_ms, cold_read_ms, degraded_ms "
            "FROM INFORMATION_SCHEMA.JOBS",
            admin,
        ).rows()
        assert rows
        by_id = {row[0]: row for row in rows}
        retried = [row for row in by_id.values() if row[1] > 0]
        assert retried, "chaos run produced no retried jobs"
        # Every retry parks sim time in retry.backoff spans.
        assert all(row[2] > 0 for row in retried)
        assert all(row[3] >= 0 and row[4] >= 0 for row in by_id.values())

    def test_monitor_report_attributes_variance(self, monitored_chaos):
        report, _ = monitored_chaos
        variance = report["monitor"]["variance_ms"]
        assert variance
        for values in variance.values():
            assert set(values) == {
                "queue_ms", "backoff_ms", "cold_read_ms", "degraded_ms",
                "execute_ms",
            }
        assert any(v["backoff_ms"] > 0 for v in variance.values())


class TestLongLivedPlatformIsBounded:
    def test_tsdb_stops_growing_with_jobs_served(self, monkeypatch):
        """The monitor records four SLO event samples per settled job; a
        platform that keeps serving must not keep them all."""
        from repro.obs import tsdb
        from repro.serving.workload import build_serving_platform

        retention = 16
        monkeypatch.setattr(tsdb, "RETENTION_SAMPLES", retention)
        platform, _, users = build_serving_platform(
            scale=0.05, analysts=1, monitor=True
        )
        sql = "SELECT COUNT(*) AS n FROM tpch.nation"
        store = platform.monitor.store
        for _ in range(6 * retention):
            platform.submit(sql, users[0], use_query_cache=True)
            platform.ctx.clock.advance(1.0)
            platform.drain()
            assert store.sample_count() <= 2 * retention * len(store)
        # More jobs settled than a series may hold, and the event series
        # kept only their tail.
        assert len(store.points("job_retried")) <= 2 * retention
        assert store.last("job_retried", 1e12) == 0.0
