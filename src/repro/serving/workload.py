"""The ``python -m repro serve`` workload: many principals, one slot pool.

Builds a platform hosting both the TPC-H-lite and TPC-DS-lite lakes, a
bench of analyst principals (project ``DATA_VIEWER`` + ``JOB_USER`` plus
``CONNECTION_USER`` on the two lake connections), and replays a seeded
mixed workload through the async jobs API: jobs arrive with seeded
inter-arrival gaps, queue under admission control, and share the slot
pool fairly across principals. The report — per-principal p50/p99 queue
wait and the workload makespan — is read from the jobs' records and *tied
out* against ``INFORMATION_SCHEMA.JOBS`` (and ``JOBS_TIMELINE`` for the
task rows): what SQL returns — planner, scan, projection, rounding — must
be what the records hold.

Everything runs on the deterministic sim clock, so a seeded run — chaos
plan included — replays byte-identically; ``scripts/check.sh`` diffs two
invocations of the JSON report.
"""

from __future__ import annotations

import random
import zlib
from typing import Any

from repro.engine.scheduler import duration_quantile
from repro.errors import ReproError
from repro.obs.history import RUNNING
from repro.security.iam import Role
from repro.serving.jobs import ServingConfig

# Analyst bench (principal names double as fair-share identities).
ANALYSTS = ("amara", "bo", "chen", "dee")


def result_fingerprint(rows: list[tuple]) -> int:
    """Deterministic digest of a result's rows (CRC of their repr) — lets
    reports compare concurrent vs serial per-query results without
    shipping row payloads."""
    return zlib.crc32(repr(rows).encode("utf-8"))


def mixed_queries() -> list[tuple[str, str]]:
    """The TPC-H-lite / TPC-DS-lite mix, deterministically interleaved."""
    from repro.workloads import tpcds_lite, tpch_lite

    tpch = list(tpch_lite.queries().items())
    tpcds = list(tpcds_lite.queries().items())
    out: list[tuple[str, str]] = []
    for i in range(max(len(tpch), len(tpcds))):
        if i < len(tpch):
            out.append((f"tpch.{tpch[i][0]}", tpch[i][1]))
        if i < len(tpcds):
            out.append((f"tpcds.{tpcds[i][0]}", tpcds[i][1]))
    return out


def build_serving_platform(
    scale: float = 0.1,
    analysts: int = 4,
    max_concurrent_jobs: int = 4,
    inter_stage_overlap: bool = True,
    weights: dict[str, float] | None = None,
    monitor: bool = False,
):
    """(platform, admin, users) with both lakes loaded and analysts granted
    exactly what they need: read data, create jobs, use the connections."""
    from repro.core import LakehousePlatform
    from repro.core.platform import PlatformConfig
    from repro.obs.monitor import MonitorConfig
    from repro.workloads import tpcds_lite, tpch_lite

    platform = LakehousePlatform(
        PlatformConfig(
            serving=ServingConfig(
                max_concurrent_jobs=max_concurrent_jobs,
                inter_stage_overlap=inter_stage_overlap,
                weights=dict(weights or {}),
            ),
            monitoring=MonitorConfig(enabled=monitor),
        )
    )
    admin = platform.admin_user()
    tpch_lite.load_as_biglake(platform, admin, tpch_lite.generate(scale=scale))
    tpcds_lite.load_as_biglake(platform, admin, tpcds_lite.generate(scale=scale))
    users = []
    for name in ANALYSTS[:analysts]:
        user = platform.create_user(name, [Role.DATA_VIEWER, Role.JOB_USER])
        for connection in ("tpch.lake", "tpcds.lake"):
            platform.iam.grant(
                f"connections/{connection}", Role.CONNECTION_USER, user
            )
        users.append(user)
    return platform, admin, users


def run_serve(
    seed: int = 0,
    jobs: int = 20,
    scale: float = 0.1,
    analysts: int = 4,
    max_concurrent_jobs: int = 4,
    mean_gap_ms: float = 40.0,
    chaos: list[str] | None = None,
    weights: dict[str, float] | None = None,
    monitor: bool = False,
    keep: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Replay the seeded multi-principal workload; return the JSON-able
    report (deterministic: same seed => byte-identical report).

    ``monitor=True`` runs the same workload under fleet telemetry (the
    monitor is a pure reader: everything but the extra ``monitor`` report
    key is byte-identical — the observer-effect-zero property). ``keep``,
    when given, receives the live platform/admin/users/handles so callers
    (the monitor CLI, tests) can keep querying the system tables.
    """
    platform, admin, users = build_serving_platform(
        scale=scale,
        analysts=analysts,
        max_concurrent_jobs=max_concurrent_jobs,
        weights=weights,
        monitor=monitor,
    )
    queries = mixed_queries()
    rng = random.Random(seed)
    if chaos:
        from repro.faults import FaultPlan

        platform.ctx.faults.install(FaultPlan.parse(chaos, seed=seed))

    # Submit phase: jobs arrive PENDING with seeded inter-arrival gaps on
    # the sim clock (creation_time spacing drives queue-wait contention).
    handles = []
    for i in range(jobs):
        if i:
            platform.ctx.clock.advance(rng.random() * 2.0 * mean_gap_ms)
        name, sql = queries[i % len(queries)]
        user = users[i % len(users)]
        handles.append((name, platform.submit(sql, user)))

    # Serve phase: one shared-pool batch runs every queued job to a
    # terminal state (failures under chaos stay in history as FAILED).
    platform.drain()

    # Chaos off for the tie-out queries: the ground-truth read of the
    # system tables must not itself be able to fail.
    platform.ctx.faults.clear()
    sql_rows = {
        row[0]: row
        for row in platform.home_engine.execute(
            "SELECT job_id, user, state, queue_wait_ms, creation_ms, "
            "start_ms, end_ms, total_ms FROM INFORMATION_SCHEMA.JOBS",
            admin,
        ).rows()
    }

    job_rows: list[dict[str, Any]] = []
    waits_by_principal: dict[str, list[float]] = {}
    tie_out_errors: list[str] = []
    makespan_start = min(job.creation_ms for _, job in handles)
    makespan_end = 0.0
    for name, job in handles:
        row = sql_rows.get(job.job_id)
        if row is None:
            tie_out_errors.append(f"{job.job_id} missing from INFORMATION_SCHEMA.JOBS")
            continue
        _, sql_user, sql_state, sql_wait, sql_creation, sql_start, sql_end, _ = row
        if sql_state == RUNNING:
            tie_out_errors.append(f"{job.job_id} still RUNNING after drain")
        if sql_state != job.state:
            tie_out_errors.append(
                f"{job.job_id} state mismatch: sql={sql_state} handle={job.state}"
            )
        for label, sql_value, handle_value in (
            ("queue_wait_ms", sql_wait, job.queue_wait_ms),
            ("creation_ms", sql_creation, job.creation_ms),
            ("start_ms", sql_start, job.start_ms),
            ("end_ms", sql_end, job.end_ms),
        ):
            if abs(sql_value - round(handle_value, 3)) > 0.002:
                tie_out_errors.append(
                    f"{job.job_id} {label} mismatch: "
                    f"sql={sql_value} handle={handle_value}"
                )
        makespan_end = max(makespan_end, job.end_ms)
        waits_by_principal.setdefault(str(job.principal), []).append(
            job.queue_wait_ms
        )
        entry = {
            "job_id": job.job_id,
            "query": name,
            "principal": str(job.principal),
            "state": job.state,
            "creation_ms": round(job.creation_ms, 6),
            "start_ms": round(job.start_ms, 6),
            "end_ms": round(job.end_ms, 6),
            "queue_wait_ms": round(job.queue_wait_ms, 6),
        }
        if job.state == "SUCCEEDED":
            result = job.wait()
            entry["result_rows"] = result.num_rows
            entry["result_crc"] = result_fingerprint(result.rows())
        job_rows.append(entry)

    # JOBS_TIMELINE ground truth: the synthetic scheduler.task rows of the
    # first succeeded job must match its record's task timeline 1:1.
    first_ok = next(
        (job for _, job in handles if job.state == "SUCCEEDED"), None
    )
    timeline_rows = 0
    timeline_expected = 0
    if first_ok is not None:
        try:
            timeline_rows = platform.home_engine.execute(
                "SELECT COUNT(*) AS n FROM INFORMATION_SCHEMA.JOBS_TIMELINE "
                f"WHERE job_id = '{first_ok.job_id}' AND name = 'scheduler.task'",
                admin,
            ).single_value()
        except ReproError as exc:  # pragma: no cover - defensive
            tie_out_errors.append(f"timeline query failed: {exc}")
        timeline_expected = len(first_ok.record.stats.task_timeline)
        if timeline_rows != timeline_expected:
            tie_out_errors.append(
                f"{first_ok.job_id} timeline rows {timeline_rows} != "
                f"record task_timeline {timeline_expected}"
            )

    percentiles = {
        principal: {
            "jobs": len(waits),
            "p50_queue_wait_ms": round(duration_quantile(waits, 0.5), 6),
            "p99_queue_wait_ms": round(duration_quantile(waits, 0.99), 6),
        }
        for principal, waits in sorted(waits_by_principal.items())
    }
    states: dict[str, int] = {}
    for _, job in handles:
        states[job.state] = states.get(job.state, 0) + 1
    if keep is not None:
        keep.update(platform=platform, admin=admin, users=users, handles=handles)
    report = {
        "seed": seed,
        "config": {
            "jobs": jobs,
            "scale": scale,
            "analysts": analysts,
            "max_concurrent_jobs": max_concurrent_jobs,
            "mean_gap_ms": mean_gap_ms,
            "chaos": list(chaos or []),
            "weights": dict(weights or {}),
        },
        "jobs": job_rows,
        "per_principal": percentiles,
        "states": states,
        "makespan_ms": round(makespan_end - makespan_start, 6),
        "timeline_task_rows": timeline_rows,
        "tie_out_ok": not tie_out_errors,
        "tie_out_errors": tie_out_errors,
    }
    if monitor:
        report["monitor"] = platform.monitor.summary()
    return report


#: Tolerance for the reservation-vs-jobs tie-out sums (accumulated float
#: noise across bucket clipping; real bugs are whole task-runs ≫ this).
MONITOR_TIE_TOLERANCE_MS = 0.5


def run_monitor(
    seed: int = 0,
    jobs: int = 20,
    scale: float = 0.1,
    analysts: int = 4,
    max_concurrent_jobs: int = 4,
    mean_gap_ms: float = 40.0,
    chaos: list[str] | None = None,
    weights: dict[str, float] | None = None,
    keep: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Run the serve workload under fleet telemetry and tie the
    ``RESERVATION_TIMELINE`` system table out against ``JOBS`` /
    ``JOBS_TIMELINE`` aggregates — the two surfaces are derived from the
    same pool verdicts, so per-principal sums must agree field by field.

    The tie-out is restricted to the analyst principals: the admin SQL
    queries issued *by* this function each run as jobs themselves and
    keep appending admin rows to the very tables being read.
    """
    if keep is None:
        keep = {}
    report = run_serve(
        seed=seed,
        jobs=jobs,
        scale=scale,
        analysts=analysts,
        max_concurrent_jobs=max_concurrent_jobs,
        mean_gap_ms=mean_gap_ms,
        chaos=chaos,
        weights=weights,
        monitor=True,
        keep=keep,
    )
    platform, admin = keep["platform"], keep["admin"]
    monitor = platform.monitor
    errors: list[str] = []
    analyst_ids = sorted({row["principal"] for row in report["jobs"]})

    # SQL view of the reservation timeline, aggregated per principal.
    reservation: dict[str, tuple] = {}
    for row in platform.home_engine.execute(
        "SELECT principal, SUM(slot_ms) AS slot_ms, SUM(queue_ms) AS queue_ms, "
        "SUM(jobs_admitted) AS admitted, SUM(jobs_completed) AS completed "
        "FROM INFORMATION_SCHEMA.RESERVATION_TIMELINE GROUP BY principal",
        admin,
    ).rows():
        reservation[row[0]] = row

    # Ground truth #1: slot-ms per job is the sum of its scheduler.task
    # durations in JOBS_TIMELINE (the same TaskRun attempts).
    slot_by_job: dict[str, float] = {}
    for job_id, slot_ms in platform.home_engine.execute(
        "SELECT job_id, SUM(duration_ms) AS slot_ms "
        "FROM INFORMATION_SCHEMA.JOBS_TIMELINE "
        "WHERE name = 'scheduler.task' GROUP BY job_id",
        admin,
    ).rows():
        slot_by_job[job_id] = float(slot_ms)

    # Ground truth #2: queue waits and variance attribution from JOBS.
    expected: dict[str, dict[str, float]] = {}
    variance: dict[str, dict[str, float]] = {}
    for job_id, user, queue_wait, total, backoff, cold, degraded in (
        platform.home_engine.execute(
            "SELECT job_id, user, queue_wait_ms, total_ms, backoff_ms, "
            "cold_read_ms, degraded_ms FROM INFORMATION_SCHEMA.JOBS",
            admin,
        ).rows()
    ):
        if user not in analyst_ids:
            continue
        agg = expected.setdefault(
            user, {"slot_ms": 0.0, "queue_ms": 0.0, "jobs": 0}
        )
        agg["slot_ms"] += slot_by_job.get(job_id, 0.0)
        agg["queue_ms"] += float(queue_wait)
        agg["jobs"] += 1
        var = variance.setdefault(
            user,
            {
                "queue_ms": 0.0,
                "backoff_ms": 0.0,
                "cold_read_ms": 0.0,
                "degraded_ms": 0.0,
                "execute_ms": 0.0,
            },
        )
        var["queue_ms"] += float(queue_wait)
        var["backoff_ms"] += float(backoff)
        var["cold_read_ms"] += float(cold)
        var["degraded_ms"] += float(degraded)
        var["execute_ms"] += max(float(total) - float(backoff), 0.0)

    tie_out: dict[str, dict[str, Any]] = {}
    for principal in analyst_ids:
        want = expected.get(principal, {"slot_ms": 0.0, "queue_ms": 0.0, "jobs": 0})
        row = reservation.get(principal)
        if row is None:
            errors.append(f"{principal} missing from RESERVATION_TIMELINE")
            continue
        _, got_slot, got_queue, got_admitted, got_completed = row
        checks = (
            ("slot_ms", float(got_slot), want["slot_ms"], MONITOR_TIE_TOLERANCE_MS),
            ("queue_ms", float(got_queue), want["queue_ms"], MONITOR_TIE_TOLERANCE_MS),
            ("jobs_admitted", float(got_admitted), float(want["jobs"]), 0.0),
            ("jobs_completed", float(got_completed), float(want["jobs"]), 0.0),
        )
        entry: dict[str, Any] = {}
        for label, got, want_value, tolerance in checks:
            entry[label] = {
                "reservation": round(got, 3),
                "jobs": round(want_value, 3),
            }
            if abs(got - want_value) > tolerance:
                errors.append(
                    f"{principal} {label} mismatch: "
                    f"reservation={got} jobs={want_value}"
                )
        tie_out[principal] = entry

    section = report["monitor"]
    section["tie_out"] = tie_out
    section["tie_out_ok"] = not errors
    section["tie_out_errors"] = errors
    section["variance_ms"] = {
        principal: {k: round(v, 6) for k, v in sorted(values.items())}
        for principal, values in sorted(variance.items())
    }
    section["utilization"] = [
        [round(t, 3), round(v, 6)]
        for t, v in monitor.store.points("pool_slot_busy_ratio")
    ]
    section["queue_depth"] = {
        principal: [
            [round(t, 3), round(v, 6)]
            for t, v in monitor.store.points("pool_queue_depth", principal=principal)
        ]
        for principal in analyst_ids
    }
    section["burn_alerts_fired"] = monitor.alerts.fired_ever("burn_rate")
    section["alerts_fired"] = monitor.alerts.fired_ever()
    report["tie_out_ok"] = report["tie_out_ok"] and not errors
    report["tie_out_errors"] = report["tie_out_errors"] + errors
    return report
