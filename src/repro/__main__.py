"""Command-line entry point: ``python -m repro <command> [flags]``.
Each command is one row of ``COMMANDS``; ``info`` and ``--help`` list them."""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from typing import Callable, NamedTuple

DEMO_SQL = (
    "SELECT region, COUNT(*) AS n, SUM(amount) AS total "
    "FROM demo.orders WHERE id < 150 GROUP BY region ORDER BY total DESC"
)


class Outcome(NamedTuple):
    """What a command hands the runner once it has printed its report."""

    report: dict | None = None  # what ``--json`` writes
    checks: list[tuple[bool, str]] = []  # (ok, message): any failure exits 1
    ok: str | None = None  # printed when every check passes


def _lake(sizes=(100, 100, 100), name="demo", table="orders", period=100):
    """(platform, admin) with ``demo.<table>`` over bucket ``<name>-lake``:
    one file per entry of ``sizes`` (its row count), ``amount`` cycling
    with ``period``. The defaults are the quickstart ``demo.orders`` lake."""
    from repro import (
        DataType, LakehousePlatform, MetadataCacheMode, Role, Schema,
        batch_from_pydict,
    )
    from repro.storageapi.fileutil import write_data_file

    platform = LakehousePlatform()
    admin = platform.admin_user()
    store = platform.stores.store_for("gcp/us-central1")
    bucket, connection = f"{name}-lake", f"us.{name}"
    store.create_bucket(bucket)
    schema = Schema.of(
        ("id", DataType.INT64), ("region", DataType.STRING), ("amount", DataType.FLOAT64)
    )
    start = 0
    for part, rows in enumerate(sizes):
        write_data_file(
            store, bucket, f"{table}/part-{part}.pqs", schema,
            [batch_from_pydict(schema, {
                "id": list(range(start, start + rows)),
                "region": [("us", "eu", "apac")[i % 3] for i in range(rows)],
                "amount": [float(i % period) for i in range(rows)],
            })],
        )
        start += rows
    conn = platform.connections.create_connection(connection)
    platform.connections.grant_lake_access(conn, bucket)
    platform.iam.grant(f"connections/{connection}", Role.CONNECTION_USER, admin)
    platform.catalog.create_dataset("demo")
    platform.tables.create_biglake_table(
        admin, "demo", table, schema, bucket, table, connection,
        cache_mode=MetadataCacheMode.AUTOMATIC,
    )
    return platform, admin


def _skewed_lake(sizes=(700, 80, 80, 80, 80, 80, 80, 80)):
    """``demo.events``: one fat file among small ones, so the scheduler sees
    an imbalanced stage before any straggler plan is installed."""
    return _lake(sizes, "skew", "events", period=97)


def _header(args, what: str) -> None:
    mode = "smoke" if args.smoke else "full"
    chaos = f", chaos={','.join(args.specs)}" if args.specs else ""
    print(f"-- {args.command}: {what}, seed={args.seed} ({mode}{chaos})\n")


def _trace(args) -> Outcome:
    from repro.errors import ReproError

    platform, admin = _lake()
    sql = " ".join(args.sql) or DEMO_SQL
    print(f"-- {sql}\n")
    try:
        print(platform.home_engine.explain_analyze(sql, admin))
    except ReproError as exc:
        return Outcome(checks=[(False, str(exc))])
    print("\n-- metrics\n")
    print(platform.metrics_text(), end="")
    return Outcome()


def _demo(args) -> Outcome:
    platform, admin = _lake()
    result = platform.home_engine.execute(DEMO_SQL, admin)
    print("region  orders  total")
    for region, n, total in result.rows():
        print(f"{region:<7} {n:>6}  {total:>8,.1f}")
    print(
        f"\nscanned {result.stats.files_read}/{result.stats.files_total} files "
        f"({result.stats.files_pruned} pruned by the metadata cache); "
        f"simulated latency {result.stats.elapsed_ms:.1f} ms"
    )
    return Outcome()


def _jobs(args) -> Outcome:
    from repro.errors import ReproError
    from repro.obs.export import chrome_trace_json

    platform, admin = _lake()
    engine = platform.home_engine
    workload = [
        "SELECT region, COUNT(*) AS n FROM demo.orders GROUP BY region",
        "SELECT SUM(amount) AS total FROM demo.orders WHERE id < 150",
        "SELECT * FROM demo.no_such_table",  # deliberate failure, stays in history
    ]
    for sql in workload:
        try:
            engine.execute(sql, admin)
        except ReproError:
            pass

    # Dogfood: the report below is itself a query over the system tables.
    result = engine.execute(
        "SELECT job_id, state, total_ms, bytes_scanned, sql "
        "FROM INFORMATION_SCHEMA.JOBS ORDER BY job_id",
        admin,
    )
    print("job_id      state      total_ms  bytes_scanned  sql")
    for job_id, state, total_ms, bytes_scanned, sql in result.rows():
        text = sql if len(sql) <= 48 else sql[:45] + "..."
        print(f"{job_id}  {state:<9} {total_ms:>9.2f}  {bytes_scanned:>13,}  {text}")

    record = platform.history.last
    if args.timeline:
        print(f"\n-- timeline for {args.timeline}\n")
        # Resolve the id against history first: only a recorded job's own
        # id ever reaches the SQL text.
        try:
            record = platform.job(args.timeline)
        except ReproError:
            record = None
        rows = [] if record is None else engine.execute(
            "SELECT span_id, parent_span_id, name, layer, start_ms, "
            "duration_ms, self_ms FROM INFORMATION_SCHEMA.JOBS_TIMELINE "
            f"WHERE job_id = '{record.job_id}' ORDER BY span_id",
            admin,
        ).rows()
        if not rows:
            return Outcome(checks=[(False, f"no timeline rows for {args.timeline!r}")])
        print("span  parent  layer       start_ms  dur_ms  self_ms  name")
        for span_id, parent_id, name, layer, start_ms, dur_ms, self_ms in rows:
            print(
                f"{span_id:>4}  {parent_id:>6}  {layer:<10} {start_ms:>9.2f} "
                f"{dur_ms:>7.2f} {self_ms:>8.2f}  {name}"
            )

    if args.chrome_trace:
        if record is None or record.trace is None:
            return Outcome(checks=[(False, "no trace retained to export")])
        with open(args.chrome_trace, "w", encoding="utf-8") as fh:
            fh.write(chrome_trace_json(record.trace, process_name=record.job_id))
        print(f"\nwrote Chrome trace for {record.job_id} to {args.chrome_trace}")
    return Outcome()


def _chaos(args) -> Outcome:
    from repro.errors import ReproError
    from repro.faults import FaultPlan

    if args.suite:
        from repro.bench.harness import build_tpch_platform

        platform, admin, engine, queries = build_tpch_platform(scale=0.1)
        workload = list(queries.items())
    else:
        platform, admin = _lake()
        engine = platform.home_engine
        sql = " ".join(args.sql) or DEMO_SQL
        workload = [(f"q{i + 1:02d}", sql) for i in range(args.repeat)]

    ctx = platform.ctx
    rate = 0.05 if args.rate is None else args.rate
    ctx.faults.install(
        FaultPlan.parse(args.specs, seed=args.seed) if args.specs
        else FaultPlan.uniform(rate, seed=args.seed)
    )
    if args.no_retries:
        ctx.retry.enabled = False

    succeeded = failed = 0
    for name, text in workload:
        try:
            engine.execute(text, admin)
            succeeded += 1
        except ReproError as exc:
            failed += 1
            print(f"{name}: FAILED ({type(exc).__name__})")
    faults_fired = len(ctx.faults.events)
    retries = ctx.metering.op_counts.get("repro.retry", 0)
    degraded = ctx.metering.op_counts.get("repro.degraded", 0)

    # Chaos off for the report query itself: the dogfood read of
    # INFORMATION_SCHEMA.JOBS must not be able to fail.
    ctx.faults.clear()
    result = engine.execute(
        "SELECT job_id, state, retry_count, degraded, error, total_ms "
        "FROM INFORMATION_SCHEMA.JOBS ORDER BY job_id",
        admin,
    )
    jobs = [
        {
            "job_id": job_id,
            "state": state,
            "retry_count": retry_count,
            "degraded": bool(is_degraded),
            "error": error,
            "total_ms": round(total_ms, 3),
        }
        # Jobs are recorded at submit time, so the report query sees
        # itself mid-flight as RUNNING — drop it to cover the workload
        # exactly (every workload job is terminal by now).
        for job_id, state, retry_count, is_degraded, error, total_ms in result.rows()
        if state != "RUNNING"
    ]
    print("\njob_id      state      retries  degraded  total_ms  error")
    for row in jobs:
        text = row["error"] if len(row["error"]) <= 40 else row["error"][:37] + "..."
        print(
            f"{row['job_id']}  {row['state']:<9} {row['retry_count']:>8} "
            f"{str(row['degraded']):<8} {row['total_ms']:>9.2f}  {text}"
        )
    print(
        f"\nseed={args.seed} queries={len(workload)} succeeded={succeeded} "
        f"failed={failed} faults_injected={faults_fired} retries={retries} "
        f"degraded={degraded} retries_enabled={not args.no_retries}"
    )
    return Outcome(report={
        "seed": args.seed,
        "plan": args.specs or [f"uniform:rate={rate}"],
        "retries_enabled": not args.no_retries,
        "jobs": jobs,
        "totals": {
            "queries": len(workload),
            "succeeded": succeeded,
            "failed": failed,
            "faults_injected": faults_fired,
            "retries": retries,
            "degraded": degraded,
            "sim_elapsed_ms": round(ctx.clock.now_ms, 3),
        },
    })


def _cache_stats(args) -> Outcome:
    platform, admin = _lake()
    engine = platform.home_engine
    sql = (
        "SELECT region, COUNT(*) AS n, SUM(amount) AS total "
        "FROM demo.orders WHERE id < 250 GROUP BY region ORDER BY region"
    )
    print(f"-- {sql}\n")
    cold = engine.execute(sql, admin)
    warm = engine.execute(sql, admin)
    for label, result in (("cold", cold), ("warm", warm)):
        stats = result.stats
        print(
            f"{label}: elapsed {stats.elapsed_ms:.2f} ms, "
            f"scanned {stats.bytes_scanned:,} B, "
            f"cache {stats.cache_hit_bytes:,} B "
            f"(hit ratio {stats.cache_hit_ratio:.3f})"
        )

    print("\ntier        entries  resident_b  capacity_b   hits  misses  hit_ratio")
    rows = engine.execute(
        "SELECT tier, entries, resident_bytes, capacity_bytes, hits, misses, "
        "hit_ratio FROM INFORMATION_SCHEMA.CACHE_STATS ORDER BY tier",
        admin,
    ).rows()
    for tier, entries, resident, capacity, hits, misses, ratio in rows:
        print(
            f"{tier:<11} {entries:>7} {resident:>11,} {capacity:>11,} "
            f"{hits:>6} {misses:>7} {ratio:>10.3f}"
        )
    return Outcome(checks=[
        (warm.rows() == cold.rows(), "warm run returned different rows than cold run"),
        (warm.stats.cache_hit_bytes > 0, "warm run served no bytes from the data cache"),
    ])


def _querycache(args) -> Outcome:
    import zlib
    from unittest import mock

    from repro import DataType, Schema
    from repro.engine import engine as engine_module
    from repro.serving import jobs as jobs_module

    platform, admin = _lake()
    engine = platform.home_engine
    metering = platform.ctx.metering

    def gets(delta) -> int:
        return delta.op_counts.get("object_store.get", 0) + delta.op_counts.get(
            "object_store.get_range", 0
        )

    def crc(result) -> int:
        return zlib.crc32(repr(result.rows()).encode("utf-8"))

    sql = (
        "SELECT region, COUNT(*) AS n, SUM(amount) AS total "
        "FROM demo.orders GROUP BY region ORDER BY region"
    )
    print(f"-- {sql}\n")
    before = metering.snapshot()
    cold = engine.execute(sql, admin, use_query_cache=True)
    cold_gets = gets(metering.delta_since(before))
    before = metering.snapshot()
    # The warm run is watched: a text the cache knows must reach its result
    # without being parsed (at submit or at execution).
    def watched(module, attr):
        return mock.patch.object(module, attr, wraps=getattr(module, attr))

    with watched(jobs_module, "parse_statement") as parse_at_submit, \
            watched(engine_module, "parse_statement") as parse_at_execution:
        warm = engine.execute(sql, admin, use_query_cache=True)
    parsed = parse_at_submit.call_count + parse_at_execution.call_count
    warm_gets = gets(metering.delta_since(before))
    for label, result, n_gets in (("cold", cold, cold_gets), ("warm", warm, warm_gets)):
        print(
            f"{label}: cache_hit={result.stats.cache_hit} "
            f"crc={crc(result):08x} scanned={result.stats.bytes_scanned:,} B "
            f"gets={n_gets} elapsed={result.stats.elapsed_ms:.2f} ms"
        )
    print(f"warm: statements parsed={parsed}")

    # DML coherence leg: a managed (writable) table. The INSERT bumps the
    # table version, so the cached entry stops being addressed — the next
    # run is a miss with fresh rows, and nothing is flushed.
    platform.catalog.create_dataset("sales")
    platform.tables.create_managed_table(
        "sales", "totals",
        Schema.of(("id", DataType.INT64), ("amount", DataType.FLOAT64)),
    )
    engine.execute("INSERT INTO sales.totals VALUES (1, 10.0)", admin)
    dml_sql = "SELECT COUNT(*) AS n, SUM(amount) AS total FROM sales.totals"
    print(f"\n-- {dml_sql}\n")
    first = engine.execute(dml_sql, admin, use_query_cache=True)
    engine.execute("INSERT INTO sales.totals VALUES (2, 5.0)", admin)
    entries_before = platform.query_cache.snapshot()["result"]["entries"]
    second = engine.execute(dml_sql, admin, use_query_cache=True)
    print(
        f"before INSERT: cache_hit={first.stats.cache_hit} rows={first.rows()}"
    )
    print(
        f"after INSERT:  cache_hit={second.stats.cache_hit} rows={second.rows()} "
        f"(entries resident before re-run: {entries_before})"
    )

    print("\ntier    entries  hits  misses  evictions  hit_ratio")
    rows = engine.execute(
        "SELECT tier, entries, hits, misses, evictions, hit_ratio "
        "FROM INFORMATION_SCHEMA.CACHE_STATS WHERE tier = 'plan' "
        "OR tier = 'result' ORDER BY tier",
        admin,
    ).rows()
    for tier, entries, hits, misses, evictions, ratio in rows:
        print(
            f"{tier:<7} {entries:>7} {hits:>5} {misses:>7} {evictions:>10} "
            f"{ratio:>10.3f}"
        )
    return Outcome(checks=[
        (not parsed, "the warm hit parsed a statement"),
        (warm.rows() == cold.rows(), "warm run returned different rows than cold run"),
        (warm.stats.cache_hit and not cold.stats.cache_hit,
         "expected cold miss then warm hit"),
        (warm.stats.bytes_scanned == 0, "warm hit still scanned bytes"),
        (warm_gets < cold_gets,
         f"warm run did not issue strictly fewer GETs ({warm_gets} vs {cold_gets})"),
        (not second.stats.cache_hit and second.rows() != first.rows(),
         "DML did not invalidate the cached result (stale served)"),
        (entries_before >= 1,
         "DML flushed the result tier (coherence must be by keying, not flushing)"),
    ], ok="\nquery-cache coherence: OK")


#: serve / monitor workload size, keyed by ``--smoke``.
SERVE_SIZES = {
    True: dict(jobs=6, scale=0.05, analysts=2, mean_gap_ms=30.0),
    False: dict(jobs=20, scale=0.1, analysts=4, mean_gap_ms=40.0),
}


def _serve_mix(args) -> dict:
    """Print the serve / monitor header; return the workload size."""
    sizes = SERVE_SIZES[args.smoke]
    _header(args, f"{sizes['jobs']} jobs, {sizes['analysts']} principals, 4 concurrent")
    return sizes


def _tie_out(report: dict) -> list[tuple[bool, str]]:
    return [(False, f"tie-out failed: {line}") for line in report["tie_out_errors"]]


def _serve(args) -> Outcome:
    from repro.serving.workload import run_serve

    report = run_serve(seed=args.seed, chaos=args.specs or None, **_serve_mix(args))
    print("job_id      principal   state      arrive_ms  wait_ms  end_ms    query")
    for row in report["jobs"]:
        print(
            f"{row['job_id']}  {row['principal'].removeprefix('user:'):<11} "
            f"{row['state']:<9} {row['creation_ms']:>10.2f} {row['queue_wait_ms']:>8.2f} "
            f"{row['end_ms']:>9.2f}  {row['query']}"
        )
    print("\nprincipal    jobs  p50_wait_ms  p99_wait_ms")
    for principal, stats in report["per_principal"].items():
        print(
            f"{principal.removeprefix('user:'):<11} {stats['jobs']:>5} "
            f"{stats['p50_queue_wait_ms']:>12.2f} {stats['p99_queue_wait_ms']:>12.2f}"
        )
    states = " ".join(f"{k}={v}" for k, v in sorted(report["states"].items()))
    print(
        f"\nmakespan {report['makespan_ms']:.2f} ms  {states}  "
        f"timeline_task_rows={report['timeline_task_rows']}"
    )
    return Outcome(report, _tie_out(report), "INFORMATION_SCHEMA.JOBS tie-out: OK")


#: ASCII intensity ramp for the CLI timeline renders (0.0 → 1.0+).
_RAMP = " .:-=+*#%@"


def _ramp_line(points: list[list[float]], peak: float) -> str:
    """Render ``[[t, v], ...]`` as one intensity character per sample."""
    if peak <= 0:
        return ""
    out = []
    for _, value in points:
        level = min(len(_RAMP) - 1, int(value / peak * (len(_RAMP) - 1) + 0.5))
        out.append(_RAMP[level])
    return "".join(out)


def _monitor(args) -> Outcome:
    from repro.obs.export import serve_chrome_trace_json
    from repro.serving.workload import run_monitor

    keep: dict = {}
    report = run_monitor(
        seed=args.seed, chaos=args.specs or None, keep=keep, **_serve_mix(args)
    )
    mon = report["monitor"]
    print(
        f"telemetry: {mon['batches_observed']} batches observed, "
        f"{mon['scrapes']} scrapes, {mon['reservation_rows']} reservation rows, "
        f"{mon['tsdb_series']} series / {mon['tsdb_samples']} samples, "
        f"{mon['metrics_history_rows']} METRICS_HISTORY rows"
    )

    util = mon["utilization"]
    if util:
        span = f"{util[0][0]:.0f}..{util[-1][0]:.0f} ms"
        util_peak = max(v for _, v in util)
        print(f"\nslot utilization  [{span}]  peak={util_peak:.3f}")
        print(f"  {_ramp_line(util, util_peak)}")
    depth_peak = max(
        (v for pts in mon["queue_depth"].values() for _, v in pts), default=0.0
    )
    if depth_peak > 0:
        print(f"queue depth per principal  peak={depth_peak:.2f}")
        for principal, points in mon["queue_depth"].items():
            label = principal.removeprefix("user:")
            print(f"  {label:<8} {_ramp_line(points, depth_peak)}")

    print("\nat_ms      rule                 sev      state     value    detail")
    if not mon["alerts"]:
        print("  (no alert transitions)")
    for event in mon["alerts"]:
        print(
            f"{event['at_ms']:>9.1f}  {event['rule']:<20} {event['severity']:<8} "
            f"{event['state']:<9} {event['value']:>7.3f}  {event['detail']}"
        )

    print("\nprincipal    queue_ms  backoff_ms  cold_read_ms  degraded_ms  execute_ms")
    for principal, var in mon["variance_ms"].items():
        print(
            f"{principal.removeprefix('user:'):<11} {var['queue_ms']:>9.2f} "
            f"{var['backoff_ms']:>11.2f} {var['cold_read_ms']:>13.2f} "
            f"{var['degraded_ms']:>12.2f} {var['execute_ms']:>11.2f}"
        )

    if args.chrome_trace:
        with open(args.chrome_trace, "w", encoding="utf-8") as fh:
            fh.write(serve_chrome_trace_json(keep["platform"].jobs()))
        print(f"\nserve Chrome trace written to {args.chrome_trace}")

    burned = mon["burn_alerts_fired"]
    return Outcome(report, _tie_out(report) + [
        (mon["batches_observed"] > 0 and mon["scrapes"] > 0,
         "monitor observed no batches or scrapes"),
        (bool(burned or not args.specs),
         "chaos run fired no burn-rate alert (expected the error budget to "
         "burn deterministically)"),
    ], "\nRESERVATION_TIMELINE tie-out: OK"
        + (f"  burn_alerts={','.join(burned)}" if burned else ""))


def _schedule(args) -> Outcome:
    from repro.engine.scheduler import SpeculationConfig
    from repro.errors import ReproError
    from repro.faults import FaultPlan

    sql = " ".join(args.sql) or (
        "SELECT region, COUNT(*) AS n, SUM(amount) AS total "
        "FROM demo.events GROUP BY region ORDER BY region"
    )

    def run(speculation: bool):
        platform, admin = _skewed_lake()
        engine = platform.home_engine
        if not speculation:
            engine.speculation = SpeculationConfig(enabled=False)
        platform.ctx.faults.install(FaultPlan.parse(args.specs, seed=args.seed))
        return engine.execute(sql, admin)

    print(f"-- {sql}\n-- plan={','.join(args.specs)} seed={args.seed}\n")
    try:
        on = run(speculation=True)
        off = run(speculation=False)
    except ReproError as exc:
        return Outcome(checks=[(False, str(exc))])

    print("stage   task  slot  start_ms   end_ms  slow  flags")
    for t in on.stats.task_timeline:
        flags = "".join(
            ch
            for ch, cond in (
                ("S", t.speculative), ("W", t.winner), ("X", t.cancelled)
            )
            if cond
        )
        print(
            f"{t.stage:<7} {t.task:>4} {t.slot:>5} {t.start_ms:>9.3f} "
            f"{t.end_ms:>8.3f} {t.slow_factor:>5g}  {flags or '-'}"
        )
    print(
        f"\nspeculation on:  elapsed {on.stats.elapsed_ms:.3f} ms, "
        f"task_skew {on.stats.task_skew:.3f}, "
        f"launched {on.stats.speculative_count}, wins {on.stats.speculative_wins}"
    )
    print(
        f"speculation off: elapsed {off.stats.elapsed_ms:.3f} ms, "
        f"task_skew {off.stats.task_skew:.3f}"
    )
    recovered = off.stats.elapsed_ms - on.stats.elapsed_ms
    print(f"speculation recovered {recovered:.3f} ms of makespan")

    rows_identical = on.rows() == off.rows()
    report = {
        "seed": args.seed,
        "plan": args.specs,
        "sql": sql,
        "rows_identical": rows_identical,
        "speculation_on": {
            "elapsed_ms": round(on.stats.elapsed_ms, 6),
            "task_skew": round(on.stats.task_skew, 6),
            "speculative_launched": on.stats.speculative_count,
            "speculative_wins": on.stats.speculative_wins,
            "timeline": [t.to_dict() for t in on.stats.task_timeline],
        },
        "speculation_off": {
            "elapsed_ms": round(off.stats.elapsed_ms, 6),
            "task_skew": round(off.stats.task_skew, 6),
            "timeline": [t.to_dict() for t in off.stats.task_timeline],
        },
    }
    return Outcome(report, [
        (rows_identical,
         "speculation changed the query's rows (must be result-invariant)"),
        (on.stats.elapsed_ms <= off.stats.elapsed_ms + 1e-6,
         "speculation made the query slower "
         f"({on.stats.elapsed_ms:.3f} ms > {off.stats.elapsed_ms:.3f} ms)"),
    ])


# The default `txn --chaos` profile is built by repro.txn.workload.chaos_plan:
# writer crashes at every publish step plus storage/metadata transients.
TXN_CHAOS_RATE = 0.08

# The `txn --recover` profile: crash-heavy, so the run leans on the
# recovery sweep (both roll directions) instead of the happy path.
TXN_RECOVER_RATE = 0.25


def _txn(args) -> Outcome:
    from repro.txn.workload import run_txn_workload

    rate = args.rate
    if rate is None:
        rate = TXN_RECOVER_RATE if args.recover else (TXN_CHAOS_RATE if args.chaos else 0.0)
    kwargs = (
        dict(writers=2, txns_per_writer=2, orders=3)
        if args.smoke
        else dict(writers=4, txns_per_writer=3, orders=4)
    )
    report = run_txn_workload(
        seed=args.seed, rate=rate, plans=args.specs or None, **kwargs
    )

    mode = "smoke" if args.smoke else ("recover" if args.recover else "full")
    print(
        f"-- txn: {kwargs['writers']} writers x {kwargs['txns_per_writer']} txns, "
        f"{kwargs['orders']} orders, seed={args.seed} rate={rate:g} ({mode})\n"
    )
    print("txn_id      writer        order  amount  commit_ms")
    for entry in report["commit_timeline"]:
        print(
            f"{entry['txn_id']}  {entry['writer'].removeprefix('user:'):<12} "
            f"{entry['order_id']:>5} {entry['amount']:>7.2f} {entry['commit_ms']:>10.2f}"
        )
    rec = report["recovery"]
    print(
        f"\ncommits={report['commits']} conflicts={report['conflicts']} "
        f"crashes={report['crashes']} aborts={report['aborts']} "
        f"transients={report['transient_failures']}"
    )
    print(
        f"recovery: sweeps={rec['sweeps']} rolled_forward={rec['rolled_forward']} "
        f"rolled_back={rec['rolled_back']} dangling_intents={report['dangling_intents']}"
    )
    print(
        f"oracle: {report['midflight_checks']} mid-flight + 1 final + "
        f"{report['snapshot_checks']} as-of checks, "
        f"{len(report['violations'])} violations"
    )
    print("order totals: " + " ".join(
        f"{oid}={total:g}" for oid, total in sorted(
            report["final_totals"].items(), key=lambda kv: int(kv[0])
        )
    ))

    expected = kwargs["writers"] * kwargs["txns_per_writer"]
    return Outcome(report, [
        (False, f"invariant violated: {violation}") for violation in report["violations"]
    ] + [
        (not report["dangling_intents"],
         f"{report['dangling_intents']} dangling intent(s) survived the final "
         "recovery sweep"),
        (report["commits"] == expected and not report["gave_up"],
         f"{report['commits']}/{expected} transactions committed "
         f"({report['gave_up']} gave up)"),
        (not args.recover or rec["rolled_forward"] + rec["rolled_back"] > 0,
         "--recover run exercised no recovery (no crash landed mid-publish; "
         "raise the rate or change the seed)"),
    ], "torn-state oracle: OK")


def _readsession(args) -> Outcome:
    from repro.faults import FaultPlan
    from repro.storageapi.streams import drain_session

    sizes = [300] + [60] * 7 if args.smoke else [600] + [90] * 11
    n_streams = 4
    lag_factor = 4.0

    def leg(lag_stream: int | None = None, rebalance: bool = False):
        platform, admin = _skewed_lake(sizes)
        info = platform.catalog.get_table("demo", "events")
        session = platform.read_api.create_read_session(
            admin, info, max_streams=n_streams
        )
        blob = session.serialize()
        # Chaos targets the consumers: the session is established, then
        # the drain's governed reads run under the fault plan (transient,
        # so every leg still ties out after retries).
        if args.specs:
            platform.ctx.faults.install(FaultPlan.parse(args.specs, seed=args.seed))
        lag = {lag_stream: lag_factor} if lag_stream is not None else None
        report = drain_session(platform.read_api, blob, lag=lag, rebalance=rebalance)
        return blob, session, report

    blob, session, healthy = leg()
    # Lag the consumer with the most files: it has pending work an idle
    # neighbor can actually steal (deterministic: ties to the lowest id).
    lag_stream = max(
        range(len(session.streams)),
        key=lambda i: (len(session.streams[i].files), -i),
    )
    _, _, off = leg(lag_stream, rebalance=False)
    _, _, on = leg(lag_stream, rebalance=True)

    _header(args, f"{len(sizes)} files over {n_streams} streams")
    print(f"serialized handle ({len(blob)} bytes): {blob[:64].decode()}...")
    print(f"lagged consumer: worker-{lag_stream} (x{lag_factor:g} slower)\n")
    for label, report in (
        ("healthy", healthy), ("lag, rebalancer off", off), ("lag, rebalancer on", on)
    ):
        print(f"{label}: makespan {report.makespan_ms:.3f} ms, "
              f"rows={report.rows} crc={report.crc:08x} "
              f"rebalances={report.rebalances}")
        print("  consumer   stream  speed  files   rows    bytes  finished_ms")
        for c in report.consumers:
            print(
                f"  {c.consumer:<9} {c.stream_id:>6} {c.speed:>6g} {c.files:>6} "
                f"{c.rows:>6} {c.bytes:>8,} {c.finished_ms:>12.3f}"
            )
    if on.moves:
        print("\nrebalance moves (pending files only):")
        for m in on.moves:
            print(
                f"  {m.file_path} ({m.size_bytes:,} B): "
                f"stream {m.from_stream} -> {m.to_stream}"
            )

    inflation = off.makespan_ms - healthy.makespan_ms
    recovered = (off.makespan_ms - on.makespan_ms) / inflation if inflation > 0 else 0.0
    crc_identical = healthy.crc == off.crc == on.crc
    rows_identical = healthy.rows == off.rows == on.rows
    print(
        f"\nlag inflated the makespan by {inflation:.3f} ms; rebalancing "
        f"recovered {recovered:.1%} of it"
    )
    return Outcome({
        "seed": args.seed,
        "plan": args.specs,
        "files": len(sizes),
        "streams": n_streams,
        "lag_stream": lag_stream,
        "lag_factor": lag_factor,
        "crc_identical": crc_identical,
        "rows_identical": rows_identical,
        "recovered_fraction": round(recovered, 6),
        "legs": {
            "healthy": healthy.to_dict(),
            "rebalancer_off": off.to_dict(),
            "rebalancer_on": on.to_dict(),
        },
    }, [
        (crc_identical and rows_identical,
         "rebalancing or lag changed the returned rows (must be result-invariant)"),
        (inflation > 0, "injected lag did not inflate the makespan"),
        (recovered > 0, "rebalancing recovered none of the lag inflation"),
    ], "handoff round-trip + rebalance invariance: OK")


def _experiments(args) -> Outcome:
    code = subprocess.call([
        sys.executable, "-m", "pytest", "benchmarks/", "--benchmark-only",
        "-p", "no:warnings", "-s", "-q", *args.pytest_args,
    ])
    return Outcome(checks=[(code == 0, f"the benchmark suite exited with status {code}")])


def _info(args) -> Outcome:
    import repro

    print(f"repro {repro.__version__} — BigLake reproduction (SIGMOD 2024)\n")
    print("Commands (`python -m repro <command> --help` lists its flags):")
    for command in COMMANDS:
        print(f"  {command.name:<12} {command.help}")
    print("\nSubsystems: data, formats, objectstore, cloud, security, metastore,")
    print("  tableformats, sql, engine, storageapi, core, objects, ml, omni,")
    print("  external, workloads, bench")
    print("Experiments: see DESIGN.md (index) and EXPERIMENTS.md (results).")
    return Outcome()


class Command(NamedTuple):
    name: str
    help: str
    flags: tuple[str, ...]  # keys of FLAGS; argparse rejects any other
    run: Callable[[argparse.Namespace], Outcome]


#: Every flag and positional, declared once; a command owns the ones its row names.
FLAGS = {
    "sql": dict(nargs="*", help="SQL statement (default: the built-in query)"),
    "pytest_args": dict(nargs=argparse.REMAINDER, help="extra pytest arguments"),
    "--timeline": dict(metavar="JOB_ID", help="print the per-span timeline of one job"),
    "--chrome-trace": dict(
        metavar="OUT.json", help="write the trace in Chrome trace-event format"
    ),
    "--seed": dict(
        type=int, default=0,
        help="RNG seed (same seed => same faults and arrivals)",
    ),
    "--plan": dict(
        action="append", default=[], metavar="SPEC",
        help="fault spec 'op:key=val:...' e.g. 'objectstore.get:rate=0.1' or "
        "'task.slow:rate=0.3:factor=8', in place of the built-in plan (repeatable)",
    ),
    "--rate": dict(
        type=float, help="fault rate of the built-in plan when no --plan is given"
    ),
    "--no-retries": dict(
        action="store_true", help="disable the retry policy (faults without recovery)"
    ),
    "--suite": dict(
        action="store_true", help="run the TPC-H-lite suite instead of one statement"
    ),
    "--repeat": dict(
        type=int, default=8, help="times to run the statement (without --suite)"
    ),
    "--json": dict(
        metavar="OUT.json", dest="json_path", help="write the machine-readable report"
    ),
    "--smoke": dict(action="store_true", help="small fast variant for CI"),
    "--chaos": dict(
        action="store_true",
        help="run under the built-in seeded fault plan (or give explicit --plan specs)",
    ),
    "--recover": dict(
        action="store_true",
        help="crash-heavy profile that must exercise the recovery sweep "
        "(exit non-zero if it never runs)",
    ),
}

_WORKLOAD = ("--seed", "--smoke", "--chaos", "--plan", "--json")

COMMANDS = (
    Command("demo", "run the quickstart aggregate over the demo lake (the default)",
            (), _demo),
    Command("trace", "run SQL over the demo lake; print its span tree and the "
            "metrics dump", ("sql",), _trace),
    Command("jobs", "run a demo workload, then report it from "
            "INFORMATION_SCHEMA.JOBS / JOBS_TIMELINE",
            ("--timeline", "--chrome-trace"), _jobs),
    Command("chaos", "run SQL or the TPC-H-lite suite under seeded fault "
            "injection; report per-job retries and degradation",
            ("sql", "--seed", "--plan", "--rate", "--no-retries", "--suite",
             "--repeat", "--json"), _chaos),
    Command("cache-stats", "run an aggregate cold then warm; print "
            "INFORMATION_SCHEMA.CACHE_STATS (warm must hit, rows must match)",
            (), _cache_stats),
    Command("querycache", "plan + result cache: the warm hit parses and scans "
            "nothing, and an INSERT re-keys the entry instead of flushing",
            (), _querycache),
    Command("schedule", "run SQL over a skewed lake under stragglers with and "
            "without speculation; print the task timeline",
            ("sql", "--seed", "--plan", "--json"), _schedule),
    Command("serve", "replay a multi-principal TPC-H/DS-lite mix through the "
            "async jobs API; tie out against INFORMATION_SCHEMA.JOBS",
            _WORKLOAD, _serve),
    Command("monitor", "the serve mix under fleet telemetry: reservation "
            "timeline, SLO burn-rate alerts, variance attribution",
            _WORKLOAD + ("--chrome-trace",), _monitor),
    Command("txn", "concurrent multi-table transactions under seeded writer "
            "crashes, checked by the torn-state oracle",
            _WORKLOAD + ("--recover", "--rate"), _txn),
    Command("readsession", "serialize one read session and drain it per "
            "stream: healthy, with a lagging consumer, and rebalanced",
            _WORKLOAD, _readsession),
    Command("experiments", "run the E1-E12 + future-work benchmark suite",
            ("pytest_args",), _experiments),
    Command("info", "print this command list and the subsystem inventory",
            (), _info),
)

_SERVE_CHAOS = ["objectstore.get:rate=0.25:max=40", "task.slow:rate=0.15:factor=4"]

#: The plan a command installs when no ``--plan`` is given: under
#: ``--chaos`` where the command owns that flag, always otherwise.
DEFAULT_PLANS = {
    # Stragglers on the skewed lake, for speculation to beat.
    "schedule": ["task.slow:rate=0.3:factor=8"],
    # Transient object-store faults hot enough to leave FAILED jobs in
    # history, plus stragglers for speculation.
    "serve": _SERVE_CHAOS,
    # Plus data-cache faults, so the cache-bypass burn-rate rule has bad
    # events to burn.
    "monitor": _SERVE_CHAOS + ["cache.get:rate=0.35:max=30"],
    # Transient faults on the governed read path, all recoverable, so the
    # drain still ties out.
    "readsession": [
        "objectstore.get:rate=0.2:max=20", "read_api.read_rows:rate=0.1:max=8",
    ],
}


def _resolve_plan(command: Command, args) -> None:
    """Set ``args.specs`` and reject a malformed plan or rate before anything
    is built (raises ``ValueError``)."""
    if "--plan" not in command.flags:
        return
    from repro.faults import FaultPlan

    chaos = getattr(args, "chaos", True)
    args.specs = args.plan or (DEFAULT_PLANS.get(command.name, []) if chaos else [])
    FaultPlan.parse(args.specs, seed=args.seed)
    if getattr(args, "rate", None) is not None:
        FaultPlan.uniform(args.rate)


def _run(command: Command, args) -> int:
    """One command, end to end: the fault plan, the body, ``--json``, then
    its checks — each failure one ``error:`` line on stderr and exit 1."""
    try:
        _resolve_plan(command, args)
    except ValueError as exc:
        outcome = Outcome(checks=[(False, str(exc))])
    else:
        outcome = command.run(args)
    json_path = getattr(args, "json_path", None)
    if json_path and outcome.report is not None:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(outcome.report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"{command.name} report written to {json_path}")
    failures = [message for ok, message in outcome.checks if not ok]
    for message in failures:
        print(f"error: {message}", file=sys.stderr)
    if failures:
        return 1
    if outcome.ok:
        print(outcome.ok)
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    commands = parser.add_subparsers(dest="command", metavar="command")
    for command in COMMANDS:
        sub = commands.add_parser(
            command.name, help=command.help, description=command.help
        )
        for flag in command.flags:
            sub.add_argument(flag, **FLAGS[flag])
    parser.set_defaults(command="demo")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return _run({c.name: c for c in COMMANDS}[args.command], args)


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        raise SystemExit(0)
