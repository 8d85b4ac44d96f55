"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``demo``        — run the quickstart scenario inline (no files needed).
* ``trace <sql>`` — run a query over the demo lake and print its
  cross-layer span tree (``explain_analyze``) plus the metrics dump.
* ``jobs``        — run a demo workload, then query the job history
  *through its own SQL surface* (``INFORMATION_SCHEMA.JOBS``).
  ``--timeline JOB_ID`` prints the per-span timeline for one job;
  ``--chrome-trace OUT.json`` exports it for ``chrome://tracing``.
* ``chaos [sql]`` — run a workload under seeded fault injection and report
  per-job outcomes (state, retries, degradation) from
  ``INFORMATION_SCHEMA.JOBS``. ``--seed N`` makes the run exactly
  replayable; ``--plan "op:rate=0.1"`` declares faults (repeatable) or
  ``--rate R`` installs the uniform transient mix; ``--suite`` runs the
  TPC-H-lite suite instead of one statement; ``--no-retries`` disables
  recovery; ``--json OUT`` writes a machine-readable report.
* ``cache-stats`` — run the demo query cold then warm and print the
  per-tier data-cache counters via ``INFORMATION_SCHEMA.CACHE_STATS``.
  Exits non-zero if the warm run's rows differ from the cold run's or if
  the warm run served no bytes from the cache; the output is
  deterministic, so two invocations must be byte-identical.
* ``querycache`` — plan + query-result cache walkthrough: the demo query
  cold then warm with ``use_query_cache=True`` (the warm run must parse no
  statement, return byte-identical rows, report ``cache_hit``, scan zero
  bytes, and issue strictly fewer object-store GETs), then a DML leg
  against a managed
  table proving snapshot-keyed coherence — the INSERT makes the next run
  a miss with fresh rows while the old entries stay resident (coherence
  by keying, never flushing). Exits non-zero if any invariant fails; the
  output is deterministic, so two invocations must be byte-identical
  (the query-cache coherence gate in ``scripts/check.sh``).
* ``serve`` — replay a seeded mixed TPC-H/TPC-DS-lite multi-principal
  workload through the async jobs API: jobs arrive with seeded gaps,
  queue under admission control, and share one slot pool fairly across
  principals. Reports per-principal p50/p99 queue wait and the workload
  makespan, tied out against ``INFORMATION_SCHEMA.JOBS`` /
  ``JOBS_TIMELINE`` (exit non-zero on any mismatch). ``--smoke`` runs a
  small fast variant for CI; ``--chaos`` (or explicit ``--plan`` specs)
  runs the same workload under seeded fault injection; ``--json OUT``
  writes the deterministic report — two invocations with the same seed
  must be byte-identical (the serve determinism gate in
  ``scripts/check.sh``).
* ``monitor`` — run the ``serve`` workload under fleet telemetry: the
  sim-time TSDB scrapes the metrics registry, every shared-pool batch is
  sampled into ``INFORMATION_SCHEMA.RESERVATION_TIMELINE``, and the SLO
  alert engine evaluates deterministically on the sim clock (results in
  ``INFORMATION_SCHEMA.ALERTS``). Prints utilization/queue-depth
  timelines, the alert log, and per-principal variance attribution;
  exits non-zero if the reservation timeline fails to tie out against
  ``JOBS``/``JOBS_TIMELINE`` aggregates, or if a ``--chaos`` run fires
  no burn-rate alert. Deterministic: same seed ⇒ byte-identical
  ``--json`` report. ``--chrome-trace OUT.json`` exports the whole run
  (per-principal lanes) for Perfetto.
* ``schedule [sql]`` — run a query over a deliberately skewed demo lake
  (one fat file among small ones) under a seeded ``task.slow`` straggler
  plan, once with speculative execution and once without, and print the
  scheduler's per-task timeline. Self-checking: exits non-zero if the two
  runs' rows differ or speculation made the query slower. ``--seed`` makes
  the run exactly replayable and ``--json OUT`` writes the timeline
  report; the output is deterministic, so two invocations with the same
  seed must be byte-identical (the CI scheduler determinism gate).
* ``txn`` — multi-table ACID transaction walkthrough: concurrent seeded
  writers co-mutate ``txn.orders``/``txn.lineitems`` (every commit inserts
  a lineitem and bumps the matching order total atomically) while the
  torn-state oracle checks the cross-table invariant in every obtainable
  view — mid-flight, final, and as-of each commit marker. ``--chaos``
  injects writer crashes at every publish step plus storage/metadata
  transients; ``--recover`` runs a crash-heavy profile that must exercise
  the recovery sweep; ``--smoke`` is the small CI variant. Exits non-zero
  on any invariant violation, dangling intent, or lost transaction.
  Deterministic: same seed ⇒ byte-identical ``--json`` report (the txn
  determinism gate in ``scripts/check.sh``).
* ``readsession`` — serializable session handoff walkthrough: one
  multi-stream read session over a skewed lake, serialized to a byte
  handle and drained by one attached consumer per stream — healthy, with
  an injected consumer lag, and with the lag plus the dynamic stream
  rebalancer. Exits non-zero if any leg's row CRC differs or rebalancing
  recovers none of the lag inflation. ``--chaos`` adds transient faults
  on the read path; ``--smoke`` is the small CI variant. Deterministic:
  same seed ⇒ byte-identical ``--json`` report (the readsession
  determinism gate in ``scripts/check.sh``).
* ``experiments`` — run the full E1–E12 + future-work benchmark suite.
* ``info``        — print the module inventory and experiment index.
"""

from __future__ import annotations

import argparse
import subprocess
import sys


def _build_demo_platform():
    """(platform, admin) with the quickstart ``demo.orders`` lake loaded."""
    from repro import (
        DataType, LakehousePlatform, MetadataCacheMode, Role, Schema,
        batch_from_pydict,
    )
    from repro.storageapi.fileutil import write_data_file

    platform = LakehousePlatform()
    admin = platform.admin_user()
    store = platform.stores.store_for("gcp/us-central1")
    store.create_bucket("demo-lake")
    schema = Schema.of(
        ("id", DataType.INT64), ("region", DataType.STRING), ("amount", DataType.FLOAT64)
    )
    for part in range(3):
        write_data_file(
            store, "demo-lake", f"orders/part-{part}.pqs", schema,
            [batch_from_pydict(schema, {
                "id": list(range(part * 100, part * 100 + 100)),
                "region": [("us", "eu", "apac")[i % 3] for i in range(100)],
                "amount": [float(i) for i in range(100)],
            })],
        )
    conn = platform.connections.create_connection("us.demo")
    platform.connections.grant_lake_access(conn, "demo-lake")
    platform.iam.grant("connections/us.demo", Role.CONNECTION_USER, admin)
    platform.catalog.create_dataset("demo")
    platform.tables.create_biglake_table(
        admin, "demo", "orders", schema, "demo-lake", "orders", "us.demo",
        cache_mode=MetadataCacheMode.AUTOMATIC,
    )
    return platform, admin


def _trace(sql: str | None) -> int:
    from repro.errors import ReproError

    platform, admin = _build_demo_platform()
    if not sql:
        sql = (
            "SELECT region, COUNT(*) AS n, SUM(amount) AS total "
            "FROM demo.orders WHERE id < 150 GROUP BY region ORDER BY total DESC"
        )
    print(f"-- {sql}\n")
    try:
        print(platform.home_engine.explain_analyze(sql, admin))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n-- metrics\n")
    print(platform.metrics_text(), end="")
    return 0


def _demo() -> int:
    platform, admin = _build_demo_platform()
    result = platform.home_engine.execute(
        "SELECT region, COUNT(*) AS n, SUM(amount) AS total "
        "FROM demo.orders WHERE id < 150 GROUP BY region ORDER BY total DESC",
        admin,
    )
    print("region  orders  total")
    for region, n, total in result.rows():
        print(f"{region:<7} {n:>6}  {total:>8,.1f}")
    print(
        f"\nscanned {result.stats.files_read}/{result.stats.files_total} files "
        f"({result.stats.files_pruned} pruned by the metadata cache); "
        f"simulated latency {result.stats.elapsed_ms:.1f} ms"
    )
    return 0


def _jobs(timeline: str | None, chrome_trace_path: str | None) -> int:
    """Run a small workload, then inspect it via INFORMATION_SCHEMA."""
    from repro.errors import ReproError
    from repro.obs.export import chrome_trace_json

    platform, admin = _build_demo_platform()
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

    if timeline:
        print(f"\n-- timeline for {timeline}\n")
        try:
            rows = engine.execute(
                "SELECT span_id, parent_span_id, name, layer, start_ms, "
                "duration_ms, self_ms FROM INFORMATION_SCHEMA.JOBS_TIMELINE "
                f"WHERE job_id = '{timeline}' ORDER BY span_id",
                admin,
            ).rows()
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if not rows:
            print(f"error: no timeline rows for {timeline!r}", file=sys.stderr)
            return 1
        print("span  parent  layer       start_ms  dur_ms  self_ms  name")
        for span_id, parent_id, name, layer, start_ms, dur_ms, self_ms in rows:
            print(
                f"{span_id:>4}  {parent_id:>6}  {layer:<10} {start_ms:>9.2f} "
                f"{dur_ms:>7.2f} {self_ms:>8.2f}  {name}"
            )

    if chrome_trace_path:
        try:
            record = platform.job(timeline) if timeline else platform.history.last
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if record is None or record.trace is None:
            print("error: no trace retained to export", file=sys.stderr)
            return 1
        with open(chrome_trace_path, "w", encoding="utf-8") as fh:
            fh.write(chrome_trace_json(record.trace, process_name=record.job_id))
        print(f"\nwrote Chrome trace for {record.job_id} to {chrome_trace_path}")
    return 0


def _chaos(
    sql: str | None,
    seed: int,
    plans: list[str],
    rate: float | None,
    no_retries: bool,
    suite: bool,
    repeat: int,
    json_path: str | None,
) -> int:
    """Run a workload under seeded fault injection; report job outcomes."""
    import json

    from repro.errors import ReproError
    from repro.faults import FaultPlan

    if suite:
        from repro.bench.harness import build_tpch_platform

        platform, admin, engine, queries = build_tpch_platform(scale=0.1)
        workload = list(queries.items())
    else:
        platform, admin = _build_demo_platform()
        engine = platform.home_engine
        sql = sql or (
            "SELECT region, COUNT(*) AS n, SUM(amount) AS total "
            "FROM demo.orders WHERE id < 150 GROUP BY region ORDER BY total DESC"
        )
        workload = [(f"q{i + 1:02d}", sql) for i in range(repeat)]

    ctx = platform.ctx
    try:
        if plans:
            plan = FaultPlan.parse(plans, seed=seed)
        else:
            plan = FaultPlan.uniform(rate if rate is not None else 0.05, seed=seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ctx.faults.install(plan)
    if no_retries:
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
        f"\nseed={seed} queries={len(workload)} succeeded={succeeded} "
        f"failed={failed} faults_injected={faults_fired} retries={retries} "
        f"degraded={degraded} retries_enabled={not no_retries}"
    )
    if json_path:
        report = {
            "seed": seed,
            "plan": plans or [f"uniform:rate={rate if rate is not None else 0.05}"],
            "retries_enabled": not no_retries,
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
        }
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"chaos report written to {json_path}")
    return 0


def _cache_stats() -> int:
    """Cold run, warm run, then the CACHE_STATS table — a self-checking
    walkthrough of the data cache (byte-identical results, warm hits > 0).
    Deterministic output: ``scripts/check.sh`` diffs two invocations."""
    platform, admin = _build_demo_platform()
    engine = platform.home_engine
    sql = (
        "SELECT region, COUNT(*) AS n, SUM(amount) AS total "
        "FROM demo.orders WHERE id < 250 GROUP BY region ORDER BY region"
    )
    print(f"-- {sql}\n")
    cold = engine.execute(sql, admin)
    warm = engine.execute(sql, admin)
    if warm.rows() != cold.rows():
        print("error: warm run returned different rows than cold run", file=sys.stderr)
        return 1
    if warm.stats.cache_hit_bytes <= 0:
        print("error: warm run served no bytes from the data cache", file=sys.stderr)
        return 1
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
    return 0


def _querycache() -> int:
    """Plan + result cache walkthrough: cold/warm identity, zero-scan warm
    hits that parse nothing, and snapshot-keyed DML coherence.
    Deterministic output: ``scripts/check.sh`` diffs two invocations."""
    import zlib
    from unittest import mock

    from repro import DataType, Schema
    from repro.engine import engine as engine_module
    from repro.serving import jobs as jobs_module

    platform, admin = _build_demo_platform()
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
    failures = 0
    if parsed:
        print("error: the warm hit parsed a statement", file=sys.stderr)
        failures += 1
    if warm.rows() != cold.rows():
        print("error: warm run returned different rows than cold run", file=sys.stderr)
        failures += 1
    if not warm.stats.cache_hit or cold.stats.cache_hit:
        print("error: expected cold miss then warm hit", file=sys.stderr)
        failures += 1
    if warm.stats.bytes_scanned != 0:
        print("error: warm hit still scanned bytes", file=sys.stderr)
        failures += 1
    if not warm_gets < cold_gets:
        print(
            f"error: warm run did not issue strictly fewer GETs "
            f"({warm_gets} vs {cold_gets})",
            file=sys.stderr,
        )
        failures += 1

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
    if second.stats.cache_hit or second.rows() == first.rows():
        print(
            "error: DML did not invalidate the cached result (stale served)",
            file=sys.stderr,
        )
        failures += 1
    if entries_before < 1:
        print(
            "error: DML flushed the result tier (coherence must be by "
            "keying, not flushing)",
            file=sys.stderr,
        )
        failures += 1

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
    if failures:
        return 1
    print("\nquery-cache coherence: OK")
    return 0


# The default `serve --chaos` profile: transient object-store faults hot
# enough to leave FAILED jobs in history, plus stragglers for speculation.
SERVE_CHAOS_PLAN = [
    "objectstore.get:rate=0.25:max=40",
    "task.slow:rate=0.15:factor=4",
]


def _serve(
    seed: int,
    smoke: bool,
    chaos: bool,
    plans: list[str],
    json_path: str | None,
) -> int:
    """Concurrent multi-query serving walkthrough: shared slot pool +
    async jobs API over a seeded multi-principal TPC-H/TPC-DS-lite mix.
    Self-checking (SQL ground truth must tie out) and deterministic."""
    import json

    from repro.serving.workload import run_serve

    specs = plans or (SERVE_CHAOS_PLAN if chaos else [])
    kwargs = (
        dict(jobs=6, scale=0.05, analysts=2, mean_gap_ms=30.0)
        if smoke
        else dict(jobs=20, scale=0.1, analysts=4, mean_gap_ms=40.0)
    )
    try:
        report = run_serve(seed=seed, chaos=specs or None, **kwargs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    mode = "smoke" if smoke else "full"
    print(
        f"-- serve: {kwargs['jobs']} jobs, {kwargs['analysts']} principals, "
        f"4 concurrent, seed={seed} ({mode}"
        + (f", chaos={','.join(specs)})" if specs else ")")
        + "\n"
    )
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
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"serve report written to {json_path}")
    if not report["tie_out_ok"]:
        for line in report["tie_out_errors"]:
            print(f"error: tie-out failed: {line}", file=sys.stderr)
        return 1
    print("INFORMATION_SCHEMA.JOBS tie-out: OK")
    return 0


# The default `monitor --chaos` profile: the serve plan plus data-cache
# faults, so the cache-bypass burn-rate rule has bad events to burn.
MONITOR_CHAOS_PLAN = SERVE_CHAOS_PLAN + ["cache.get:rate=0.35:max=30"]

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


def _monitor(
    seed: int,
    smoke: bool,
    chaos: bool,
    plans: list[str],
    json_path: str | None,
    chrome_trace_path: str | None,
) -> int:
    """Fleet-telemetry walkthrough: the serve workload under scraping +
    reservation timelines + SLO alerting. Self-checking (reservation
    timeline must tie out against JOBS/JOBS_TIMELINE; a chaos run must
    fire a burn-rate alert) and deterministic."""
    import json

    from repro.obs.export import serve_chrome_trace_json
    from repro.serving.workload import run_monitor

    specs = plans or (MONITOR_CHAOS_PLAN if chaos else [])
    kwargs = (
        dict(jobs=6, scale=0.05, analysts=2, mean_gap_ms=30.0)
        if smoke
        else dict(jobs=20, scale=0.1, analysts=4, mean_gap_ms=40.0)
    )
    keep: dict = {}
    try:
        report = run_monitor(seed=seed, chaos=specs or None, keep=keep, **kwargs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    mon = report["monitor"]

    mode = "smoke" if smoke else "full"
    print(
        f"-- monitor: {kwargs['jobs']} jobs, {kwargs['analysts']} principals, "
        f"seed={seed} ({mode}"
        + (f", chaos={','.join(specs)})" if specs else ")")
        + "\n"
    )
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

    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nmonitor report written to {json_path}")
    if chrome_trace_path:
        with open(chrome_trace_path, "w", encoding="utf-8") as fh:
            fh.write(serve_chrome_trace_json(keep["platform"].jobs()))
        print(f"serve Chrome trace written to {chrome_trace_path}")

    failures = 0
    if not report["tie_out_ok"]:
        for line in report["tie_out_errors"]:
            print(f"error: tie-out failed: {line}", file=sys.stderr)
        failures += 1
    if mon["batches_observed"] <= 0 or mon["scrapes"] <= 0:
        print("error: monitor observed no batches or scrapes", file=sys.stderr)
        failures += 1
    if specs and not mon["burn_alerts_fired"]:
        print(
            "error: chaos run fired no burn-rate alert (expected the error "
            "budget to burn deterministically)",
            file=sys.stderr,
        )
        failures += 1
    if failures:
        return 1
    burned = (
        f"  burn_alerts={','.join(mon['burn_alerts_fired'])}"
        if mon["burn_alerts_fired"]
        else ""
    )
    print(f"\nRESERVATION_TIMELINE tie-out: OK{burned}")
    return 0


def _build_skewed_platform(sizes: list[int] | None = None):
    """(platform, admin) with ``demo.events``: one fat file among small ones.

    The deliberate size skew (part-0 holds ~half the rows) gives the
    scheduler a naturally imbalanced stage even before any ``task.slow``
    straggler plan is installed. ``sizes`` overrides the per-file row
    counts (used by the ``readsession`` walkthrough).
    """
    from repro import (
        DataType, LakehousePlatform, MetadataCacheMode, Role, Schema,
        batch_from_pydict,
    )
    from repro.storageapi.fileutil import write_data_file

    platform = LakehousePlatform()
    admin = platform.admin_user()
    store = platform.stores.store_for("gcp/us-central1")
    store.create_bucket("skew-lake")
    schema = Schema.of(
        ("id", DataType.INT64), ("region", DataType.STRING), ("amount", DataType.FLOAT64)
    )
    sizes = sizes or [700, 80, 80, 80, 80, 80, 80, 80]
    start = 0
    for part, rows in enumerate(sizes):
        write_data_file(
            store, "skew-lake", f"events/part-{part}.pqs", schema,
            [batch_from_pydict(schema, {
                "id": list(range(start, start + rows)),
                "region": [("us", "eu", "apac")[i % 3] for i in range(rows)],
                "amount": [float(i % 97) for i in range(rows)],
            })],
        )
        start += rows
    conn = platform.connections.create_connection("us.skew")
    platform.connections.grant_lake_access(conn, "skew-lake")
    platform.iam.grant("connections/us.skew", Role.CONNECTION_USER, admin)
    platform.catalog.create_dataset("demo")
    platform.tables.create_biglake_table(
        admin, "demo", "events", schema, "skew-lake", "events", "us.skew",
        cache_mode=MetadataCacheMode.AUTOMATIC,
    )
    return platform, admin


def _schedule(sql: str | None, seed: int, plans: list[str], json_path: str | None) -> int:
    """Skew/straggler walkthrough: the same seeded query with and without
    speculative execution. Self-checking (identical rows, speculation never
    slower) and deterministic: ``scripts/check.sh`` diffs two invocations."""
    import json

    from repro.engine.scheduler import SpeculationConfig
    from repro.errors import ReproError
    from repro.faults import FaultPlan

    sql = sql or (
        "SELECT region, COUNT(*) AS n, SUM(amount) AS total "
        "FROM demo.events GROUP BY region ORDER BY region"
    )
    specs = plans or ["task.slow:rate=0.3:factor=8"]

    def run(speculation: bool):
        platform, admin = _build_skewed_platform()
        engine = platform.home_engine
        if not speculation:
            engine.speculation = SpeculationConfig(enabled=False)
        platform.ctx.faults.install(FaultPlan.parse(specs, seed=seed))
        return engine.execute(sql, admin)

    print(f"-- {sql}\n-- plan={','.join(specs)} seed={seed}\n")
    try:
        on = run(speculation=True)
        off = run(speculation=False)
    except (ReproError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if on.rows() != off.rows():
        print(
            "error: speculation changed the query's rows (must be result-"
            "invariant)",
            file=sys.stderr,
        )
        return 1
    if on.stats.elapsed_ms > off.stats.elapsed_ms + 1e-6:
        print(
            "error: speculation made the query slower "
            f"({on.stats.elapsed_ms:.3f} ms > {off.stats.elapsed_ms:.3f} ms)",
            file=sys.stderr,
        )
        return 1

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

    if json_path:
        report = {
            "seed": seed,
            "plan": specs,
            "sql": sql,
            "rows_identical": True,
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
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"schedule report written to {json_path}")
    return 0


# The default `txn --chaos` profile is built by repro.txn.workload.chaos_plan:
# writer crashes at every publish step plus storage/metadata transients.
TXN_CHAOS_RATE = 0.08

# The `txn --recover` profile: crash-heavy, so the run leans on the
# recovery sweep (both roll directions) instead of the happy path.
TXN_RECOVER_RATE = 0.25


def _txn(
    seed: int,
    smoke: bool,
    recover: bool,
    chaos: bool,
    plans: list[str],
    rate: float | None,
    json_path: str | None,
) -> int:
    """Multi-table ACID transaction walkthrough: concurrent order/lineitem
    writers under seeded faults, checked by the torn-state oracle at every
    view a reader can obtain. Self-checking (zero violations, zero dangling
    intents, every transaction eventually commits) and deterministic: same
    seed ⇒ byte-identical ``--json`` report."""
    import json

    from repro.txn.workload import run_txn_workload

    if rate is None:
        rate = TXN_RECOVER_RATE if recover else (TXN_CHAOS_RATE if chaos else 0.0)
    kwargs = (
        dict(writers=2, txns_per_writer=2, orders=3)
        if smoke
        else dict(writers=4, txns_per_writer=3, orders=4)
    )
    try:
        report = run_txn_workload(seed=seed, rate=rate, plans=plans or None, **kwargs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    mode = "smoke" if smoke else ("recover" if recover else "full")
    print(
        f"-- txn: {kwargs['writers']} writers x {kwargs['txns_per_writer']} txns, "
        f"{kwargs['orders']} orders, seed={seed} rate={rate:g} ({mode})\n"
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
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"txn report written to {json_path}")

    failures = 0
    for violation in report["violations"]:
        print(f"error: invariant violated: {violation}", file=sys.stderr)
        failures += 1
    if report["dangling_intents"]:
        print(
            f"error: {report['dangling_intents']} dangling intent(s) survived "
            "the final recovery sweep",
            file=sys.stderr,
        )
        failures += 1
    expected = kwargs["writers"] * kwargs["txns_per_writer"]
    if report["commits"] != expected or report["gave_up"]:
        print(
            f"error: {report['commits']}/{expected} transactions committed "
            f"({report['gave_up']} gave up)",
            file=sys.stderr,
        )
        failures += 1
    if recover and rec["rolled_forward"] + rec["rolled_back"] == 0:
        print(
            "error: --recover run exercised no recovery (no crash landed "
            "mid-publish; raise the rate or change the seed)",
            file=sys.stderr,
        )
        failures += 1
    if failures:
        return 1
    print("torn-state oracle: OK")
    return 0


# The default `readsession --chaos` profile: transient faults on the
# governed read path, all recoverable, so the drain still ties out.
READSESSION_CHAOS_PLAN = [
    "objectstore.get:rate=0.2:max=20",
    "read_api.read_rows:rate=0.1:max=8",
]


def _readsession(
    seed: int,
    smoke: bool,
    chaos: bool,
    plans: list[str],
    json_path: str | None,
) -> int:
    """Serializable session handoff + rebalancing walkthrough: create one
    multi-stream session over a skewed lake, serialize it, and drain it
    with one attached consumer per stream — healthy, with an injected
    consumer lag, and with the lag plus the rebalancer. Self-checking
    (row CRCs identical across all three legs, rebalancing must recover
    some of the lag inflation) and deterministic: same seed ⇒
    byte-identical ``--json`` report."""
    import json

    from repro.faults import FaultPlan
    from repro.storageapi.streams import drain_session

    sizes = [300] + [60] * 7 if smoke else [600] + [90] * 11
    n_streams = 4
    lag_factor = 4.0
    specs = plans or (READSESSION_CHAOS_PLAN if chaos else [])

    def leg(lag_stream: int | None = None, rebalance: bool = False):
        platform, admin = _build_skewed_platform(sizes)
        info = platform.catalog.get_table("demo", "events")
        session = platform.read_api.create_read_session(
            admin, info, max_streams=n_streams
        )
        blob = session.serialize()
        # Chaos targets the consumers: the session is established, then
        # the drain's governed reads run under the fault plan (transient,
        # so every leg still ties out after retries).
        try:
            if specs:
                platform.ctx.faults.install(FaultPlan.parse(specs, seed=seed))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            raise SystemExit(1) from None
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

    mode = "smoke" if smoke else "full"
    print(
        f"-- readsession: {len(sizes)} files over {n_streams} streams, "
        f"seed={seed} ({mode}"
        + (f", chaos={','.join(specs)})" if specs else ")")
        + "\n"
    )
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

    if json_path:
        payload = {
            "seed": seed,
            "plan": specs,
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
        }
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"readsession report written to {json_path}")

    failures = 0
    if not crc_identical or not rows_identical:
        print(
            "error: rebalancing or lag changed the returned rows (must be "
            "result-invariant)",
            file=sys.stderr,
        )
        failures += 1
    if inflation <= 0:
        print("error: injected lag did not inflate the makespan", file=sys.stderr)
        failures += 1
    if recovered <= 0:
        print("error: rebalancing recovered none of the lag inflation", file=sys.stderr)
        failures += 1
    if failures:
        return 1
    print("handoff round-trip + rebalance invariance: OK")
    return 0


def _experiments(extra: list[str]) -> int:
    command = [
        sys.executable, "-m", "pytest", "benchmarks/", "--benchmark-only",
        "-p", "no:warnings", "-s", "-q", *extra,
    ]
    return subprocess.call(command)


def _info() -> int:
    import repro

    print(f"repro {repro.__version__} — BigLake reproduction (SIGMOD 2024)")
    print(__doc__)
    print("Subsystems: data, formats, objectstore, cloud, security, metastore,")
    print("  tableformats, sql, engine, storageapi, core, objects, ml, omni,")
    print("  external, workloads, bench")
    print("Experiments: see DESIGN.md (index) and EXPERIMENTS.md (results).")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "command",
        choices=[
            "demo", "trace", "jobs", "chaos", "cache-stats", "querycache",
            "schedule", "serve", "monitor", "txn", "readsession",
            "experiments", "info",
        ],
        nargs="?", default="demo",
    )
    parser.add_argument(
        "extra", nargs="*",
        help="SQL for 'trace'/'chaos'; extra pytest args for 'experiments'",
    )
    parser.add_argument(
        "--timeline", metavar="JOB_ID",
        help="for 'jobs': print the per-span timeline of one job",
    )
    parser.add_argument(
        "--chrome-trace", metavar="OUT.json", dest="chrome_trace",
        help="for 'jobs': write the job's trace in Chrome trace-event "
        "format; for 'monitor': export the whole serve run with "
        "per-principal lanes",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="for 'chaos'/'schedule'/'serve': RNG seed (same seed => "
        "same faults and arrivals)",
    )
    parser.add_argument(
        "--plan", action="append", default=[], metavar="SPEC",
        help="for 'chaos'/'schedule'/'serve': fault spec 'op:key=val:...' e.g. "
        "'objectstore.get:rate=0.1' or 'task.slow:rate=0.3:factor=8' "
        "(repeatable)",
    )
    parser.add_argument(
        "--rate", type=float, default=None,
        help="for 'chaos': uniform transient-fault rate when no --plan "
        "is given (default 0.05)",
    )
    parser.add_argument(
        "--no-retries", action="store_true", dest="no_retries",
        help="for 'chaos': disable the retry policy (chaos without recovery)",
    )
    parser.add_argument(
        "--suite", action="store_true",
        help="for 'chaos': run the TPC-H-lite suite instead of one statement",
    )
    parser.add_argument(
        "--repeat", type=int, default=8,
        help="for 'chaos': times to run the statement (non-suite mode)",
    )
    parser.add_argument(
        "--json", metavar="OUT.json", dest="json_path",
        help="for 'chaos'/'schedule'/'serve': write the machine-readable "
        "report",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="for 'serve'/'monitor'/'txn'/'readsession': small fast "
        "variant for CI",
    )
    parser.add_argument(
        "--chaos", action="store_true", dest="serve_chaos",
        help="for 'serve'/'monitor'/'txn'/'readsession': replay the "
        "workload under the default seeded fault plan (or give explicit "
        "--plan specs)",
    )
    parser.add_argument(
        "--recover", action="store_true",
        help="for 'txn': crash-heavy profile that must exercise the "
        "recovery sweep (exit non-zero if it never runs)",
    )
    args = parser.parse_args(argv)
    if args.command == "demo":
        return _demo()
    if args.command == "trace":
        return _trace(" ".join(args.extra) if args.extra else None)
    if args.command == "jobs":
        return _jobs(args.timeline, args.chrome_trace)
    if args.command == "chaos":
        return _chaos(
            " ".join(args.extra) if args.extra else None,
            args.seed, args.plan, args.rate, args.no_retries,
            args.suite, args.repeat, args.json_path,
        )
    if args.command == "cache-stats":
        return _cache_stats()
    if args.command == "querycache":
        return _querycache()
    if args.command == "serve":
        return _serve(
            args.seed, args.smoke, args.serve_chaos, args.plan, args.json_path
        )
    if args.command == "monitor":
        return _monitor(
            args.seed, args.smoke, args.serve_chaos, args.plan,
            args.json_path, args.chrome_trace,
        )
    if args.command == "txn":
        return _txn(
            args.seed, args.smoke, args.recover, args.serve_chaos,
            args.plan, args.rate, args.json_path,
        )
    if args.command == "readsession":
        return _readsession(
            args.seed, args.smoke, args.serve_chaos, args.plan, args.json_path
        )
    if args.command == "schedule":
        return _schedule(
            " ".join(args.extra) if args.extra else None,
            args.seed, args.plan, args.json_path,
        )
    if args.command == "experiments":
        return _experiments(args.extra)
    return _info()


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        raise SystemExit(0)
