"""``INFORMATION_SCHEMA`` virtual tables: observability you can SELECT.

The paper's lakehouse argument (§3.2–§3.4) is that one governed SQL
surface subsumes side-channel tooling. This module applies that argument
to the platform's *own* telemetry: job history, span timelines, storage
metadata, the data-access audit log, and the metrics registry are exposed
as virtual tables the planner resolves like any other relation, so
filters, joins, and aggregates compose over them — and access is governed
by the same IAM service that guards the data.

Tables (all under the ``INFORMATION_SCHEMA`` pseudo-dataset):

* ``JOBS`` — one row per executed statement (from :class:`JobHistory`).
  Principals see their own jobs; ``bigquery.jobs.listAll`` (the admin
  role) widens the view to everyone's.
* ``JOBS_TIMELINE`` — one row per span of each job's trace tree, same
  visibility rule as ``JOBS``.
* ``TABLE_STORAGE`` — per-table file/row/byte/commit counts from Big
  Metadata (or managed storage), filtered to tables the principal can
  ``bigquery.tables.get``.
* ``DATA_ACCESS`` — the security audit log with job-id correlation.
  Admin-only (``bigquery.auditLogs.read``); a denied read is itself
  audited.
* ``METRICS`` — the current metrics-registry snapshot.
* ``CACHE_STATS`` — one row per cache tier (the data cache's footer /
  chunk / dictionary plus the query cache's plan / result): residency,
  capacity, hit/miss/eviction counters. The query cache asks its result
  tier first, so a statement served from it counts one ``result`` hit and
  leaves the ``plan`` row alone (no hit, no miss, no recency bump): the
  ``plan`` counters cover only statements that went on to execute.
* ``RESERVATION_TIMELINE`` — per-interval, per-principal slot occupancy
  from the fleet monitor (slot-ms split scan/compute, queue depth,
  fair-share attainment). Same visibility rule as ``JOBS``: principals
  see their own rows unless they hold ``bigquery.jobs.listAll``.
* ``METRICS_HISTORY`` — the scraped metric samples over sim time, with
  staleness markers. Requires ``monitoring.timeSeries.list`` (admin);
  a denied read is audited.
* ``ALERTS`` — the SLO alert log (state transitions from the alert
  engine). Same governance as ``METRICS_HISTORY``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.data.types import DataType, Schema
from repro.errors import AccessDeniedError, NotFoundError
from repro.obs.history import JobHistory, JobRecord, timeline_rows
from repro.security.iam import IamService, Permission, Principal

if TYPE_CHECKING:
    from repro.metastore.bigmeta import BigMetadataService
    from repro.metastore.catalog import Catalog
    from repro.obs.metrics import MetricsRegistry
    from repro.security.audit import AuditLog
    from repro.storageapi.managed import ManagedStorage

INFORMATION_SCHEMA = "INFORMATION_SCHEMA"

JOBS_SCHEMA = Schema.of(
    ("job_id", DataType.STRING),
    ("user", DataType.STRING),
    ("sql", DataType.STRING),
    ("kind", DataType.STRING),
    ("state", DataType.STRING),
    ("error", DataType.STRING),
    ("engine", DataType.STRING),
    ("start_ms", DataType.FLOAT64),
    ("end_ms", DataType.FLOAT64),
    ("total_ms", DataType.FLOAT64),
    ("slot_ms", DataType.FLOAT64),
    ("bytes_scanned", DataType.INT64),
    ("rows_scanned", DataType.INT64),
    ("rows_produced", DataType.INT64),
    ("files_read", DataType.INT64),
    ("files_total", DataType.INT64),
    ("shuffle_partitions", DataType.INT64),
    ("compute_parallelism", DataType.INT64),
    ("bytes_read", DataType.INT64),
    ("bytes_written", DataType.INT64),
    ("bytes_egressed", DataType.INT64),
    ("retry_count", DataType.INT64),
    ("degraded", DataType.BOOL),
    ("cache_hit_bytes", DataType.INT64),
    ("cache_hit_ratio", DataType.FLOAT64),
    ("task_skew", DataType.FLOAT64),
    ("speculative_count", DataType.INT64),
    ("creation_ms", DataType.FLOAT64),
    ("queue_wait_ms", DataType.FLOAT64),
    ("backoff_ms", DataType.FLOAT64),
    ("cold_read_ms", DataType.FLOAT64),
    ("degraded_ms", DataType.FLOAT64),
    # Appended (not inserted) so positional readers of older columns keep
    # working: the multi-table transaction the statement ran inside ("" if
    # none) and the stable machine-readable terminal error code.
    ("transaction_id", DataType.STRING),
    ("error_code", DataType.STRING),
    # Appended: whether the query-result cache served the whole statement.
    ("cache_hit", DataType.BOOL),
)

JOBS_TIMELINE_SCHEMA = Schema.of(
    ("job_id", DataType.STRING),
    ("span_id", DataType.INT64),
    ("parent_span_id", DataType.INT64),
    ("name", DataType.STRING),
    ("layer", DataType.STRING),
    ("start_ms", DataType.FLOAT64),
    ("duration_ms", DataType.FLOAT64),
    ("self_ms", DataType.FLOAT64),
    ("tags", DataType.STRING),
)

TABLE_STORAGE_SCHEMA = Schema.of(
    ("table_catalog", DataType.STRING),
    ("table_schema", DataType.STRING),
    ("table_name", DataType.STRING),
    ("kind", DataType.STRING),
    ("total_files", DataType.INT64),
    ("total_rows", DataType.INT64),
    ("total_bytes", DataType.INT64),
    ("commit_count", DataType.INT64),
    ("version", DataType.INT64),
)

DATA_ACCESS_SCHEMA = Schema.of(
    ("timestamp_ms", DataType.FLOAT64),
    ("principal", DataType.STRING),
    ("action", DataType.STRING),
    ("resource", DataType.STRING),
    ("allowed", DataType.BOOL),
    ("detail", DataType.STRING),
    ("job_id", DataType.STRING),
)

METRICS_SCHEMA = Schema.of(
    ("name", DataType.STRING),
    ("kind", DataType.STRING),
    ("sample", DataType.STRING),
    ("value", DataType.FLOAT64),
)

CACHE_STATS_SCHEMA = Schema.of(
    ("tier", DataType.STRING),
    ("entries", DataType.INT64),
    ("resident_bytes", DataType.INT64),
    ("capacity_bytes", DataType.INT64),
    ("hits", DataType.INT64),
    ("misses", DataType.INT64),
    ("evictions", DataType.INT64),
    ("admission_rejects", DataType.INT64),
    ("hit_bytes", DataType.INT64),
    ("hit_ratio", DataType.FLOAT64),
)

RESERVATION_TIMELINE_SCHEMA = Schema.of(
    ("period_start_ms", DataType.FLOAT64),
    ("period_end_ms", DataType.FLOAT64),
    ("principal", DataType.STRING),
    ("slot_ms", DataType.FLOAT64),
    ("scan_slot_ms", DataType.FLOAT64),
    ("compute_slot_ms", DataType.FLOAT64),
    ("queue_ms", DataType.FLOAT64),
    ("queue_depth_avg", DataType.FLOAT64),
    ("running_avg", DataType.FLOAT64),
    ("jobs_admitted", DataType.INT64),
    ("jobs_completed", DataType.INT64),
    ("weight", DataType.FLOAT64),
    ("attainment", DataType.FLOAT64),
)

METRICS_HISTORY_SCHEMA = Schema.of(
    ("scrape_ms", DataType.FLOAT64),
    ("name", DataType.STRING),
    ("kind", DataType.STRING),
    ("sample", DataType.STRING),
    ("value", DataType.FLOAT64),
    ("stale", DataType.BOOL),
)

TRANSACTIONS_SCHEMA = Schema.of(
    ("transaction_id", DataType.STRING),
    ("state", DataType.STRING),
    ("writer", DataType.STRING),
    ("begin_ms", DataType.FLOAT64),
    ("commit_ms", DataType.FLOAT64),
    ("finalized", DataType.BOOL),
    ("table_count", DataType.INT64),
    ("tables", DataType.STRING),
)

ALERTS_SCHEMA = Schema.of(
    ("at_ms", DataType.FLOAT64),
    ("rule", DataType.STRING),
    ("severity", DataType.STRING),
    ("state", DataType.STRING),
    ("value", DataType.FLOAT64),
    ("threshold", DataType.FLOAT64),
    ("window_ms", DataType.FLOAT64),
    ("series", DataType.STRING),
    ("detail", DataType.STRING),
)

_SCHEMAS: dict[str, Schema] = {
    "JOBS": JOBS_SCHEMA,
    "JOBS_TIMELINE": JOBS_TIMELINE_SCHEMA,
    "TABLE_STORAGE": TABLE_STORAGE_SCHEMA,
    "DATA_ACCESS": DATA_ACCESS_SCHEMA,
    "METRICS": METRICS_SCHEMA,
    "CACHE_STATS": CACHE_STATS_SCHEMA,
    "RESERVATION_TIMELINE": RESERVATION_TIMELINE_SCHEMA,
    "METRICS_HISTORY": METRICS_HISTORY_SCHEMA,
    "ALERTS": ALERTS_SCHEMA,
    "TRANSACTIONS": TRANSACTIONS_SCHEMA,
}


class SystemTables:
    """Resolver + row producer for the ``INFORMATION_SCHEMA`` tables.

    One instance per platform, sharing the platform's control-plane
    services. The planner asks :meth:`resolves`/:meth:`schema` at plan
    time; the executor calls :meth:`scan` with the querying principal at
    run time, which is where governance is enforced.
    """

    def __init__(
        self,
        project: str,
        history: JobHistory,
        iam: IamService,
        audit: "AuditLog",
        catalog: "Catalog",
        bigmeta: "BigMetadataService",
        managed: "ManagedStorage",
        metrics: "MetricsRegistry",
        cache=None,
        monitor=None,
        query_cache=None,
    ) -> None:
        self.project = project
        self.history = history
        self.iam = iam
        self.audit = audit
        self.catalog = catalog
        self.bigmeta = bigmeta
        self.managed = managed
        self.metrics = metrics
        # repro.cache.DataCache; None renders CACHE_STATS as empty.
        self.cache = cache
        # repro.cache.plan.QueryCache; contributes plan/result tier rows
        # to CACHE_STATS when present.
        self.query_cache = query_cache
        # repro.obs.monitor.FleetMonitor; None (or disabled) renders the
        # telemetry tables as empty — governance still applies.
        self.monitor = monitor
        # repro.txn.TransactionLog (set by the txn coordinator); None
        # renders TRANSACTIONS as empty.
        self.txn_log = None

    # -- name resolution ----------------------------------------------------

    def resolves(self, path: tuple[str, ...]) -> bool:
        """Whether a dotted table path names a system table
        (``INFORMATION_SCHEMA.X`` or ``project.INFORMATION_SCHEMA.X``)."""
        if len(path) == 3 and path[0] != self.project:
            return False
        if len(path) not in (2, 3):
            return False
        return path[-2].upper() == INFORMATION_SCHEMA

    def normalize(self, path: tuple[str, ...]) -> str:
        name = path[-1].upper()
        if name not in _SCHEMAS:
            raise NotFoundError(
                f"system table INFORMATION_SCHEMA.{path[-1]} not found "
                f"(available: {', '.join(sorted(_SCHEMAS))})"
            )
        return name

    def schema(self, name: str) -> Schema:
        return _SCHEMAS[name.upper()]

    def table_names(self) -> list[str]:
        return sorted(_SCHEMAS)

    # -- governance ---------------------------------------------------------

    @property
    def _project_resource(self) -> str:
        return f"projects/{self.project}"

    def _sees_all_jobs(self, principal: Principal) -> bool:
        return self.iam.is_allowed(
            principal, Permission.JOBS_LIST_ALL, self._project_resource
        ).allowed

    def _visible_jobs(self, principal: Principal) -> list[JobRecord]:
        records = self.history.jobs()
        if self._sees_all_jobs(principal):
            return records
        me = str(principal)
        return [r for r in records if r.principal == me]

    # -- scans --------------------------------------------------------------

    def scan(self, name: str, principal: Principal) -> list[tuple]:
        """Produce the rows of one system table as seen by ``principal``."""
        name = name.upper()
        if name == "JOBS":
            rows = self._jobs_rows(principal)
        elif name == "JOBS_TIMELINE":
            rows = self._timeline_rows(principal)
        elif name == "TABLE_STORAGE":
            rows = self._table_storage_rows(principal)
        elif name == "DATA_ACCESS":
            rows = self._data_access_rows(principal)
        elif name == "METRICS":
            rows = self._metrics_rows()
        elif name == "CACHE_STATS":
            rows = self.cache.stats_rows() if self.cache is not None else []
            if self.query_cache is not None:
                rows = rows + self.query_cache.stats_rows()
        elif name == "RESERVATION_TIMELINE":
            rows = self._reservation_rows(principal)
        elif name == "METRICS_HISTORY":
            rows = self._monitoring_rows(principal, name, "metrics_history_rows")
        elif name == "ALERTS":
            rows = self._monitoring_rows(principal, name, "alert_rows")
        elif name == "TRANSACTIONS":
            rows = self._transactions_rows(principal)
        else:
            raise NotFoundError(f"system table INFORMATION_SCHEMA.{name} not found")
        self.audit.record(
            principal,
            "system_tables.read",
            f"{self._project_resource}/informationSchema/{name}",
            True,
            detail=f"{len(rows)} rows",
        )
        return rows

    def _reservation_rows(self, principal: Principal) -> list[tuple]:
        """Per-interval slot occupancy, scoped like JOBS: principals see
        their own intervals unless they can list everyone's jobs."""
        if self.monitor is None:
            return []
        rows = self.monitor.reservation_rows()
        if self._sees_all_jobs(principal):
            return rows
        me = str(principal)
        return [row for row in rows if row[2] == me]

    def _monitoring_rows(
        self, principal: Principal, name: str, accessor: str
    ) -> list[tuple]:
        """METRICS_HISTORY / ALERTS: fleet-wide telemetry, admin-only
        (``monitoring.timeSeries.list``); a denied read is itself audited,
        like DATA_ACCESS."""
        decision = self.iam.is_allowed(
            principal, Permission.MONITORING_READ, self._project_resource
        )
        if not decision.allowed:
            self.audit.record(
                principal,
                "system_tables.read",
                f"{self._project_resource}/informationSchema/{name}",
                False,
                detail=decision.reason,
            )
            raise AccessDeniedError(
                f"{principal} lacks {Permission.MONITORING_READ.value} on "
                f"{self._project_resource}: INFORMATION_SCHEMA.{name} is admin-only"
            )
        if self.monitor is None:
            return []
        return list(getattr(self.monitor, accessor)())

    def _jobs_rows(self, principal: Principal) -> list[tuple]:
        return [
            (
                r.job_id,
                r.principal,
                r.sql,
                r.kind,
                r.state,
                r.error,
                r.engine,
                r.start_ms,
                r.end_ms,
                r.total_ms,
                r.slot_ms,
                r.bytes_scanned,
                r.rows_scanned,
                r.rows_produced,
                r.files_read,
                r.files_total,
                r.shuffle_partitions,
                r.compute_parallelism,
                r.bytes_read,
                r.bytes_written,
                r.bytes_egressed,
                r.retry_count,
                r.degraded,
                r.cache_hit_bytes,
                r.cache_hit_ratio,
                r.task_skew,
                r.speculative_count,
                r.creation_ms,
                r.queue_wait_ms,
                r.backoff_ms,
                r.cold_read_ms,
                r.degraded_ms,
                r.transaction_id,
                r.error_code,
                r.cache_hit,
            )
            for r in self._visible_jobs(principal)
        ]

    def _transactions_rows(self, principal: Principal) -> list[tuple]:
        if self.txn_log is None:
            return []
        sees_all = self._sees_all_jobs(principal)
        rows: list[tuple] = []
        for r in self.txn_log.entries():
            if not sees_all and r.writer != str(principal):
                continue
            rows.append(
                (
                    r.txn_id,
                    r.state,
                    r.writer,
                    r.begin_ms,
                    r.commit_ms,
                    r.finalized,
                    len(r.tables),
                    ",".join(tc.table_id for tc in r.tables),
                )
            )
        return rows

    def _timeline_rows(self, principal: Principal) -> list[tuple]:
        rows: list[tuple] = []
        for record in self._visible_jobs(principal):
            rows.extend(timeline_rows(record))
        return rows

    def _table_storage_rows(self, principal: Principal) -> list[tuple]:
        rows: list[tuple] = []
        for dataset_name in self.catalog.dataset_names():
            for table in self.catalog.list_tables(dataset_name):
                decision = self.iam.is_allowed(
                    principal, Permission.TABLES_GET, table.resource_name
                )
                if not decision.allowed:
                    continue
                files = rows_total = size = commits = 0
                if self.bigmeta.has_table(table.table_id):
                    stats = self.bigmeta.table_stats(table.table_id)
                    files = stats["num_files"]
                    rows_total = stats["num_rows"]
                    size = stats["num_bytes"]
                    commits = len(self.bigmeta.history(table.table_id))
                elif self.managed.exists(table.table_id):
                    rows_total = self.managed.row_count(table.table_id)
                rows.append(
                    (
                        table.project,
                        table.dataset,
                        table.name,
                        table.kind.value,
                        files,
                        rows_total,
                        size,
                        commits,
                        table.version,
                    )
                )
        return rows

    def _data_access_rows(self, principal: Principal) -> list[tuple]:
        decision = self.iam.is_allowed(
            principal, Permission.AUDIT_READ, self._project_resource
        )
        if not decision.allowed:
            self.audit.record(
                principal,
                "system_tables.read",
                f"{self._project_resource}/informationSchema/DATA_ACCESS",
                False,
                detail=decision.reason,
            )
            raise AccessDeniedError(
                f"{principal} lacks {Permission.AUDIT_READ.value} on "
                f"{self._project_resource}: INFORMATION_SCHEMA.DATA_ACCESS is admin-only"
            )
        # Snapshot first: recording this very read must not mutate the list
        # mid-iteration (the access audit lands after the scan returns).
        return [
            (
                e.timestamp_ms,
                str(e.principal),
                e.action,
                e.resource,
                e.allowed,
                e.detail,
                e.job_id,
            )
            for e in list(self.audit.events)
        ]

    def _metrics_rows(self) -> list[tuple]:
        rows: list[tuple] = []
        for metric_name in self.metrics.names():
            metric = self.metrics.get(metric_name)
            for sample_name, key, value in metric.samples():
                labels = ",".join(f'{k}="{v}"' for k, v in key)
                sample = f"{sample_name}{{{labels}}}" if labels else sample_name
                rows.append((metric_name, metric.kind, sample, float(value)))
        return rows
