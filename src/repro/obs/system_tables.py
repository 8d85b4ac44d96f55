"""``INFORMATION_SCHEMA`` virtual tables: observability you can SELECT.

The paper's lakehouse argument (§3.2–§3.4) is that one governed SQL
surface subsumes side-channel tooling. This module applies that argument
to the platform's *own* telemetry: job history, span timelines, storage
metadata, the data-access audit log, and the metrics registry are exposed
as virtual tables the planner resolves like any other relation, so
filters, joins, and aggregates compose over them — and access is governed
by the same IAM service that guards the data.

Each table is declared once, in :data:`TABLES`: its typed columns, its row
source and its governance; schema and rows are derived from that entry.

Tables (all under the ``INFORMATION_SCHEMA`` pseudo-dataset):

* ``JOBS`` — one row per submitted statement (from :class:`JobHistory`).
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
* ``TRANSACTIONS`` — the multi-table transaction log, one row per
  transaction; writers see their own, like ``JOBS``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Any

from repro.data.types import DataType, Schema
from repro.errors import AccessDeniedError, NotFoundError
from repro.obs.history import JobHistory, timeline_rows
from repro.security.iam import IamService, Permission, Principal

if TYPE_CHECKING:
    from repro.metastore.bigmeta import BigMetadataService
    from repro.metastore.catalog import Catalog
    from repro.obs.metrics import MetricsRegistry
    from repro.security.audit import AuditLog
    from repro.storageapi.managed import ManagedStorage

INFORMATION_SCHEMA = "INFORMATION_SCHEMA"

BOOL = DataType.BOOL
INT64 = DataType.INT64
FLOAT64 = DataType.FLOAT64
STRING = DataType.STRING


@dataclass(frozen=True)
class Column:
    """One system-table column. ``get`` reads its value off one item of the
    table's row source; it is None on a table that builds whole rows itself
    (:attr:`SystemTable.rows`)."""

    name: str
    dtype: DataType
    get: Callable[[Any], Any] | None = None


def _attr(name: str, dtype: DataType, attr: str | None = None) -> Column:
    """A column read from the item's attribute ``attr`` (default: its own
    name)."""
    return Column(name, dtype, attrgetter(attr or name))


@dataclass(frozen=True)
class SystemTable:
    """One ``INFORMATION_SCHEMA`` table: everything :class:`SystemTables`
    needs to resolve, govern and scan it."""

    name: str
    columns: tuple[Column, ...]
    # (the platform's SystemTables, the querying principal) -> the items
    # rows are made from.
    source: Callable[["SystemTables", Principal], Iterable[Any]]
    # item -> its rows. None: one row per item, read by the column getters.
    rows: Callable[[Any], Iterable[tuple]] | None = None
    # Admin-only: the permission a reader must hold on the project; a denied
    # read is itself audited.
    permission: Permission | None = None
    # Own-rows scoping: item -> the principal it belongs to. A reader
    # without ``bigquery.jobs.listAll`` sees only its own items.
    owner: Callable[[Any], str] | None = None

    @cached_property
    def schema(self) -> Schema:
        return Schema.of(*((c.name, c.dtype) for c in self.columns))


def _as_is(row: tuple) -> tuple[tuple]:
    """``rows`` of a table whose source already yields finished rows."""
    return (row,)


def _monitor_rows(accessor: str) -> Callable[["SystemTables", Principal], list]:
    """Source over one row accessor of the fleet monitor; no monitor, no rows."""
    return lambda tables, _: (
        [] if tables.monitor is None else getattr(tables.monitor, accessor)()
    )


#: One line per JOBS column, in column order (appended, never inserted, so
#: positional readers of older columns keep working). The items are
#: :class:`~repro.obs.history.JobRecord`; a name the record does not hold
#: itself is read from its ``stats``.
JOBS_COLUMNS = (
    _attr("job_id", STRING),
    _attr("user", STRING, "principal"),
    _attr("sql", STRING),
    _attr("kind", STRING),
    _attr("state", STRING),
    _attr("error", STRING),
    _attr("engine", STRING),
    _attr("start_ms", FLOAT64),
    _attr("end_ms", FLOAT64),
    _attr("total_ms", FLOAT64),
    _attr("slot_ms", FLOAT64),
    _attr("bytes_scanned", INT64),
    _attr("rows_scanned", INT64),
    _attr("rows_produced", INT64),
    _attr("files_read", INT64),
    _attr("files_total", INT64),
    _attr("shuffle_partitions", INT64),
    _attr("compute_parallelism", INT64),
    _attr("bytes_read", INT64),
    _attr("bytes_written", INT64),
    _attr("bytes_egressed", INT64),
    _attr("retry_count", INT64),
    _attr("degraded", BOOL),
    _attr("cache_hit_bytes", INT64),
    _attr("cache_hit_ratio", FLOAT64),
    _attr("task_skew", FLOAT64),
    _attr("speculative_count", INT64),
    _attr("creation_ms", FLOAT64),
    _attr("queue_wait_ms", FLOAT64),
    _attr("backoff_ms", FLOAT64),
    _attr("cold_read_ms", FLOAT64),
    _attr("degraded_ms", FLOAT64),
    # The multi-table transaction the statement ran inside ("" if none) and
    # the stable machine-readable terminal error code.
    _attr("transaction_id", STRING),
    _attr("error_code", STRING),
    # Whether the query-result cache served the whole statement.
    _attr("cache_hit", BOOL),
)

#: Every ``INFORMATION_SCHEMA`` table, declared once. Adding a table is one
#: entry here; adding a column is one line in its ``columns``.
TABLES: tuple[SystemTable, ...] = (
    SystemTable(
        "JOBS",
        JOBS_COLUMNS,
        source=lambda tables, _: tables.history.jobs(),
        owner=attrgetter("principal"),
    ),
    SystemTable(
        "JOBS_TIMELINE",
        (
            Column("job_id", STRING),
            Column("span_id", INT64),
            Column("parent_span_id", INT64),
            Column("name", STRING),
            Column("layer", STRING),
            Column("start_ms", FLOAT64),
            Column("duration_ms", FLOAT64),
            Column("self_ms", FLOAT64),
            Column("tags", STRING),
        ),
        source=lambda tables, _: tables.history.jobs(),
        rows=timeline_rows,
        owner=attrgetter("principal"),
    ),
    SystemTable(
        "TABLE_STORAGE",
        (
            Column("table_catalog", STRING),
            Column("table_schema", STRING),
            Column("table_name", STRING),
            Column("kind", STRING),
            Column("total_files", INT64),
            Column("total_rows", INT64),
            Column("total_bytes", INT64),
            Column("commit_count", INT64),
            Column("version", INT64),
        ),
        source=lambda tables, principal: tables._table_storage_rows(principal),
        rows=_as_is,
    ),
    SystemTable(
        "DATA_ACCESS",
        (
            _attr("timestamp_ms", FLOAT64),
            Column("principal", STRING, lambda event: str(event.principal)),
            _attr("action", STRING),
            _attr("resource", STRING),
            _attr("allowed", BOOL),
            _attr("detail", STRING),
            _attr("job_id", STRING),
        ),
        # A snapshot: auditing this very read must not grow the list while
        # it is being walked.
        source=lambda tables, _: list(tables.audit.events),
        permission=Permission.AUDIT_READ,
    ),
    SystemTable(
        "METRICS",
        (
            Column("name", STRING),
            Column("kind", STRING),
            Column("sample", STRING),
            Column("value", FLOAT64),
        ),
        source=lambda tables, _: tables._metrics_rows(),
        rows=_as_is,
    ),
    SystemTable(
        "CACHE_STATS",
        (
            Column("tier", STRING),
            Column("entries", INT64),
            Column("resident_bytes", INT64),
            Column("capacity_bytes", INT64),
            Column("hits", INT64),
            Column("misses", INT64),
            Column("evictions", INT64),
            Column("admission_rejects", INT64),
            Column("hit_bytes", INT64),
            Column("hit_ratio", FLOAT64),
        ),
        source=lambda tables, _: [
            row
            for cache in (tables.cache, tables.query_cache)
            if cache is not None
            for row in cache.stats_rows()
        ],
        rows=_as_is,
    ),
    SystemTable(
        "RESERVATION_TIMELINE",
        (
            Column("period_start_ms", FLOAT64),
            Column("period_end_ms", FLOAT64),
            Column("principal", STRING),
            Column("slot_ms", FLOAT64),
            Column("scan_slot_ms", FLOAT64),
            Column("compute_slot_ms", FLOAT64),
            Column("queue_ms", FLOAT64),
            Column("queue_depth_avg", FLOAT64),
            Column("running_avg", FLOAT64),
            Column("jobs_admitted", INT64),
            Column("jobs_completed", INT64),
            Column("weight", FLOAT64),
            Column("attainment", FLOAT64),
        ),
        source=_monitor_rows("reservation_rows"),
        rows=_as_is,
        owner=itemgetter(2),
    ),
    SystemTable(
        "METRICS_HISTORY",
        (
            Column("scrape_ms", FLOAT64),
            Column("name", STRING),
            Column("kind", STRING),
            Column("sample", STRING),
            Column("value", FLOAT64),
            Column("stale", BOOL),
        ),
        source=_monitor_rows("metrics_history_rows"),
        rows=_as_is,
        permission=Permission.MONITORING_READ,
    ),
    SystemTable(
        "ALERTS",
        (
            Column("at_ms", FLOAT64),
            Column("rule", STRING),
            Column("severity", STRING),
            Column("state", STRING),
            Column("value", FLOAT64),
            Column("threshold", FLOAT64),
            Column("window_ms", FLOAT64),
            Column("series", STRING),
            Column("detail", STRING),
        ),
        source=_monitor_rows("alert_rows"),
        rows=_as_is,
        permission=Permission.MONITORING_READ,
    ),
    SystemTable(
        "TRANSACTIONS",
        (
            _attr("transaction_id", STRING, "txn_id"),
            _attr("state", STRING),
            _attr("writer", STRING),
            _attr("begin_ms", FLOAT64),
            _attr("commit_ms", FLOAT64),
            _attr("finalized", BOOL),
            Column("table_count", INT64, lambda record: len(record.tables)),
            Column(
                "tables",
                STRING,
                lambda record: ",".join(tc.table_id for tc in record.tables),
            ),
        ),
        source=lambda tables, _: (
            [] if tables.txn_log is None else tables.txn_log.entries()
        ),
        owner=attrgetter("writer"),
    ),
)

_BY_NAME = {table.name: table for table in TABLES}


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

    def _table(self, name: str) -> SystemTable:
        table = _BY_NAME.get(name.upper())
        if table is None:
            raise NotFoundError(
                f"system table INFORMATION_SCHEMA.{name} not found "
                f"(available: {', '.join(sorted(_BY_NAME))})"
            )
        return table

    def normalize(self, path: tuple[str, ...]) -> str:
        return self._table(path[-1]).name

    def schema(self, name: str) -> Schema:
        return self._table(name).schema

    # -- scans --------------------------------------------------------------

    def scan(self, name: str, principal: Principal) -> list[tuple]:
        """Produce the rows of one system table as seen by ``principal``."""
        table = self._table(name)
        project = f"projects/{self.project}"
        resource = f"{project}/informationSchema/{table.name}"
        if table.permission is not None:
            decision = self.iam.is_allowed(principal, table.permission, project)
            if not decision.allowed:
                self.audit.record(
                    principal, "system_tables.read", resource, False,
                    detail=decision.reason,
                )
                raise AccessDeniedError(
                    f"{principal} lacks {table.permission.value} on {project}: "
                    f"INFORMATION_SCHEMA.{table.name} is admin-only"
                )
        items = table.source(self, principal)
        if table.owner is not None and not self.iam.is_allowed(
            principal, Permission.JOBS_LIST_ALL, project
        ).allowed:
            me = str(principal)
            items = [item for item in items if table.owner(item) == me]
        if table.rows is not None:
            rows = [row for item in items for row in table.rows(item)]
        else:
            getters = [column.get for column in table.columns]
            rows = [tuple(get(item) for get in getters) for item in items]
        self.audit.record(
            principal, "system_tables.read", resource, True,
            detail=f"{len(rows)} rows",
        )
        return rows

    # -- row sources that need more than one service --------------------------

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

    def _metrics_rows(self) -> list[tuple]:
        rows: list[tuple] = []
        for metric_name in self.metrics.names():
            metric = self.metrics.get(metric_name)
            for sample_name, key, value in metric.samples():
                labels = ",".join(f'{k}="{v}"' for k, v in key)
                sample = f"{sample_name}{{{labels}}}" if labels else sample_name
                rows.append((metric_name, metric.kind, sample, float(value)))
        return rows
