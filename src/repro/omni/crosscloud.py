"""Cross-cloud queries (§5.6.1, Listing 3).

When a query references tables in multiple locations, the planner splits
it into regional subqueries with filters pushed down, runs each subquery
on the engine colocated with its data, streams the (small, filtered)
results back to the primary region into temp tables, and rewrites the
query into a regular local join — trading a full-table copy for a
result-sized transfer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud import transfer_latency_ms
from repro.data.types import Field as SchemaField, Schema
from repro.engine.plan import PlanNode, ScanNode
from repro.metastore.catalog import TableInfo, TableKind
from repro.security.iam import Principal
from repro.sql import ast_nodes as ast

_TEMP_DATASET = "_xc_temp"


@dataclass
class SubqueryTransfer:
    """One regional subquery's contribution."""

    table_id: str
    source_location: str
    rows: int
    bytes_moved: int
    remote_elapsed_ms: float


@dataclass
class CrossCloudReport:
    subqueries: list[SubqueryTransfer] = field(default_factory=list)

    @property
    def total_bytes_moved(self) -> int:
        return sum(s.bytes_moved for s in self.subqueries)


class CrossCloudQueryPlanner:
    """Splits and executes multi-location SELECTs."""

    def __init__(self, platform, omni=None) -> None:
        self.platform = platform
        self.omni = omni
        self._temp_counter = 0

    def execute(
        self,
        select: ast.Select,
        principal: Principal,
        primary_engine,
        push_filters: bool = True,
    ):
        """Plan on the primary engine, relocate remote scans, execute."""
        plan = primary_engine.plan(select)
        report = CrossCloudReport()
        with self.platform.ctx.tracer.span(
            "crosscloud.execute", layer="omni", primary=primary_engine.location
        ) as span:
            if not push_filters:
                span.set_tag("naive_copy", True)
            rewritten = self._relocate_remote_scans(
                plan, principal, primary_engine, report, push_filters
            )
            result = primary_engine._run_plan(rewritten, principal)
            span.set_tag("subqueries", len(report.subqueries))
            span.set_tag("bytes_moved", report.total_bytes_moved)
        result.cross_cloud = {
            "subqueries": len(report.subqueries),
            "bytes_moved": report.total_bytes_moved,
            "sources": [s.source_location for s in report.subqueries],
        }
        return result

    def execute_naive_copy(self, select: ast.Select, principal: Principal, primary_engine):
        """Baseline for E10: replicate each remote table *in full* (no
        filter pushdown) before joining locally — the traditional ETL
        approach the paper contrasts against."""
        return self.execute(select, principal, primary_engine, push_filters=False)

    # ------------------------------------------------------------------

    def _relocate_remote_scans(
        self,
        node: PlanNode,
        principal: Principal,
        primary_engine,
        report: CrossCloudReport,
        push_filters: bool,
    ) -> PlanNode:
        """Swap every scan of a table outside the primary region for a scan
        of its streamed-back temp table (part of plan construction: the
        plan is sealed once this returns)."""
        if isinstance(node, ScanNode):
            if node.table.location == primary_engine.location:
                return node
            return self._run_remote_subquery(
                node, principal, primary_engine, report, push_filters
            )
        return node.map_children(
            lambda child: self._relocate_remote_scans(
                child, principal, primary_engine, report, push_filters
            )
        )

    def _run_remote_subquery(
        self,
        scan: ScanNode,
        principal: Principal,
        primary_engine,
        report: CrossCloudReport,
        push_filters: bool,
    ) -> ScanNode:
        """Execute a remote scan where the data lives, stream the result
        into a primary-region temp table, and return a scan of the temp."""
        platform = self.platform
        source_location = scan.table.location
        remote_engine = platform.engine_in(source_location)

        remote_scan = ScanNode(
            table=scan.table,
            schema=scan.schema,
            columns=list(scan.columns),
            qualifier=scan.qualifier,
            pushed_filters=list(scan.pushed_filters) if push_filters else [],
            snapshot_ms=scan.snapshot_ms,
        )
        if not push_filters:
            remote_scan.columns = (
                scan.table.schema.names()
                if scan.table.kind is not TableKind.OBJECT
                else remote_scan.columns
            )
            base = scan.table.schema
            remote_scan.schema = (
                base.rename_all(scan.qualifier) if scan.qualifier else base
            )
        with platform.ctx.tracer.span(
            "crosscloud.subquery", layer="omni",
            table=scan.table.table_id, source=source_location,
        ) as span:
            t0 = platform.ctx.clock.now_ms
            remote_result = remote_engine._run_plan(remote_scan, principal)
            remote_elapsed = platform.ctx.clock.now_ms - t0

            # Stream results back to the primary region (high-throughput
            # streaming API over the VPN): charge transfer + egress.
            result_bytes = sum(b.nbytes() for b in remote_result.batches)
            latency = transfer_latency_ms(
                platform.ctx.costs, source_location, primary_engine.location, result_bytes
            )
            platform.ctx.charge("crosscloud.stream_results", latency)
            platform.ctx.metering.add_egress(
                source_location, primary_engine.location, result_bytes
            )
            span.add_tag("egress_bytes", result_bytes)
            span.set_tag("rows", remote_result.num_rows)
            if self.omni is not None and source_location in self.omni.regions:
                self.omni.regions[source_location].channel.calls += 1

        temp_table = self._create_temp_table(remote_scan, remote_result)
        report.subqueries.append(
            SubqueryTransfer(
                table_id=scan.table.table_id,
                source_location=source_location,
                rows=remote_result.num_rows,
                bytes_moved=result_bytes,
                remote_elapsed_ms=remote_elapsed,
            )
        )
        # The temp scan keeps the original (possibly qualified) schema and
        # projection, and re-applies any filters NOT pushed remotely.
        leftover = [] if push_filters else list(scan.pushed_filters)
        return ScanNode(
            table=temp_table,
            schema=scan.schema,
            columns=list(scan.columns),
            qualifier=scan.qualifier,
            pushed_filters=leftover,
        )

    def _create_temp_table(self, scan: ScanNode, result) -> TableInfo:
        platform = self.platform
        if not platform.catalog.has_dataset(_TEMP_DATASET):
            platform.catalog.create_dataset(_TEMP_DATASET)
        self._temp_counter += 1
        name = f"xc_{scan.table.name}_{self._temp_counter:04d}"
        base_fields = tuple(
            SchemaField(f.name.rsplit(".", 1)[-1], f.dtype, f.nullable)
            for f in result.schema
        )
        base_schema = Schema(base_fields)
        table = platform.tables.create_managed_table(_TEMP_DATASET, name, base_schema, replace=True)
        for batch in result.batches:
            platform.managed.append(table.table_id, batch.rename(list(base_schema.names())))
        return table
