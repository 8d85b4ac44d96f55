"""Cross-cloud materialized views (§5.6.2, Fig. 10).

A CCMV keeps a *local* materialized view of a query in the source (foreign
-cloud) region, partitioned by one output column, and incrementally
replicates only changed partitions to a replica in the GCP region:

1. the view query runs in the source region (no egress);
2. each partition's content is fingerprinted and compared with the
   replication state;
3. only changed/added partitions' files cross the cloud boundary (stateful
   file-based replication), and deleted partitions are dropped;
4. the replica is an ordinary BigLake table, queryable with full
   governance and joinable with GCP-local data.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

from repro.data.batch import RecordBatch, concat_batches
from repro.data.types import Schema
from repro.errors import AnalysisError
from repro.formats import pqs
from repro.metastore.catalog import MetadataCacheMode, TableInfo
from repro.security.iam import Principal, Role
from repro.sql.parser import parse_statement
from repro.sql import ast_nodes as ast
from repro.storageapi.fileutil import entry_from_footer


@dataclass
class RefreshReport:
    """Outcome of one incremental refresh."""

    partitions_total: int = 0
    partitions_changed: int = 0
    partitions_removed: int = 0
    bytes_replicated: int = 0
    source_rows: int = 0


@dataclass
class _PartitionState:
    fingerprint: str
    replica_key: str
    size_bytes: int


class CrossCloudMaterializedView:
    """One CCMV: definition + replication state + refresh machinery."""

    def __init__(
        self,
        platform,
        name: str,
        view_sql: str,
        partition_column: str,
        source_engine,
        owner: Principal,
        replica_dataset: str = "ccmv",
    ) -> None:
        self.platform = platform
        self.name = name
        self.view_sql = view_sql
        self.partition_column = partition_column
        self.source_engine = source_engine
        self.owner = owner
        self.replica_dataset = replica_dataset
        self.state: dict[Any, _PartitionState] = {}
        self.refresh_count = 0

        statement = parse_statement(view_sql)
        if not isinstance(statement, ast.Select):
            raise AnalysisError("a materialized view is defined by a SELECT")
        self._select = statement
        self.schema: Schema = source_engine.plan(statement).schema
        if not self.schema.has_field(partition_column):
            raise AnalysisError(
                f"partition column {partition_column!r} is not in the view output"
            )
        self._setup_storage()

    # ------------------------------------------------------------------

    def _setup_storage(self) -> None:
        platform = self.platform
        source_location = self.source_engine.location
        home_location = platform.config.home_region.location
        self.local_bucket = f"ccmv-{self.name}-local"
        self.replica_bucket = f"ccmv-{self.name}-replica"
        self._source_store = platform.stores.store_for(source_location)
        self._home_store = platform.stores.store_for(home_location)
        if not self._source_store.has_bucket(self.local_bucket):
            self._source_store.create_bucket(self.local_bucket)
        if not self._home_store.has_bucket(self.replica_bucket):
            self._home_store.create_bucket(self.replica_bucket)

        connection_name = f"ccmv.{self.name}"
        if not platform.connections.has_connection(connection_name):
            conn = platform.connections.create_connection(connection_name)
            platform.connections.grant_lake_access(conn, self.replica_bucket)
        platform.iam.grant(
            f"connections/{connection_name}", Role.CONNECTION_USER, self.owner
        )
        if not platform.catalog.has_dataset(self.replica_dataset):
            platform.catalog.create_dataset(self.replica_dataset)
        self.replica_table: TableInfo = platform.tables.create_biglake_table(
            self.owner, self.replica_dataset, self.name, self.schema,
            self.replica_bucket, "mv", connection_name,
            cache_mode=MetadataCacheMode.MANUAL,
        )
        platform.bigmeta.register_table(self.replica_table.table_id)

    # ------------------------------------------------------------------

    def refresh(self) -> RefreshReport:
        """One incremental refresh: recompute locally, ship deltas only."""
        report = RefreshReport()
        self.refresh_count += 1
        result = self.source_engine.execute(self._select, self.owner)
        report.source_rows = result.num_rows
        partitions = self._partition_rows(result.batches)
        report.partitions_total = len(partitions)

        source_location = self.source_engine.location
        added_entries = []
        deleted_paths = []
        for value, batch in partitions.items():
            data = pqs.write_table(self.schema, [batch])
            fingerprint = hashlib.sha256(data).hexdigest()
            known = self.state.get(value)
            if known is not None and known.fingerprint == fingerprint:
                continue
            report.partitions_changed += 1
            report.bytes_replicated += len(data)
            # Local MV file in the source region (no egress)...
            local_key = f"mv/{_safe(value)}/part-{self.refresh_count:05d}.pqs"
            self._source_store.put_object(self.local_bucket, local_key, data)
            # ...then stateful file replication to the GCP replica bucket:
            # the PUT's caller is in the source region, so the transfer
            # crosses the cloud boundary and accrues egress.
            replica_key = local_key
            self._home_store.put_object(
                self.replica_bucket, replica_key, data,
                caller_location=source_location,
            )
            footer = pqs.read_footer(data)
            added_entries.append(
                entry_from_footer(
                    f"{self.replica_bucket}/{replica_key}", len(data), footer,
                    {self.partition_column: value},
                )
            )
            if known is not None:
                deleted_paths.append(f"{self.replica_bucket}/{known.replica_key}")
                self._home_store.delete_object(self.replica_bucket, known.replica_key)
            self.state[value] = _PartitionState(
                fingerprint=fingerprint, replica_key=replica_key, size_bytes=len(data)
            )

        # Partitions that vanished from the source are dropped.
        for value in list(self.state):
            if value not in partitions:
                known = self.state.pop(value)
                deleted_paths.append(f"{self.replica_bucket}/{known.replica_key}")
                self._home_store.delete_object(self.replica_bucket, known.replica_key)
                report.partitions_removed += 1

        self.platform.read_api.record_refresh(
            self.replica_table, added=added_entries, deleted=deleted_paths
        )
        return report

    def full_copy_bytes(self) -> int:
        """What a non-incremental refresh would ship (the E11 baseline)."""
        result = self.source_engine.execute(self._select, self.owner)
        partitions = self._partition_rows(result.batches)
        return sum(
            len(pqs.write_table(self.schema, [batch])) for batch in partitions.values()
        )

    def _partition_rows(self, batches: list[RecordBatch]) -> dict[Any, RecordBatch]:
        combined = concat_batches(self.schema, batches)
        values = combined.column(self.partition_column).to_pylist()
        import numpy as np

        by_value: dict[Any, list[int]] = {}
        for i, v in enumerate(values):
            by_value.setdefault(v, []).append(i)
        return {
            v: combined.take(np.asarray(idx, dtype=np.int64))
            for v, idx in sorted(by_value.items(), key=lambda kv: repr(kv[0]))
        }


def _safe(value: Any) -> str:
    text = str(value)
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in text)
