"""BigLake managed tables (BLMT, §3.5).

BLMTs store Parquet-like data files in customer-owned buckets while Big
Metadata — a stateful service outside the bucket — is the source of truth
for the transaction log. That structure yields the paper's three claims:

* **Write throughput**: commits are memory-speed log appends, not
  object-store CAS swaps.
* **Multi-table transactions**: several tables commit atomically through
  one Big Metadata transaction.
* **Tamper-proof history**: bucket writers cannot rewrite the log.

Background storage optimization implements adaptive file sizing
(compaction), reclustering by the table's clustering key, and garbage
collection of unreferenced data files. ``export_iceberg_snapshot`` writes
an Iceberg-format snapshot of the current state so any Iceberg-capable
engine can read the table directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.data.batch import RecordBatch, concat_batches
from repro.errors import CatalogError
from repro.formats import pqs
from repro.metastore.bigmeta import BigMetadataService, FileEntry, MetaTransaction
from repro.metastore.catalog import TableInfo, TableKind
from repro.metastore.constraints import ConstraintSet
from repro.objectstore.registry import StoreRegistry
from repro.simtime import SimContext
from repro.storageapi.fileutil import write_data_file
from repro.tableformats.iceberg import DataFileInfo, IcebergTable

# Adaptive file sizing: files smaller than half the target are compaction
# candidates; the target grows with total table size.
_MIN_TARGET_FILE_BYTES = 64 * 1024
_MAX_TARGET_FILE_BYTES = 64 * 1024 * 1024


@dataclass
class OptimizationReport:
    """What one background optimization pass did."""

    files_compacted: int = 0
    files_written: int = 0
    reclustered: bool = False
    garbage_collected: int = 0


@dataclass
class BlmtTransaction:
    """A multi-statement, multi-table BLMT transaction.

    Writes stage into one Big Metadata transaction; nothing is visible
    until :meth:`commit`. Data files are written eagerly (they are inert
    until referenced by a committed log record).
    """

    manager: "BlmtManager"
    txn: MetaTransaction
    staged_tables: dict[str, TableInfo] = field(default_factory=dict)

    def insert(self, table: TableInfo, *batches: RecordBatch) -> None:
        entry = self.manager._write_file(table, list(batches))
        self.txn.stage(table.table_id, added=[entry])
        self.staged_tables[table.table_id] = table

    def commit(self) -> int:
        commit_id = self.txn.commit()
        for table in self.staged_tables.values():
            self.manager.committed(table)
        return commit_id

    def abort(self) -> None:
        self.txn.abort()


class BlmtManager:
    """DML + maintenance for BigLake managed tables."""

    # Time-travel retention: data files stay reclaimable only after their
    # deleting commit ages out (BigQuery keeps 7 days of time travel).
    DEFAULT_RETENTION_MS = 7 * 24 * 3600 * 1000.0

    def __init__(
        self,
        bigmeta: BigMetadataService,
        stores: StoreRegistry,
        ctx: SimContext,
        retention_ms: float | None = None,
    ) -> None:
        self.bigmeta = bigmeta
        self.stores = stores
        self.ctx = ctx
        self.retention_ms = (
            retention_ms if retention_ms is not None else self.DEFAULT_RETENTION_MS
        )
        self._file_counter = 0
        # TransactionCoordinator (repro.txn), wired — as a weak proxy, the
        # coordinator holds this manager — when the platform's coordinator
        # is created. While it has an active transaction, DML buffers into
        # the transaction instead of committing.
        self.coordinator = None

    def _active_txn(self):
        coordinator = self.coordinator
        return coordinator.active if coordinator is not None else None

    # -- write paths ---------------------------------------------------------

    def insert(self, table: TableInfo, batches: list[RecordBatch]) -> int:
        """Append rows; returns the commit id (0 when buffered into an open
        multi-table transaction — commit ids are assigned at publish)."""
        return self.publish(table, added=[self._write_file(table, batches)])

    def publish(
        self, table: TableInfo, added: list[FileEntry], deleted: list[str] | None = None
    ) -> int:
        """The one place written files become a BLMT commit. Inside an open
        multi-table transaction the change set is *buffered* — nothing
        publishes until the transaction's marker lands — and 0 is returned;
        otherwise it commits to Big Metadata (retried: a failed commit
        leaves the log untouched) and pays the commit epilogue."""
        txn = self._active_txn()
        if txn is not None:
            txn.stage_blmt(table, added=added, deleted=deleted)
            return 0
        commit_id = self.ctx.with_retry(
            "bigmeta.commit",
            lambda: self.bigmeta.commit(table.table_id, added=added, deleted=deleted),
        )
        self.committed(table)
        return commit_id

    def committed(self, table: TableInfo) -> None:
        """The one epilogue every visible BLMT commit owes, whichever log
        write published it (:meth:`publish`, a :class:`BlmtTransaction`, a
        multi-table transaction's finalize): the version bump that keeps
        the plan / result / session caches coherent by keying, then the
        Iceberg auto-export."""
        table.version += 1
        self._maybe_auto_export(table)

    def begin_transaction(self) -> BlmtTransaction:
        return BlmtTransaction(manager=self, txn=self.bigmeta.begin())

    def rewrite_rows(
        self,
        table: TableInfo,
        constraints: ConstraintSet,
        transform,
        principal=None,
    ) -> int:
        """Copy-on-write mutation: for every file that may contain affected
        rows, read it, apply ``transform(batch) -> (new_batch | None,
        affected_rows)`` (``new_batch is batch`` means untouched; ``None``
        drops the file), and atomically swap old files for new.

        Returns the total number of rows affected (changed or deleted).

        Inside an open multi-table transaction, candidate files are read at
        the transaction's begin snapshot and the rewrite is *buffered* —
        nothing publishes until the transaction's marker lands.
        """
        mt_txn = self._active_txn()
        as_of_ms = mt_txn.begin_ms if mt_txn is not None else None
        candidates = self.bigmeta.prune(table.table_id, constraints, as_of_ms=as_of_ms)
        if not candidates:
            return 0
        store = self.stores.store_for(table.storage.location)
        affected = 0
        removed: list[str] = []
        added: list[FileEntry] = []
        for entry in candidates:
            original = concat_batches(table.schema, self._read_file(store, entry))
            result, file_affected = transform(original)
            if result is original or file_affected == 0:
                continue  # untouched file
            affected += file_affected
            removed.append(entry.file_path)
            if result is not None and result.num_rows:
                added.append(self._write_file(table, [result], partition=entry.partition()))
        if removed or added:
            self.publish(table, added, removed)
        return affected

    @staticmethod
    def _read_file(store, entry: FileEntry) -> list[RecordBatch]:
        """GET one live data file and decode every row group."""
        bucket, _, key = entry.file_path.partition("/")
        data = store.get_object(bucket, key)
        footer = pqs.read_footer(data)
        return [
            pqs.read_row_group(data, footer, i, keep_dictionary=False)
            for i in range(len(footer.row_groups))
        ]

    def _write_file(
        self,
        table: TableInfo,
        batches: list[RecordBatch],
        partition: dict[str, Any] | None = None,
    ) -> FileEntry:
        store = self.stores.store_for(table.storage.location)
        self._file_counter += 1
        key = f"{table.storage.prefix.rstrip('/')}/data/part-{self._file_counter:08d}.pqs"
        combined = concat_batches(table.schema, batches)
        if table.clustering_columns:
            combined = _sort_by(combined, table.clustering_columns)
        # Same-key PUT is idempotent, so transient faults are retried here;
        # injected (non-transient) StorageErrors still surface to callers.
        return self.ctx.with_retry(
            "objectstore.put",
            lambda: write_data_file(
                store, table.storage.bucket, key, table.schema, [combined],
                partition_values=partition,
            ),
        )

    # -- background storage optimization (§3.5) ---------------------------------

    def target_file_bytes(self, table: TableInfo) -> int:
        """Adaptive file sizing: target grows with table size."""
        stats = self.bigmeta.table_stats(table.table_id)
        total = stats["num_bytes"]
        return int(np.clip(total // 16 or _MIN_TARGET_FILE_BYTES,
                           _MIN_TARGET_FILE_BYTES, _MAX_TARGET_FILE_BYTES))

    def optimize_storage(self, table: TableInfo) -> OptimizationReport:
        """One background pass: compact small files (reclustering rows in
        the process) and garbage-collect unreferenced objects."""
        report = OptimizationReport()
        target = self.target_file_bytes(table)
        entries = self.bigmeta.snapshot(table.table_id)
        small = [e for e in entries if e.size_bytes < target // 2]
        if len(small) >= 2:
            store = self.stores.store_for(table.storage.location)
            batches = [b for entry in small for b in self._read_file(store, entry)]
            combined = concat_batches(table.schema, batches)
            if table.clustering_columns:
                combined = _sort_by(combined, table.clustering_columns)
                report.reclustered = True
            new_entries = []
            # Split the compacted data into files near the target size.
            if combined.num_rows:
                bytes_per_row = max(1, combined.nbytes() // combined.num_rows)
                rows_per_file = max(1, target // bytes_per_row)
                for start in range(0, combined.num_rows, rows_per_file):
                    chunk = combined.slice(start, min(start + rows_per_file, combined.num_rows))
                    new_entries.append(self._write_file(table, [chunk]))
            self.publish(table, new_entries, [e.file_path for e in small])
            report.files_compacted = len(small)
            report.files_written = len(new_entries)
        report.garbage_collected = self.garbage_collect(table)
        return report

    def garbage_collect(self, table: TableInfo) -> int:
        """Delete data objects no longer referenced by the live file set.

        Files removed by recent commits stay on disk for ``retention_ms``
        so ``FOR SYSTEM_TIME AS OF`` reads within the window keep working;
        only never-committed orphans and files whose deleting commit has
        aged out are reclaimed.
        """
        store = self.stores.store_for(table.storage.location)
        meta = self.bigmeta.table(table.table_id)
        live = {e.file_path for e in meta.live_entries().values()}
        cutoff = self.ctx.clock.now_ms - self.retention_ms
        retained = {
            path
            for record in meta.history
            if record.timestamp_ms >= cutoff
            for path in record.deleted
        }
        prefix = f"{table.storage.prefix.rstrip('/')}/data/"
        orphans = []
        for obj in store.list_objects(table.storage.bucket, prefix=prefix):
            path = f"{table.storage.bucket}/{obj.key}"
            if path not in live and path not in retained:
                orphans.append(obj.key)
        for key in orphans:
            store.delete_object(table.storage.bucket, key)
        return len(orphans)

    def _maybe_auto_export(self, table: TableInfo) -> None:
        """Asynchronous-snapshot future work (§3.5): when enabled, every
        commit also refreshes the table's Iceberg snapshot."""
        if table.options.get("auto_iceberg_snapshots"):
            self.export_iceberg_snapshot(table)

    # -- Iceberg snapshot export (§3.5) --------------------------------------------

    def export_iceberg_snapshot(self, table: TableInfo) -> IcebergTable:
        """Export the current BLMT state as an Iceberg snapshot in the same
        bucket, readable by any Iceberg-capable engine.

        Metadata remains owned by Big Metadata; the export is a one-way
        projection (triggered by SQL in the real product)."""
        if table.kind is not TableKind.BLMT:
            raise CatalogError("iceberg export applies to BLMT tables")
        store = self.stores.store_for(table.storage.location)
        prefix = f"{table.storage.prefix.rstrip('/')}/iceberg"
        pointer_key = f"{prefix}/metadata/version-hint.json"
        if store.object_exists(table.storage.bucket, pointer_key):
            iceberg = IcebergTable(store, table.storage.bucket, prefix)
        else:
            iceberg = IcebergTable.create(
                store, table.storage.bucket, prefix, table.schema,
                table.partition_columns,
            )
        entries = self.bigmeta.snapshot(table.table_id)
        files = [_entry_to_datafile(e) for e in entries]
        current = {f.path for f in iceberg.scan()}
        new_paths = {f.path for f in files}
        iceberg.commit_overwrite(
            added=[f for f in files if f.path not in current],
            removed_paths=[p for p in current if p not in new_paths],
        )
        return iceberg


def _entry_to_datafile(entry: FileEntry) -> DataFileInfo:
    bounds = tuple(
        (name, (stats.min_value, stats.max_value, stats.null_count))
        for name, stats in entry.column_stats
    )
    return DataFileInfo(
        path=entry.file_path,
        file_size=entry.size_bytes,
        record_count=entry.row_count,
        partition=entry.partition_values,
        bounds=bounds,
    )


def _sort_by(batch: RecordBatch, columns: list[str]) -> RecordBatch:
    """Sort rows by clustering columns (NULLs first)."""
    key_lists = [batch.column(c).to_pylist() for c in columns]

    def key(i: int):
        return tuple(
            (0, 0) if lst[i] is None else (1, lst[i]) for lst in key_lists
        )

    order = sorted(range(batch.num_rows), key=key)
    return batch.take(np.asarray(order, dtype=np.int64))
