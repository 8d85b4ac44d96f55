"""An Iceberg-like open table format on object storage.

Layout under ``{prefix}/metadata/``::

    version-hint.json          <- pointer, swapped with a conditional PUT
    v{N}.metadata.json         <- immutable table metadata (snapshot list)
    snap-{id}-manifest-list.json
    manifest-{id}-{k}.json     <- data file entries with per-column bounds

Commits write new immutable metadata and then atomically swap the pointer
with a generation-matched PUT. The object store allows only a few pointer
mutations per second (§3.5), so commit throughput is CAS-bound — the
property BLMT escapes by keeping its log in Big Metadata. The transaction
log also lives *with the data*, so a writer with bucket access can tamper
with history — the second §3.5 weakness, demonstrated in tests.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any

# Metadata file names must be unique across racing committers (real Iceberg
# uses UUIDs); a process-global counter suffices for the simulation.
_metadata_nonce = itertools.count(1)

from repro.data.types import Schema
from repro.errors import (
    CatalogError,
    CommitRetryExhaustedError,
    PreconditionFailedError,
)
from repro.metastore.bigmeta import ColumnStats
from repro.metastore.constraints import ConstraintSet, StatsTable, can_match
from repro.objectstore import ObjectStore


@dataclass(frozen=True)
class DataFileInfo:
    """One data file referenced by a manifest."""

    path: str  # "bucket/key"
    file_size: int
    record_count: int
    partition: tuple[tuple[str, Any], ...] = ()
    # column -> [min, max, null_count]
    bounds: tuple[tuple[str, tuple[Any, Any, int]], ...] = ()

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "file_size": self.file_size,
            "record_count": self.record_count,
            "partition": [[k, v] for k, v in self.partition],
            "bounds": [[c, list(b)] for c, b in self.bounds],
        }

    @staticmethod
    def from_dict(d: dict) -> "DataFileInfo":
        return DataFileInfo(
            path=d["path"],
            file_size=d["file_size"],
            record_count=d["record_count"],
            partition=tuple((k, v) for k, v in d["partition"]),
            bounds=tuple((c, tuple(b)) for c, b in d["bounds"]),
        )


@dataclass(frozen=True)
class IcebergSnapshot:
    snapshot_id: int
    timestamp_ms: float
    manifest_list: str  # object key
    operation: str  # "append" | "overwrite"
    summary: dict = field(default_factory=dict)
    # Multi-table transaction tagging (repro.txn): a tagged snapshot is
    # pending until the transaction log's marker reads COMMITTED; readers
    # resolve past it via parent_snapshot_id in the meantime.
    txn_id: str = ""
    parent_snapshot_id: int | None = None


class IcebergTable:
    """Client for one Iceberg-like table rooted at ``bucket/prefix``."""

    def __init__(self, store: ObjectStore, bucket: str, prefix: str) -> None:
        self.store = store
        self.bucket = bucket
        self.prefix = prefix.rstrip("/")

    # -- paths ---------------------------------------------------------------

    @property
    def _pointer_key(self) -> str:
        return f"{self.prefix}/metadata/version-hint.json"

    def _new_metadata_key(self, version: int) -> str:
        return f"{self.prefix}/metadata/v{version}-{next(_metadata_nonce):06d}.metadata.json"

    # -- creation --------------------------------------------------------------

    @staticmethod
    def create(
        store: ObjectStore,
        bucket: str,
        prefix: str,
        schema: Schema,
        partition_columns: list[str] | None = None,
    ) -> "IcebergTable":
        """Initialize table metadata; fails if the table already exists."""
        table = IcebergTable(store, bucket, prefix)
        metadata = {
            "format_version": 2,
            "schema": schema.to_dict(),
            "partition_columns": partition_columns or [],
            "snapshots": [],
            "current_snapshot_id": None,
            "last_snapshot_id": 0,
            "metadata_version": 1,
        }
        metadata_key = table._new_metadata_key(1)
        store.put_object(
            bucket,
            metadata_key,
            json.dumps(metadata).encode("utf-8"),
            content_type="application/json",
        )
        pointer = json.dumps({"metadata_key": metadata_key}).encode("utf-8")
        store.put_if_generation(bucket, table._pointer_key, pointer, expected_generation=0)
        return table

    # -- reads -----------------------------------------------------------------

    def _read_pointer(self) -> tuple[str, int]:
        """(current metadata object key, pointer object generation)."""
        meta = self.store.head_object(self.bucket, self._pointer_key)
        data = self.store.get_object(self.bucket, self._pointer_key)
        return json.loads(data)["metadata_key"], meta.generation

    def read_metadata(self) -> dict:
        metadata_key, _ = self._read_pointer()
        data = self.store.get_object(self.bucket, metadata_key)
        return json.loads(data)

    def schema(self) -> Schema:
        return Schema.from_dict(self.read_metadata()["schema"])

    def snapshots(self) -> list[IcebergSnapshot]:
        metadata = self.read_metadata()
        return [
            IcebergSnapshot(
                snapshot_id=s["snapshot_id"],
                timestamp_ms=s["timestamp_ms"],
                manifest_list=s["manifest_list"],
                operation=s["operation"],
                summary=s.get("summary", {}),
                txn_id=s.get("txn_id", ""),
                parent_snapshot_id=s.get("parent_snapshot_id"),
            )
            for s in metadata["snapshots"]
        ]

    def current_snapshot(self) -> IcebergSnapshot | None:
        snaps = self.snapshots()
        metadata = self.read_metadata()
        current = metadata["current_snapshot_id"]
        for s in snaps:
            if s.snapshot_id == current:
                return s
        return None

    # -- transactional visibility (repro.txn) ----------------------------------

    def _snapshot_visibility(self, snapshot: dict) -> tuple[bool, float]:
        """(visible, effective timestamp) of one snapshot dict.

        Untagged snapshots are visible at their own commit time. Tagged
        snapshots resolve against the transaction log's marker (installed
        on the store as ``txn_resolver`` by the coordinator): COMMITTED
        makes them visible at the *marker's* time, anything else hides
        them. An unresolvable tagged snapshot stays hidden — the marker is
        the sole source of truth, never the pointer.
        """
        txn_id = snapshot.get("txn_id", "")
        if not txn_id:
            return True, snapshot["timestamp_ms"]
        resolver = getattr(self.store, "txn_resolver", None)
        if resolver is None:
            return False, snapshot["timestamp_ms"]
        state, commit_ms = resolver(txn_id)
        if state == "COMMITTED":
            return True, commit_ms
        return False, snapshot["timestamp_ms"]

    def effective_snapshot_id(self, metadata: dict | None = None) -> int | None:
        """The newest *visible* snapshot: walks the parent chain from the
        pointer's current snapshot past pending/aborted tagged ones."""
        if metadata is None:
            metadata = self.read_metadata()
        by_id = {s["snapshot_id"]: s for s in metadata["snapshots"]}
        target = metadata["current_snapshot_id"]
        while target is not None:
            snapshot = by_id.get(target)
            if snapshot is None:
                return None
            visible, _ = self._snapshot_visibility(snapshot)
            if visible:
                return target
            target = snapshot.get("parent_snapshot_id")
        return None

    def snapshot_id_as_of(self, as_of_ms: float) -> int | None:
        """The visible snapshot a reader at ``as_of_ms`` pins (time travel
        honoring transaction markers: tagged snapshots order by marker
        time, so both tables of a transaction flip at the same instant)."""
        metadata = self.read_metadata()
        best: tuple[float, int] | None = None
        for snapshot in metadata["snapshots"]:
            visible, effective_ms = self._snapshot_visibility(snapshot)
            if not visible or effective_ms > as_of_ms:
                continue
            key = (effective_ms, snapshot["snapshot_id"])
            if best is None or key > best:
                best = key
        return best[1] if best is not None else None

    def scan(
        self,
        constraints: ConstraintSet | None = None,
        snapshot_id: int | None = None,
    ) -> list[DataFileInfo]:
        """Data files of a snapshot, pruned with manifest-level bounds.

        Each manifest is a separate object GET — cheap compared to listing,
        but slower than a Big Metadata lookup. With no explicit
        ``snapshot_id``, reads the *effective* (marker-visible) snapshot.
        """
        metadata = self.read_metadata()
        target = (
            snapshot_id if snapshot_id is not None
            else self.effective_snapshot_id(metadata)
        )
        if target is None:
            return []
        snapshot = next(
            (s for s in metadata["snapshots"] if s["snapshot_id"] == target), None
        )
        if snapshot is None:
            raise CatalogError(f"snapshot {target} not found")
        manifest_list = json.loads(
            self.store.get_object(self.bucket, snapshot["manifest_list"])
        )
        files = [
            DataFileInfo.from_dict(entry)
            for manifest_key in manifest_list["manifests"]
            for entry in json.loads(self.store.get_object(self.bucket, manifest_key))["files"]
        ]
        if constraints is None:
            return files
        table = StatsTable.build(
            (
                info.record_count,
                info.partition,
                ((column, ColumnStats(*bounds)) for column, bounds in info.bounds),
            )
            for info in files
        )
        return list(itertools.compress(files, can_match(constraints, table)))

    # -- commits ------------------------------------------------------------------

    def commit_append(
        self,
        files: list[DataFileInfo],
        max_retries: int = 10,
        txn_id: str = "",
    ) -> IcebergSnapshot:
        """Append files in a new snapshot (retrying pointer CAS races)."""
        return self._commit(
            files, removed_paths=[], operation="append",
            max_retries=max_retries, txn_id=txn_id,
        )

    def commit_overwrite(
        self,
        added: list[DataFileInfo],
        removed_paths: list[str],
        max_retries: int = 10,
        txn_id: str = "",
    ) -> IcebergSnapshot:
        """Replace ``removed_paths`` with ``added`` atomically."""
        return self._commit(
            added, removed_paths, operation="overwrite",
            max_retries=max_retries, txn_id=txn_id,
        )

    def _commit(
        self,
        added: list[DataFileInfo],
        removed_paths: list[str],
        operation: str,
        max_retries: int,
        txn_id: str = "",
    ) -> IcebergSnapshot:
        removed = set(removed_paths)
        for _attempt in range(max_retries):
            current_metadata_key, pointer_generation = self._read_pointer()
            metadata = json.loads(
                self.store.get_object(self.bucket, current_metadata_key)
            )
            snapshot_id = metadata["last_snapshot_id"] + 1
            # Carry forward the current file set minus removals.
            current_files: list[DataFileInfo] = []
            if metadata["current_snapshot_id"] is not None:
                current_files = self.scan(snapshot_id=metadata["current_snapshot_id"])
            kept = [f for f in current_files if f.path not in removed]
            missing = removed - {f.path for f in current_files}
            if missing:
                raise CatalogError(f"cannot remove non-live files: {sorted(missing)}")
            new_files = kept + list(added)

            nonce = next(_metadata_nonce)
            manifest_key = f"{self.prefix}/metadata/manifest-{snapshot_id}-{nonce:06d}.json"
            self.store.put_object(
                self.bucket,
                manifest_key,
                json.dumps({"files": [f.to_dict() for f in new_files]}).encode("utf-8"),
                content_type="application/json",
            )
            manifest_list_key = (
                f"{self.prefix}/metadata/snap-{snapshot_id}-{nonce:06d}-manifest-list.json"
            )
            self.store.put_object(
                self.bucket,
                manifest_list_key,
                json.dumps({"manifests": [manifest_key]}).encode("utf-8"),
                content_type="application/json",
            )
            snapshot = {
                "snapshot_id": snapshot_id,
                "timestamp_ms": self.store.ctx.clock.now_ms,
                "manifest_list": manifest_list_key,
                "operation": operation,
                "summary": {
                    "added_files": len(added),
                    "removed_files": len(removed),
                    "total_files": len(new_files),
                },
                "txn_id": txn_id,
                "parent_snapshot_id": metadata["current_snapshot_id"],
            }
            new_version = metadata["metadata_version"] + 1
            metadata["snapshots"].append(snapshot)
            metadata["current_snapshot_id"] = snapshot_id
            metadata["last_snapshot_id"] = snapshot_id
            metadata["metadata_version"] = new_version
            new_metadata_key = self._new_metadata_key(new_version)
            self.store.put_object(
                self.bucket,
                new_metadata_key,
                json.dumps(metadata).encode("utf-8"),
                content_type="application/json",
            )
            # The atomic step: swap the pointer iff nobody else has.
            try:
                self.store.put_if_generation(
                    self.bucket,
                    self._pointer_key,
                    json.dumps({"metadata_key": new_metadata_key}).encode("utf-8"),
                    expected_generation=pointer_generation,
                )
            except PreconditionFailedError:
                self.store.ctx.metering.count("iceberg.commit_conflict")
                self.store.ctx.metrics.counter(
                    "repro_commit_conflicts_total", "Iceberg pointer-CAS races lost."
                ).inc(table=f"{self.bucket}/{self.prefix}")
                continue  # lost the race; re-read and retry
            return IcebergSnapshot(
                snapshot_id=snapshot_id,
                timestamp_ms=snapshot["timestamp_ms"],
                manifest_list=manifest_list_key,
                operation=operation,
                summary=snapshot["summary"],
                txn_id=txn_id,
                parent_snapshot_id=snapshot["parent_snapshot_id"],
            )
        raise CommitRetryExhaustedError(
            f"commit failed after {max_retries} CAS retries"
        )

    # -- transactional rollback (repro.txn recovery) ---------------------------

    def rollback_txn(self, txn_id: str, added_paths: list[str]) -> bool:
        """Physically undo an *aborted* transaction's snapshot.

        Top-of-chain case: the pointer's current snapshot is the aborted
        txn's — revert the pointer to fresh metadata whose current snapshot
        is the parent (CAS-raced like any commit). Buried case: later
        snapshots carried the aborted files forward — remove whichever of
        ``added_paths`` are still live with an overwrite commit. Either
        way the aborted files can never surface again (they were already
        invisible via the marker; this reclaims them). Returns True if
        anything had to change.
        """
        metadata = self.read_metadata()
        current = next(
            (s for s in metadata["snapshots"]
             if s["snapshot_id"] == metadata["current_snapshot_id"]),
            None,
        )
        if current is not None and current.get("txn_id") == txn_id:
            # Pointer revert: write new metadata pointing at the parent.
            _, pointer_generation = self._read_pointer()
            metadata["current_snapshot_id"] = current.get("parent_snapshot_id")
            metadata["snapshots"] = [
                s for s in metadata["snapshots"]
                if s.get("txn_id") != txn_id
            ]
            new_version = metadata["metadata_version"] + 1
            metadata["metadata_version"] = new_version
            new_metadata_key = self._new_metadata_key(new_version)
            self.store.put_object(
                self.bucket,
                new_metadata_key,
                json.dumps(metadata).encode("utf-8"),
                content_type="application/json",
            )
            try:
                self.store.put_if_generation(
                    self.bucket,
                    self._pointer_key,
                    json.dumps({"metadata_key": new_metadata_key}).encode("utf-8"),
                    expected_generation=pointer_generation,
                )
                return True
            except PreconditionFailedError:
                # A commit raced the revert; fall through to path removal.
                metadata = self.read_metadata()
        live_target = metadata["current_snapshot_id"]
        if live_target is None:
            return False
        live = {f.path for f in self.scan(snapshot_id=live_target)}
        stale = [p for p in added_paths if p in live]
        if not stale:
            return False
        self.commit_overwrite(added=[], removed_paths=stale)
        return True
