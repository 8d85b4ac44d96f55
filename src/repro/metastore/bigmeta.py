"""Big Metadata: scalable physical metadata management (§3.3, §3.5).

Per table, the service keeps a transaction log whose *tail* lives in memory
(a stateful service) and is periodically folded into *columnar baselines* —
numpy arrays of per-file statistics — for read efficiency. Queries read the
baseline and reconcile it with the tail, exactly the structure the paper
credits for BLMT's high mutation rate without sacrificing read performance.

The metadata cached per file matches §3.3: file name, partition values,
physical size, row count, and per-column min/max/null statistics at *file*
granularity (finer than Hive's partition granularity), enabling
high-performance partition and file pruning without object-store listing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Container, Iterable

from repro.errors import CatalogError, NotFoundError, TransactionConflictError
from repro.metastore.constraints import ConstraintSet, StatsTable, can_match
from repro.simtime import SimContext


@dataclass(frozen=True)
class ColumnStats:
    """Per-file statistics for one column."""

    min_value: Any = None
    max_value: Any = None
    null_count: int = 0
    distinct_hint: int | None = None  # approximate NDV if the writer knows it


@dataclass(frozen=True)
class FileEntry:
    """One data file tracked in the metadata cache."""

    file_path: str  # "bucket/key"
    size_bytes: int
    row_count: int
    partition_values: tuple[tuple[str, Any], ...] = ()
    column_stats: tuple[tuple[str, ColumnStats], ...] = ()
    # Object-store generation of the file at registration time. Keys the
    # data cache (stale generations stop being addressed after rewrites);
    # 0 means unknown, which the cache treats as uncacheable.
    generation: int = 0

    def partition(self) -> dict[str, Any]:
        return dict(self.partition_values)

    def stats_for(self, column: str) -> ColumnStats | None:
        key = column.lower()
        for name, s in self.column_stats:
            if name.lower() == key:
                return s
        return None


@dataclass(frozen=True)
class LogRecord:
    """One committed mutation of one table's file set.

    ``txn_id`` is empty for ordinary (single-table, immediately visible)
    commits. A non-empty ``txn_id`` marks a record published by a
    multi-table transaction (:mod:`repro.txn`): the record is *pending*
    until the transaction's log marker reads COMMITTED, at which point it
    becomes visible with the marker's commit time as its effective
    timestamp — so every table of the transaction flips atomically for
    snapshot readers. Records of ABORTED transactions never become visible.
    """

    commit_id: int
    timestamp_ms: float
    added: tuple[FileEntry, ...]
    deleted: tuple[str, ...]  # file paths
    txn_id: str = ""


def entry_stats(
    entries: list[FileEntry], columns: Container[str] | None = None
) -> StatsTable:
    """The :class:`StatsTable` of ``entries`` (see :meth:`StatsTable.build`)."""
    return StatsTable.build(
        [(e.row_count, e.partition_values, e.column_stats) for e in entries], columns
    )


def prune_entries(entries: list[FileEntry], constraints: ConstraintSet) -> list[FileEntry]:
    """The entries that may hold a row satisfying ``constraints``."""
    table = entry_stats(entries, constraints.columns)
    return list(itertools.compress(entries, can_match(constraints, table)))


@dataclass
class TableMetadata:
    """The Big Metadata state for one table."""

    table_id: str
    # Compacted baseline: live files as of the last fold.
    baseline: dict[str, FileEntry] = field(default_factory=dict)
    # The baseline's stats table, in ``baseline`` order, built once per fold.
    baseline_stats: StatsTable | None = None
    # In-memory tail of the transaction log (records after the baseline).
    tail: list[LogRecord] = field(default_factory=list)
    # Full history for audit (the log is tamper-proof: append-only, owned
    # by the service, never writable by clients — §3.5).
    history: list[LogRecord] = field(default_factory=list)
    version: int = 0
    # Resolver for txn-tagged records: ``fn(txn_id) -> (state, commit_ms)``
    # against the transaction log's marker (set by the txn coordinator;
    # None means tagged records are unresolvable and stay invisible).
    txn_resolver: Any = None

    def record_visibility(self, record: LogRecord) -> tuple[bool, float]:
        """(visible, effective timestamp) of one log record.

        Untagged records are visible at their own commit time. Tagged
        records are visible iff their transaction's marker is COMMITTED —
        the marker is the sole source of truth — and their effective time
        is the *marker's* commit time, so all tables of one transaction
        flip at the same instant for as-of readers.
        """
        if not record.txn_id:
            return True, record.timestamp_ms
        if self.txn_resolver is None:
            return False, record.timestamp_ms
        state, commit_ms = self.txn_resolver(record.txn_id)
        if state == "COMMITTED":
            return True, commit_ms
        return False, record.timestamp_ms

    def live_entries(self, as_of_ms: float | None = None) -> dict[str, FileEntry]:
        """Reconstruct the live file set (baseline ⊕ tail), optionally at a
        past timestamp for snapshot reads. Pending/aborted transactional
        records are skipped; committed ones use their marker time."""
        live = dict(self.baseline)
        records: Iterable[LogRecord] = self.tail
        if as_of_ms is not None:
            # Snapshot semantics require replaying full history up to the
            # timestamp, since the baseline may already include later commits.
            live = {}
            records = self.history
        for record in records:
            visible, effective_ms = self.record_visibility(record)
            if not visible:
                continue
            if as_of_ms is not None and effective_ms > as_of_ms:
                continue
            for path in record.deleted:
                live.pop(path, None)
            for entry in record.added:
                live[entry.file_path] = entry
        return live


class MetaTransaction:
    """A multi-table atomic transaction against Big Metadata (§3.5).

    Usage::

        txn = service.begin()
        txn.stage(t1, added=[...], deleted=[...])
        txn.stage(t2, added=[...])
        txn.commit()

    Conflict rule (optimistic): appends always commute; a transaction that
    *deletes* files conflicts if its table advanced since the transaction
    began (a concurrent writer may have already deleted or compacted them).
    """

    def __init__(self, service: "BigMetadataService", txn_id: str = "") -> None:
        self._service = service
        self._staged: dict[str, tuple[list[FileEntry], list[str]]] = {}
        self._start_versions: dict[str, int] = {}
        self._done = False
        # Non-empty: records are published tagged (pending until the
        # multi-table transaction's marker commits — see repro.txn).
        self.txn_id = txn_id

    def stage(
        self,
        table_id: str,
        added: list[FileEntry] | None = None,
        deleted: list[str] | None = None,
    ) -> None:
        if self._done:
            raise CatalogError("transaction already finished")
        meta = self._service.table(table_id)
        if table_id not in self._start_versions:
            self._start_versions[table_id] = meta.version
        adds, dels = self._staged.setdefault(table_id, ([], []))
        adds.extend(added or [])
        dels.extend(deleted or [])

    def commit(self) -> int:
        """Atomically apply all staged mutations; returns the commit id."""
        if self._done:
            raise CatalogError("transaction already finished")
        self._done = True
        # Validate before mutating anything (atomicity).
        for table_id, (adds, dels) in self._staged.items():
            meta = self._service.table(table_id)
            if dels and meta.version != self._start_versions[table_id]:
                raise TransactionConflictError(
                    f"table {table_id} changed during transaction "
                    f"(v{self._start_versions[table_id]} -> v{meta.version})"
                )
            live = meta.live_entries()
            for path in dels:
                if path not in live:
                    raise TransactionConflictError(
                        f"cannot delete {path}: not live in {table_id}"
                    )
        return self._service._apply_transaction(self._staged, txn_id=self.txn_id)

    def abort(self) -> None:
        self._done = True


class BigMetadataService:
    """The Big Metadata service: one instance per (simulated) region."""

    def __init__(self, ctx: SimContext, tail_compaction_threshold: int = 64) -> None:
        self.ctx = ctx
        self._tables: dict[str, TableMetadata] = {}
        self._commit_ids = itertools.count(1)
        # Tail records folded into the baseline once the tail exceeds this.
        self.tail_compaction_threshold = tail_compaction_threshold
        # fn(txn_id) -> (state, commit_ms) against the transaction log;
        # installed by the txn coordinator, shared with every table.
        self.txn_resolver = None

    def set_txn_resolver(self, resolver) -> None:
        """Install the transaction-marker resolver (repro.txn wires this)."""
        self.txn_resolver = resolver
        for meta in self._tables.values():
            meta.txn_resolver = resolver

    # -- table lifecycle ----------------------------------------------------

    def register_table(self, table_id: str) -> TableMetadata:
        if table_id in self._tables:
            return self._tables[table_id]
        meta = TableMetadata(table_id=table_id, txn_resolver=self.txn_resolver)
        self._tables[table_id] = meta
        return meta

    def table(self, table_id: str) -> TableMetadata:
        try:
            return self._tables[table_id]
        except KeyError:
            raise NotFoundError(f"no metadata for table {table_id!r}") from None

    def has_table(self, table_id: str) -> bool:
        return table_id in self._tables

    def drop_table(self, table_id: str) -> None:
        self._tables.pop(table_id, None)

    # -- commits ---------------------------------------------------------------

    def begin(self, txn_id: str = "") -> MetaTransaction:
        return MetaTransaction(self, txn_id=txn_id)

    def commit(
        self,
        table_id: str,
        added: list[FileEntry] | None = None,
        deleted: list[str] | None = None,
        txn_id: str = "",
    ) -> int:
        """Single-table commit (sugar over a one-table transaction)."""
        txn = self.begin(txn_id=txn_id)
        txn.stage(table_id, added=added, deleted=deleted)
        return txn.commit()

    def _apply_transaction(
        self,
        staged: dict[str, tuple[list[FileEntry], list[str]]],
        txn_id: str = "",
    ) -> int:
        # Hazard point before any mutation: an injected commit fault leaves
        # the metadata untouched, so a caller's retry observes a clean slate.
        self.ctx.faults.check("bigmeta.commit", tables=len(staged))
        commit_id = next(self._commit_ids)
        # A commit is a memory-speed append to the in-memory tail.
        with self.ctx.tracer.span(
            "bigmeta.commit", layer="metastore", tables=len(staged)
        ):
            self.ctx.charge("bigmeta.commit", self.ctx.costs.bigmeta_commit_ms)
        self.ctx.metrics.counter("bigmeta_commits_total", "Big Metadata commits").inc()
        timestamp = self.ctx.clock.now_ms
        for table_id, (adds, dels) in staged.items():
            meta = self._tables[table_id]
            record = LogRecord(
                commit_id=commit_id,
                timestamp_ms=timestamp,
                added=tuple(adds),
                deleted=tuple(dels),
                txn_id=txn_id,
            )
            meta.tail.append(record)
            meta.history.append(record)
            meta.version += 1
            if len(meta.tail) >= self.tail_compaction_threshold and self._tail_resolved(meta):
                self._compact(meta)
        return commit_id

    def _tail_resolved(self, meta: TableMetadata) -> bool:
        """Whether every tagged tail record's transaction reached a
        terminal state. Compaction folds the tail into the baseline using
        *current* visibility, which would freeze a pending transaction's
        records out of (or into) the baseline permanently — so while any
        tail transaction is unresolved, compaction is deferred (recovery
        clears such windows quickly). Resolver errors defer too: never
        guess at a marker."""
        for record in meta.tail:
            if not record.txn_id:
                continue
            if meta.txn_resolver is None:
                return False
            try:
                state, _ = meta.txn_resolver(record.txn_id)
            except Exception:
                return False
            if state not in ("COMMITTED", "ABORTED"):
                return False
        return True

    def _compact(self, meta: TableMetadata) -> None:
        """Fold the tail into the columnar baseline (read-optimization)."""
        meta.baseline = meta.live_entries()
        meta.baseline_stats = entry_stats(list(meta.baseline.values()))
        meta.tail.clear()
        self.ctx.metering.count("bigmeta.baseline_compaction")

    def compact_baseline(self, table_id: str) -> None:
        meta = self.table(table_id)
        # Same guard as the automatic path: folding an unresolved pending
        # transaction would permanently drop its records from the tail.
        if self._tail_resolved(meta):
            self._compact(meta)

    # -- reads --------------------------------------------------------------------

    def snapshot(
        self, table_id: str, as_of_ms: float | None = None
    ) -> list[FileEntry]:
        """All live files (point-in-time if ``as_of_ms`` given)."""
        self.ctx.faults.check("bigmeta.lookup", table=table_id)
        with self.ctx.tracer.span(
            "bigmeta.snapshot", layer="metastore", table=table_id
        ):
            self.ctx.charge("bigmeta.lookup", self.ctx.costs.bigmeta_lookup_ms)
        self.ctx.metrics.counter(
            "bigmeta_reads_total", "Big Metadata read operations by path"
        ).inc(path="snapshot")
        meta = self.table(table_id)
        return list(meta.live_entries(as_of_ms).values())

    def prune(
        self,
        table_id: str,
        constraints: ConstraintSet,
        as_of_ms: float | None = None,
    ) -> list[FileEntry]:
        """Live files that may contain matching rows, using partition values
        and per-file column min/max stats. This single lookup replaces the
        LIST + per-file footer reads of the uncached path.

        Current-time reads with a compacted baseline take the columnar
        fast path: the baseline's stats table, built at the fold, plus the
        (short) tail — the paper's "read the columnar baselines and
        reconcile with the tail". Both paths ask :func:`can_match`."""
        self.ctx.faults.check("bigmeta.lookup", table=table_id)
        columnar = (
            not constraints.is_empty
            and as_of_ms is None
            and self.table(table_id).baseline_stats is not None
        )
        path = "columnar" if columnar else "tail_replay"
        with self.ctx.tracer.span(
            "bigmeta.prune", layer="metastore", table=table_id, path=path
        ) as span:
            self.ctx.charge("bigmeta.prune", self.ctx.costs.bigmeta_lookup_ms)
            meta = self.table(table_id)
            if constraints.is_empty:
                entries = list(meta.live_entries(as_of_ms).values())
            elif columnar:
                entries = self._prune_columnar(meta, constraints)
            else:
                entries = prune_entries(
                    list(meta.live_entries(as_of_ms).values()), constraints
                )
            span.set_tag("entries", len(entries))
        self.ctx.metrics.counter(
            "bigmeta_reads_total", "Big Metadata read operations by path"
        ).inc(path=path)
        return entries

    def _prune_columnar(
        self, meta: TableMetadata, constraints: ConstraintSet
    ) -> list[FileEntry]:
        """Baseline via its stats table; tail reconciled per record."""
        self.ctx.metering.count("bigmeta.columnar_prune")
        touched: set[str] = set()  # every path the visible tail deletes or adds
        added: dict[str, FileEntry] = {}  # the tail's live additions
        for record in meta.tail:
            if meta.record_visibility(record)[0]:
                touched.update(record.deleted)
                for path in record.deleted:
                    added.pop(path, None)
                added.update((entry.file_path, entry) for entry in record.added)
        touched.update(added)
        survivors = [
            entry
            for entry in itertools.compress(
                meta.baseline.values(), can_match(constraints, meta.baseline_stats)
            )
            if entry.file_path not in touched
        ]
        return survivors + prune_entries(list(added.values()), constraints)

    # -- table-level statistics (for planning, §3.4) ----------------------------------

    def table_stats(self, table_id: str) -> dict[str, Any]:
        """Aggregate statistics the read API returns to external engines:
        row/byte totals and per-column min/max + NDV hints."""
        entries = self.table(table_id).live_entries().values()
        total_rows = sum(e.row_count for e in entries)
        total_bytes = sum(e.size_bytes for e in entries)
        columns: dict[str, dict[str, Any]] = {}
        for entry in entries:
            for name, stats in entry.column_stats:
                agg = columns.setdefault(
                    name, {"min": None, "max": None, "null_count": 0, "distinct_hint": 0}
                )
                if stats.min_value is not None and (
                    agg["min"] is None or stats.min_value < agg["min"]
                ):
                    agg["min"] = stats.min_value
                if stats.max_value is not None and (
                    agg["max"] is None or stats.max_value > agg["max"]
                ):
                    agg["max"] = stats.max_value
                agg["null_count"] += stats.null_count
                if stats.distinct_hint:
                    agg["distinct_hint"] = max(agg["distinct_hint"], stats.distinct_hint)
        return {
            "num_rows": total_rows,
            "num_bytes": total_bytes,
            "num_files": len(entries),
            "columns": columns,
        }

    def history(self, table_id: str) -> list[LogRecord]:
        """The immutable audit history of a table's commits."""
        return list(self.table(table_id).history)
