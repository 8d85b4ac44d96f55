"""The transaction coordinator: begin/commit/abort + crash recovery.

A :class:`Transaction` gives one writer snapshot-isolated reads (pinned at
``begin_ms``) and buffered writes across BLMT and Iceberg tables. Nothing
touches shared table state until :meth:`Transaction.commit`, which runs the
publish protocol::

    prepare   validate first-writer-wins against the tables' current
              versions — conflicts abort here, before anything durable
    intent    CAS-create the INTENT record listing every planned commit
    table:T   publish each table's commit *tagged* with the txn id
              (BLMT: Big Metadata log append; Iceberg: pointer CAS) —
              tagged commits stay invisible to every reader
    marker    CAS the record INTENT -> COMMITTED (the atomic flip: all
              tables become visible at the marker's commit time)
    finalize  roll-forward side effects (each BLMT table's commit epilogue:
              version bump, Iceberg auto-export) and stamp the record finalized

``ctx.faults.check("txn.crash", txn=..., step=...)`` runs before every step,
so a chaos plan can kill the writer at any point. A crash leaves state
exactly as-is — dangling intent, partial tagged commits — for
:meth:`TransactionCoordinator.recover` to finish: COMMITTED-but-unfinalized
records roll forward, INTENT records roll back (marker -> ABORTED, then
physical Iceberg cleanup; BLMT needs none — aborted tags are invisible
forever and GC reclaims the orphan files).

Isolation: snapshot reads resolve tagged commits through the marker, so a
transaction's tables flip atomically even for time-travel readers.
Conflict detection is first-writer-wins at *table* granularity: two
transactions that wrote the same table conflict, reads never do, and a
crashed transaction that already bumped a table version can abort an
innocent overlapper (a documented spurious abort — the loser just
retries). There is no read-your-own-writes: buffered writes are invisible
until the marker lands.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from repro.errors import (
    NotFoundError,
    ReproError,
    TransactionAbortedError,
    TransactionConflictError,
    WriterCrashError,
)
from repro.metastore.bigmeta import FileEntry
from repro.metastore.catalog import TableInfo
from repro.tableformats.iceberg import DataFileInfo, IcebergTable
from repro.txn.log import (
    ABORTED,
    COMMITTED,
    INTENT,
    TableCommit,
    TransactionLog,
    TxnRecord,
)


@dataclass
class _BlmtWrite:
    """Buffered writes against one BLMT table."""

    table: TableInfo
    base_version: int  # Big Metadata version validated at publish
    added: list[FileEntry] = field(default_factory=list)
    deleted: list[str] = field(default_factory=list)


@dataclass
class _IcebergWrite:
    """Buffered writes against one Iceberg table."""

    table: IcebergTable
    base_snapshot_id: int | None  # pointer snapshot validated at publish
    added: list[DataFileInfo] = field(default_factory=list)
    removed: list[str] = field(default_factory=list)


@dataclass
class RecoveryReport:
    """What one recovery sweep did."""

    rolled_forward: list[str] = field(default_factory=list)
    rolled_back: list[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.rolled_forward) + len(self.rolled_back)

    def to_dict(self) -> dict:
        return {
            "rolled_forward": list(self.rolled_forward),
            "rolled_back": list(self.rolled_back),
        }


class Transaction:
    """One writer's open transaction (see module docstring for protocol)."""

    def __init__(self, coordinator: "TransactionCoordinator", principal, txn_id: str) -> None:
        self._coord = coordinator
        self.ctx = coordinator.ctx
        self.principal = principal
        self.txn_id = txn_id
        self.begin_ms = self.ctx.clock.now_ms
        self.state = "OPEN"  # OPEN | COMMITTED | ABORTED | CRASHED
        self._blmt: dict[str, _BlmtWrite] = {}
        self._iceberg: dict[str, _IcebergWrite] = {}

    # -- guards -----------------------------------------------------------------

    def _require_open(self) -> None:
        if self.state != "OPEN":
            raise TransactionAbortedError(
                f"transaction {self.txn_id} is {self.state}, not OPEN"
            )

    # -- reads and statements ---------------------------------------------------

    def execute(self, sql: str):
        """Run one statement inside this transaction.

        SELECTs read the transaction's begin snapshot (marker-time as-of,
        so concurrently committing transactions never show partially).
        DML against BLMT tables buffers into the transaction instead of
        committing; everything publishes together at :meth:`commit`.
        """
        self._require_open()
        engine = self._coord.engine
        queue = self._coord.job_queue
        head = sql.lstrip().upper()
        is_select = head.startswith("SELECT") or head.startswith("WITH")
        prev_active = self._coord.active
        prev_txn_id = queue.current_transaction_id
        self._coord.active = self
        queue.current_transaction_id = self.txn_id
        try:
            if is_select:
                return engine.execute(sql, self.principal, snapshot_ms=self.begin_ms)
            return engine.execute(sql, self.principal)
        finally:
            self._coord.active = prev_active
            queue.current_transaction_id = prev_txn_id

    def scan_iceberg(
        self, iceberg: IcebergTable, constraints=None
    ) -> list[DataFileInfo]:
        """Snapshot-isolated Iceberg scan pinned at ``begin_ms``."""
        self._require_open()
        snapshot_id = iceberg.snapshot_id_as_of(self.begin_ms)
        if snapshot_id is None:
            return []
        return iceberg.scan(constraints, snapshot_id=snapshot_id)

    # -- write buffering --------------------------------------------------------

    def stage_blmt(
        self,
        table: TableInfo,
        added: list[FileEntry] | None = None,
        deleted: list[str] | None = None,
    ) -> None:
        """Buffer a BLMT commit (data files are already written — they are
        inert until a committed, marker-visible log record references them)."""
        self._require_open()
        write = self._blmt.get(table.table_id)
        if write is None:
            meta = self._coord.bigmeta.table(table.table_id)
            write = _BlmtWrite(table=table, base_version=meta.version)
            self._blmt[table.table_id] = write
        write.added.extend(added or [])
        write.deleted.extend(deleted or [])

    def stage_iceberg(
        self,
        iceberg: IcebergTable,
        added: list[DataFileInfo] | None = None,
        removed_paths: list[str] | None = None,
    ) -> None:
        """Buffer an Iceberg commit for publish-time pointer CAS."""
        self._require_open()
        table_id = f"{iceberg.bucket}/{iceberg.prefix}"
        write = self._iceberg.get(table_id)
        if write is None:
            base = iceberg.read_metadata()["current_snapshot_id"]
            write = _IcebergWrite(table=iceberg, base_snapshot_id=base)
            self._iceberg[table_id] = write
        write.added.extend(added or [])
        write.removed.extend(removed_paths or [])

    # -- terminal operations ----------------------------------------------------

    def abort(self) -> None:
        """Drop the transaction. Nothing durable exists before commit(), so
        this is purely local; an unknown txn id already reads as ABORTED."""
        if self.state == "OPEN":
            self.state = "ABORTED"
            self.ctx.metrics.counter(
                "repro_txn_aborted_total", "Transactions aborted."
            ).inc(reason="explicit")

    def _crash_point(self, step: str) -> None:
        self.ctx.faults.check("txn.crash", txn=self.txn_id, step=step)

    def commit(self) -> float:
        """Publish every buffered write atomically; returns the marker's
        commit time. Raises :class:`TransactionConflictError` when this
        writer lost first-writer-wins, :class:`WriterCrashError` when a
        chaos plan kills it mid-publish (state is then left for recovery).
        """
        self._require_open()
        ctx = self.ctx
        coord = self._coord
        self._crash_point("prepare")

        # First-writer-wins: any table written by this transaction must be
        # unchanged since we first touched it. Conflicts abort *before*
        # anything durable exists.
        conflicts: list[str] = []
        for table_id, write in sorted(self._blmt.items()):
            meta = coord.bigmeta.table(table_id)
            if meta.version != write.base_version:
                conflicts.append(
                    f"{table_id} v{write.base_version} -> v{meta.version}"
                )
        for table_id, write in sorted(self._iceberg.items()):
            current = write.table.read_metadata()["current_snapshot_id"]
            if current != write.base_snapshot_id:
                conflicts.append(
                    f"{table_id} snapshot {write.base_snapshot_id} -> {current}"
                )
        if conflicts:
            self.state = "ABORTED"
            ctx.metrics.counter(
                "repro_txn_aborted_total", "Transactions aborted."
            ).inc(reason="conflict")
            raise TransactionConflictError(
                f"transaction {self.txn_id} lost first-writer-wins: "
                + "; ".join(conflicts)
            )

        record = TxnRecord(
            txn_id=self.txn_id,
            state=INTENT,
            writer=str(self.principal),
            begin_ms=self.begin_ms,
            tables=(
                [
                    TableCommit(
                        table_id=table_id,
                        format="blmt",
                        base_version=write.base_version,
                        added=[e.file_path for e in write.added],
                        deleted=list(write.deleted),
                    )
                    for table_id, write in sorted(self._blmt.items())
                ]
                + [
                    TableCommit(
                        table_id=table_id,
                        format="iceberg",
                        base_version=write.base_snapshot_id or 0,
                        added=[f.path for f in write.added],
                        deleted=list(write.removed),
                    )
                    for table_id, write in sorted(self._iceberg.items())
                ]
            ),
        )
        ctx.with_retry("txn.intent", lambda: coord.log.create_intent(record))
        self._crash_point("intent")

        try:
            for table_id, write in sorted(self._blmt.items()):
                ctx.with_retry(
                    "bigmeta.commit",
                    lambda w=write: coord.bigmeta.commit(
                        w.table.table_id,
                        added=w.added,
                        deleted=w.deleted,
                        txn_id=self.txn_id,
                    ),
                )
                self._crash_point(f"table:{table_id}")
            for table_id, write in sorted(self._iceberg.items()):
                if write.removed:
                    write.table.commit_overwrite(
                        write.added, write.removed, txn_id=self.txn_id
                    )
                else:
                    write.table.commit_append(write.added, txn_id=self.txn_id)
                self._crash_point(f"table:{table_id}")
            self._crash_point("marker")
        except WriterCrashError:
            # The writer is dead: leave the dangling intent and partial
            # tagged commits exactly as they are for the recovery sweep.
            self.state = "CRASHED"
            raise
        except TransactionConflictError as exc:
            # Publish-time conflict detection backstops prepare-time FWW:
            # a competing commit can land *before* this transaction stages
            # a table (so the base version already includes it) and retire
            # a file this transaction's copy-on-write rewrite still
            # references. Big Metadata's delete-liveness check catches
            # that; surface it as the conflict it is (retry with a fresh
            # transaction) after rolling back whatever already published.
            coord.roll_back(record.txn_id)
            self.state = "ABORTED"
            ctx.metrics.counter(
                "repro_txn_aborted_total", "Transactions aborted."
            ).inc(reason="conflict")
            raise TransactionConflictError(
                f"transaction {self.txn_id} lost a publish-time conflict: {exc}"
            ) from exc
        except ReproError as exc:
            # A real publish failure with the writer still alive: roll the
            # transaction back inline (same path recovery would take).
            coord.roll_back(record.txn_id)
            self.state = "ABORTED"
            ctx.metrics.counter(
                "repro_txn_aborted_total", "Transactions aborted."
            ).inc(reason="publish_error")
            raise TransactionAbortedError(
                f"transaction {self.txn_id} failed during publish: {exc}"
            ) from exc

        try:
            committed = ctx.with_retry(
                "txn.marker",
                lambda: coord.log.transition(
                    self.txn_id, COMMITTED, commit_ms=ctx.clock.now_ms
                ),
            )
        except TransactionAbortedError:
            self.state = "ABORTED"
            raise
        self.state = "COMMITTED"
        coord._terminal_cache[self.txn_id] = (COMMITTED, committed.commit_ms)
        ctx.metrics.counter(
            "repro_txn_committed_total", "Transactions committed."
        ).inc()
        self._crash_point("finalize")
        coord.finalize(committed)
        return committed.commit_ms


class TransactionCoordinator:
    """Owns the transaction log, hands out transactions, runs recovery."""

    def __init__(
        self, bigmeta, stores, catalog, blmt, job_queue, engine, home_location: str,
        ctx, bucket: str = "repro-txn-log",
    ) -> None:
        self.bigmeta = bigmeta
        self.stores = stores
        self.catalog = catalog
        self.blmt = blmt  # BlmtManager: stages into / is finalized by this
        self.job_queue = job_queue
        self.engine = engine  # statements inside a transaction run here
        self.ctx = ctx
        self.log = TransactionLog(stores.store_for(home_location), bucket=bucket)
        # Terminal states never change, so cache them: resolution happens on
        # every snapshot read of a tagged record and would otherwise turn
        # each scan into O(tagged records) store GETs.
        self._terminal_cache: dict[str, tuple[str, float]] = {}
        #: The transaction DML currently buffers into (set around
        #: Transaction.execute; BlmtManager consults it).
        self.active: Transaction | None = None
        # Deterministic txn ids, seeded past whatever the log already holds
        # so a restarted coordinator never reuses a published id.
        self._seq = 0
        for record in self.log.entries():
            tail = record.txn_id.rsplit("_", 1)[-1]
            if tail.isdigit():
                self._seq = max(self._seq, int(tail))
        # Wire marker resolution into every reader path: Big Metadata
        # (BLMT log records) and the object stores (Iceberg snapshots).
        # Those services are held from here, so their way back is weak —
        # a strong hook would make the dropped platform cyclic garbage.
        me = weakref.proxy(self)

        def resolver(txn_id: str) -> tuple[str, float]:
            return me.status(txn_id)

        bigmeta.set_txn_resolver(resolver)
        stores.set_txn_resolver(resolver)
        blmt.coordinator = me
        # Crash-safe start: finish whatever a dead writer left behind.
        self.recover()

    # -- transactions -----------------------------------------------------------

    def begin(self, principal) -> Transaction:
        self._seq += 1
        return Transaction(self, principal, f"txn_{self._seq:06d}")

    def status(self, txn_id: str) -> tuple[str, float]:
        """Marker resolution (``fn(txn_id) -> (state, commit_ms)``)."""
        cached = self._terminal_cache.get(txn_id)
        if cached is not None:
            return cached
        state, commit_ms = self.log.status(txn_id)
        if state in (COMMITTED, ABORTED):
            self._terminal_cache[txn_id] = (state, commit_ms)
        return state, commit_ms

    # -- recovery ---------------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """One recovery sweep over the whole log (idempotent).

        COMMITTED-but-unfinalized records roll *forward* (their data is
        already visible — the marker landed; only side effects are owed).
        INTENT records roll *back*: the writer died before the marker, so
        the marker flips to ABORTED and Iceberg tables shed the aborted
        snapshots. Post-condition: zero dangling intents.
        """
        report = RecoveryReport()
        for record in self.log.entries():
            if record.state == COMMITTED and not record.finalized:
                self.finalize(record)
                report.rolled_forward.append(record.txn_id)
                self.ctx.metrics.counter(
                    "repro_txn_recovered_total", "Recovery sweep actions."
                ).inc(action="roll_forward")
            elif record.state == INTENT:
                self.roll_back(record.txn_id)
                report.rolled_back.append(record.txn_id)
                self.ctx.metrics.counter(
                    "repro_txn_recovered_total", "Recovery sweep actions."
                ).inc(action="roll_back")
        return report

    def finalize(self, record: TxnRecord) -> None:
        """Roll-forward side effects for a COMMITTED record, then stamp it
        finalized. Safe to re-run: the stamp is idempotent and the side
        effects (version bump, snapshot re-export) are monotone."""
        for commit in record.tables:
            if commit.format != "blmt":
                continue
            table = self._table_info(commit.table_id)
            if table is not None:
                self.blmt.committed(table)
        self.ctx.with_retry(
            "txn.finalize", lambda: self.log.mark_finalized(record.txn_id)
        )

    def roll_back(self, txn_id: str) -> None:
        """Abort a transaction stuck in INTENT: flip the marker first (so
        nothing tagged can ever become visible), then physically undo any
        Iceberg snapshots it landed. BLMT needs no physical undo — aborted
        tags are invisible forever and GC reclaims the orphan data files."""
        try:
            record = self.ctx.with_retry(
                "txn.marker", lambda: self.log.transition(txn_id, ABORTED)
            )
        except TransactionAbortedError:
            # Already terminal (e.g. double recovery); honor the marker.
            record, _ = self.log.read(txn_id)
            if record.state != ABORTED:
                return
        self._terminal_cache[txn_id] = (ABORTED, 0.0)
        for commit in record.tables:
            if commit.format != "iceberg":
                continue
            bucket, _, prefix = commit.table_id.partition("/")
            try:
                store = self.stores.find_bucket(bucket)
            except NotFoundError:
                continue
            IcebergTable(store, bucket, prefix).rollback_txn(
                txn_id, added_paths=commit.added
            )

    # -- helpers ----------------------------------------------------------------

    def _table_info(self, table_id: str):
        try:
            return self.catalog.resolve(tuple(table_id.split(".")))
        except ReproError:
            return None
