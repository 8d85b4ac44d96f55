"""The Storage Write API (§2.2.2): streams, exactly-once, transactions.

Supports the paper's two modes:

* ``COMMITTED`` streams — real-time streaming: rows become visible as they
  are flushed.
* ``PENDING`` streams — batch mode: rows buffer until the stream is
  finalized and committed; ``batch_commit`` makes *multiple* finalized
  streams visible atomically (cross-stream transactions).

Exactly-once delivery uses per-stream row offsets: a retried append with an
already-applied offset is acknowledged as a duplicate and not re-applied.

Destinations: BigQuery managed tables and BLMTs. Rows land through the
table manager's append seam — the same one DML uses — so a flush is an
ordinary commit of its storage (file layout, retries, version bump, Iceberg
auto-export), not a second implementation of one.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.data.batch import RecordBatch
from repro.errors import (
    AccessDeniedError,
    StorageApiError,
    StreamOffsetError,
)
from repro.metastore.catalog import TableInfo, TableKind
from repro.security.audit import AuditLog
from repro.security.iam import IamService, Permission, Principal
from repro.simtime import SimContext

_stream_ids = itertools.count(1)


class WriteStreamKind(enum.Enum):
    COMMITTED = "committed"  # visible on flush (real-time streaming)
    PENDING = "pending"  # visible at batch commit (batch semantics)


@dataclass
class AppendResult:
    offset: int
    row_count: int
    duplicate: bool = False


@dataclass
class WriteStream:
    stream_id: str
    table: TableInfo
    kind: WriteStreamKind
    principal: Principal
    next_offset: int = 0
    buffered: list[RecordBatch] = field(default_factory=list)
    buffered_rows: int = 0
    finalized: bool = False
    committed: bool = False

    @property
    def is_writable(self) -> bool:
        return not self.finalized and not self.committed


class WriteApi:
    """The Write API service endpoint for one deployment."""

    def __init__(
        self,
        tables,
        iam: IamService,
        audit: AuditLog,
        ctx: SimContext,
        committed_flush_rows: int = 10_000,
    ) -> None:
        # The write seam (repro.core's TableManager): ``append`` lands rows
        # in either storage, ``blmt.begin_transaction`` opens the atomic
        # multi-table BLMT commit batch_commit needs.
        self.tables = tables
        self.iam = iam
        self.audit = audit
        self.ctx = ctx
        self.committed_flush_rows = committed_flush_rows

    # ------------------------------------------------------------------

    def create_write_stream(
        self,
        principal: Principal,
        table: TableInfo,
        kind: WriteStreamKind = WriteStreamKind.COMMITTED,
    ) -> WriteStream:
        if table.kind not in (TableKind.MANAGED, TableKind.BLMT):
            raise StorageApiError(
                f"write streams target managed or BLMT tables, not {table.kind.value}"
            )
        decision = self.iam.is_allowed(
            principal, Permission.TABLES_UPDATE_DATA, table.resource_name
        )
        self.audit.record(
            principal, "write_stream.create", table.resource_name,
            decision.allowed, decision.reason,
        )
        if not decision.allowed:
            raise AccessDeniedError(f"{principal} cannot write {table.table_id}")
        return WriteStream(
            stream_id=f"wstream-{next(_stream_ids):08d}",
            table=table,
            kind=kind,
            principal=principal,
        )

    def append_rows(
        self, stream: WriteStream, batch: RecordBatch, offset: int | None = None
    ) -> AppendResult:
        """Append a batch at ``offset`` (rows since stream creation).

        Exactly-once: ``offset < next`` is a duplicate retry (acked, not
        re-applied); ``offset > next`` is a gap (error); ``None`` means
        "append at the end".
        """
        if not stream.is_writable:
            raise StorageApiError(f"stream {stream.stream_id} is not writable")
        # Hazard before buffering: the exactly-once offset protocol makes a
        # caller retry of a failed append safe (duplicates are acked).
        self.ctx.faults.check("write_api.append", table=stream.table.table_id)
        if offset is None:
            offset = stream.next_offset
        if offset < stream.next_offset:
            return AppendResult(offset=offset, row_count=batch.num_rows, duplicate=True)
        if offset > stream.next_offset:
            raise StreamOffsetError(
                f"append at offset {offset} but stream is at {stream.next_offset}"
            )
        stream.buffered.append(batch)
        stream.buffered_rows += batch.num_rows
        stream.next_offset += batch.num_rows
        self.ctx.metering.count("write_api.append")
        if (
            stream.kind is WriteStreamKind.COMMITTED
            and stream.buffered_rows >= self.committed_flush_rows
        ):
            self.flush(stream)
        return AppendResult(offset=offset, row_count=batch.num_rows)

    def flush(self, stream: WriteStream) -> int:
        """Make a COMMITTED stream's buffered rows visible; returns rows
        flushed. No-op for PENDING streams (they commit via batch_commit)."""
        if stream.kind is not WriteStreamKind.COMMITTED:
            raise StorageApiError("only COMMITTED streams flush incrementally")
        rows = stream.buffered_rows
        if rows == 0:
            return 0
        self.tables.append(stream.table, stream.buffered)
        stream.buffered = []
        stream.buffered_rows = 0
        return rows

    def finalize(self, stream: WriteStream) -> int:
        """Seal the stream against further appends; returns total rows."""
        if stream.kind is WriteStreamKind.COMMITTED and stream.buffered_rows:
            self.flush(stream)
        stream.finalized = True
        return stream.next_offset

    def batch_commit(self, streams: list[WriteStream]) -> int:
        """Atomically publish several finalized PENDING streams.

        All streams' rows become visible at one commit point — a
        cross-stream transaction. Returns the number of rows committed.
        """
        for stream in streams:
            if stream.kind is not WriteStreamKind.PENDING:
                raise StorageApiError("batch_commit takes PENDING streams")
            if not stream.finalized:
                raise StorageApiError(f"stream {stream.stream_id} not finalized")
            if stream.committed:
                raise StorageApiError(f"stream {stream.stream_id} already committed")
        txn = self.tables.blmt.begin_transaction()
        total_rows = 0
        for stream in streams:
            if not stream.buffered_rows:
                continue
            total_rows += stream.buffered_rows
            if stream.table.kind is TableKind.BLMT:
                txn.insert(stream.table, *stream.buffered)
            else:
                self.tables.append(stream.table, stream.buffered)
        if txn.staged_tables:
            txn.commit()
        else:
            txn.abort()
        for stream in streams:
            stream.committed = True
            stream.buffered = []
            stream.buffered_rows = 0
        return total_rows
