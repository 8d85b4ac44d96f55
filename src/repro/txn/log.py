"""The transaction log: one CAS-guarded record per transaction.

Layout under ``{bucket}/{prefix}/``::

    log/txn_000001.json    <- one record per transaction

Each record is created with a conditional PUT (``expected_generation=0``,
so a txn id can never be double-claimed) in the ``INTENT`` state, listing
every per-table commit the transaction plans to publish. State transitions
are generation-matched CAS swaps of the record object::

    INTENT --> COMMITTED   (the atomic publish point; stamps commit_ms)
    INTENT --> ABORTED     (conflict loser, explicit abort, or recovery)

``COMMITTED``/``ABORTED`` are terminal and immutable — the only further
write is the idempotent ``finalized`` stamp on a COMMITTED record once
roll-forward side effects (cache refresh, catalog version bumps) have run.
The marker is the *sole source of truth*: readers and recovery never infer
a transaction's fate from the per-table logs, only from this record — so a
writer can die between any two publish steps without a torn state becoming
visible (the ``txn.crash`` hazard points exercise exactly that).

The CAS budget extends the §3.5 commit-rate tradeoff naturally: the log
shares the object store's per-object pointer-mutation rate limit, so
transaction *markers* are CAS-bounded while per-table BLMT commits stay
memory-speed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.errors import (
    CorruptTxnRecordError,
    NotFoundError,
    PreconditionFailedError,
    TransactionAbortedError,
)
from repro.objectstore import ObjectStore

#: Transaction states. INTENT is the only non-terminal state.
INTENT = "INTENT"
COMMITTED = "COMMITTED"
ABORTED = "ABORTED"


@dataclass
class TableCommit:
    """One planned per-table commit inside a transaction's intent.

    ``added``/``deleted`` list the file paths the commit publishes and
    retires — enough for recovery to roll an *aborted* Iceberg commit back
    physically (remove its added files) even if later snapshots carried
    them forward. ``base_version`` is the table version (BLMT) or current
    snapshot id (Iceberg) the transaction validated against, recorded for
    audit/debugging of first-writer-wins aborts.
    """

    table_id: str
    format: str  # "blmt" | "iceberg"
    base_version: int
    added: list[str] = field(default_factory=list)
    deleted: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "table_id": self.table_id,
            "format": self.format,
            "base_version": self.base_version,
            "added": list(self.added),
            "deleted": list(self.deleted),
        }

    @staticmethod
    def from_dict(d: dict[str, Any]) -> "TableCommit":
        """Decode one intent entry; raises CorruptTxnRecordError on junk."""
        try:
            return TableCommit(
                table_id=d["table_id"],
                format=d["format"],
                base_version=d["base_version"],
                added=list(d["added"]),
                deleted=list(d["deleted"]),
            )
        except (KeyError, TypeError) as exc:
            raise CorruptTxnRecordError(
                f"malformed transaction table commit: {exc!r}"
            ) from None


@dataclass
class TxnRecord:
    """The durable state of one transaction (the log object's content)."""

    txn_id: str
    state: str  # INTENT | COMMITTED | ABORTED
    writer: str  # str() of the owning principal
    begin_ms: float
    commit_ms: float = 0.0  # stamped by the INTENT -> COMMITTED CAS
    finalized: bool = False  # roll-forward side effects already ran
    tables: list[TableCommit] = field(default_factory=list)

    def to_json(self) -> bytes:
        doc = {
            "txn_id": self.txn_id,
            "state": self.state,
            "writer": self.writer,
            "begin_ms": self.begin_ms,
            "commit_ms": self.commit_ms,
            "finalized": self.finalized,
            "tables": [t.to_dict() for t in self.tables],
        }
        return json.dumps(doc, sort_keys=True).encode("utf-8")

    @staticmethod
    def from_json(data: bytes) -> "TxnRecord":
        """Decode a log object; raises CorruptTxnRecordError on junk."""
        try:
            doc = json.loads(data)
            return TxnRecord(
                txn_id=doc["txn_id"],
                state=doc["state"],
                writer=doc["writer"],
                begin_ms=doc["begin_ms"],
                commit_ms=doc["commit_ms"],
                finalized=doc["finalized"],
                tables=[TableCommit.from_dict(t) for t in doc["tables"]],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptTxnRecordError(
                f"malformed transaction record: {exc!r}"
            ) from None


class TransactionLog:
    """CAS-guarded transaction records in a dedicated log bucket."""

    def __init__(
        self,
        store: ObjectStore,
        bucket: str = "repro-txn-log",
        prefix: str = "log",
    ) -> None:
        self.store = store
        self.bucket = bucket
        self.prefix = prefix.rstrip("/")
        if not store.has_bucket(bucket):
            store.create_bucket(bucket)

    def _key(self, txn_id: str) -> str:
        return f"{self.prefix}/{txn_id}.json"

    # -- writes ---------------------------------------------------------------

    def create_intent(self, record: TxnRecord) -> None:
        """Durably claim ``record.txn_id`` (must-not-exist CAS)."""
        record.state = INTENT
        self.store.put_if_generation(
            self.bucket, self._key(record.txn_id), record.to_json(),
            expected_generation=0,
        )

    def transition(self, txn_id: str, to_state: str, commit_ms: float = 0.0) -> TxnRecord:
        """CAS the record from INTENT to a terminal state.

        Raises :class:`TransactionAbortedError` if the record is no longer
        in INTENT (e.g. recovery aborted it out from under a slow writer) —
        the marker, not the writer's memory, decides the transaction's fate.
        """
        record, generation = self.read(txn_id)
        if record.state != INTENT:
            raise TransactionAbortedError(
                f"transaction {txn_id} is already {record.state}; "
                f"cannot transition to {to_state}"
            )
        record.state = to_state
        if to_state == COMMITTED:
            record.commit_ms = commit_ms
        try:
            self.store.put_if_generation(
                self.bucket, self._key(txn_id), record.to_json(),
                expected_generation=generation,
            )
        except PreconditionFailedError:
            # Someone (recovery) swapped the record between our read and
            # CAS; its verdict wins.
            current, _ = self.read(txn_id)
            raise TransactionAbortedError(
                f"transaction {txn_id} lost the marker race "
                f"(now {current.state})"
            ) from None
        return record

    def mark_finalized(self, txn_id: str) -> TxnRecord:
        """Stamp a COMMITTED record as finalized (idempotent)."""
        record, generation = self.read(txn_id)
        if record.state != COMMITTED:
            raise TransactionAbortedError(
                f"cannot finalize transaction {txn_id} in state {record.state}"
            )
        if record.finalized:
            return record
        record.finalized = True
        self.store.put_if_generation(
            self.bucket, self._key(txn_id), record.to_json(),
            expected_generation=generation,
        )
        return record

    # -- reads ----------------------------------------------------------------

    def read(self, txn_id: str) -> tuple[TxnRecord, int]:
        """(record, object generation) for one transaction.

        Retried as a unit: the log is consulted by readers and recovery,
        which must survive the same storage transients chaos plans aim at
        data files. NotFoundError passes through (it is an answer, not a
        failure — see :meth:`status`)."""
        key = self._key(txn_id)

        def attempt() -> tuple[TxnRecord, int]:
            meta = self.store.head_object(self.bucket, key)
            data = self.store.get_object(self.bucket, key)
            return TxnRecord.from_json(data), meta.generation

        return self.store.ctx.with_retry("txn.log.read", attempt)

    def status(self, txn_id: str) -> tuple[str, float]:
        """(state, commit_ms) — what readers resolve tagged commits with.

        A txn id with no record (writer died before the intent PUT landed)
        reads as ABORTED: nothing tagged with it can ever become visible.
        """
        try:
            record, _ = self.read(txn_id)
        except NotFoundError:
            return ABORTED, 0.0
        return record.state, record.commit_ms

    def entries(self) -> list[TxnRecord]:
        """Every transaction record, ordered by txn id (deterministic).

        The listing and each record read retry *independently* — a sweep
        over N records must not re-roll the whole pass because one GET
        hiccuped, or recovery would get less reliable as the log grows."""
        ctx = self.store.ctx
        objects = ctx.with_retry(
            "txn.log.list",
            lambda: list(self.store.list_objects(self.bucket, prefix=f"{self.prefix}/")),
        )
        records = [
            ctx.with_retry(
                "txn.log.read",
                lambda key=obj.key: TxnRecord.from_json(
                    self.store.get_object(self.bucket, key)
                ),
            )
            for obj in objects
        ]
        return sorted(records, key=lambda r: r.txn_id)

    def dangling_intents(self) -> list[TxnRecord]:
        """Records still in INTENT (what recovery must clear)."""
        return [r for r in self.entries() if r.state == INTENT]
