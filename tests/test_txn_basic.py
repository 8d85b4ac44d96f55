"""Multi-table transaction basics: atomic visibility, snapshot isolation,
marker-time as-of reads, and the INFORMATION_SCHEMA surfaces (JOBS
``transaction_id``/``error_code``, the TRANSACTIONS table)."""

import pytest

from repro.data import DataType, Schema
from repro.errors import (
    CorruptTxnRecordError,
    QueryError,
    ReproError,
    TransactionAbortedError,
    TransactionConflictError,
    UnavailableError,
    error_code,
    is_retryable,
)
from repro.faults import FaultSpec
from repro.security.iam import Role
from repro.txn.log import TableCommit, TxnRecord
from repro.txn.workload import build_txn_platform, check_invariant


@pytest.fixture
def env():
    platform, admin = build_txn_platform(orders=3)
    return platform, admin


def commit_one(platform, principal, order_id=1, amount=5.0, item_id=901):
    txn = platform.begin(principal)
    txn.execute(
        "INSERT INTO txn.lineitems (order_id, item_id, amount) "
        f"VALUES ({order_id}, {item_id}, {amount})"
    )
    txn.execute(
        f"UPDATE txn.orders SET total = total + {amount} WHERE order_id = {order_id}"
    )
    return txn, txn.commit()


def order_total(platform, admin, order_id, snapshot_ms=None):
    rows = platform.home_engine.execute(
        f"SELECT total FROM txn.orders WHERE order_id = {order_id}",
        admin, snapshot_ms=snapshot_ms,
    ).rows()
    assert len(rows) == 1
    return rows[0][0]


class TestAtomicVisibility:
    def test_nothing_visible_before_commit(self, env):
        platform, admin = env
        txn = platform.begin(admin)
        txn.execute(
            "INSERT INTO txn.lineitems (order_id, item_id, amount) VALUES (1, 901, 5.0)"
        )
        txn.execute("UPDATE txn.orders SET total = total + 5.0 WHERE order_id = 1")
        # An outside reader sees the pre-transaction state of BOTH tables.
        assert order_total(platform, admin, 1) == 3.0
        items = platform.home_engine.execute(
            "SELECT COUNT(*) AS n FROM txn.lineitems WHERE item_id = 901", admin
        ).rows()
        assert items[0][0] == 0
        assert check_invariant(platform, admin) == []

    def test_both_tables_flip_at_commit(self, env):
        platform, admin = env
        _, commit_ms = commit_one(platform, admin, order_id=1, amount=5.0)
        assert order_total(platform, admin, 1) == 8.0
        items = platform.home_engine.execute(
            "SELECT SUM(amount) AS s FROM txn.lineitems WHERE order_id = 1", admin
        ).rows()
        assert items[0][0] == 8.0
        assert check_invariant(platform, admin) == []
        assert commit_ms > 0

    def test_as_of_marker_time(self, env):
        platform, admin = env
        _, commit_ms = commit_one(platform, admin, order_id=2, amount=7.0)
        # Just before the marker: old world, still internally consistent.
        assert order_total(platform, admin, 2, snapshot_ms=commit_ms - 0.001) == 6.0
        assert check_invariant(platform, admin, snapshot_ms=commit_ms - 0.001) == []
        # At the marker: the whole transaction, atomically.
        assert order_total(platform, admin, 2, snapshot_ms=commit_ms) == 13.0
        assert check_invariant(platform, admin, snapshot_ms=commit_ms) == []

    def test_snapshot_isolation_for_open_reader(self, env):
        platform, admin = env
        reader = platform.begin(admin)
        before = reader.execute(
            "SELECT total FROM txn.orders WHERE order_id = 1"
        ).rows()
        commit_one(platform, admin, order_id=1, amount=5.0)
        after = reader.execute(
            "SELECT total FROM txn.orders WHERE order_id = 1"
        ).rows()
        # The reader's snapshot is pinned at its begin time.
        assert before == after == [(3.0,)]
        assert order_total(platform, admin, 1) == 8.0

    def test_no_read_your_own_writes(self, env):
        platform, admin = env
        txn = platform.begin(admin)
        txn.execute("UPDATE txn.orders SET total = total + 5.0 WHERE order_id = 1")
        # Buffered writes stay invisible until the marker lands (documented).
        rows = txn.execute("SELECT total FROM txn.orders WHERE order_id = 1").rows()
        assert rows == [(3.0,)]

    def test_abort_leaves_no_trace(self, env):
        platform, admin = env
        txn = platform.begin(admin)
        txn.execute("UPDATE txn.orders SET total = total + 99.0 WHERE order_id = 1")
        txn.abort()
        assert order_total(platform, admin, 1) == 3.0
        assert check_invariant(platform, admin) == []
        with pytest.raises(TransactionAbortedError):
            txn.commit()

    def test_managed_tables_rejected_in_txn(self, env):
        platform, admin = env
        platform.tables.create_managed_table(
            "txn", "m", Schema.of(("x", DataType.INT64))
        )
        txn = platform.begin(admin)
        with pytest.raises(QueryError, match="managed"):
            txn.execute("INSERT INTO txn.m (x) VALUES (1)")

    @pytest.mark.parametrize("statement", [
        "UPDATE txn.m SET x = x + 10",
        "DELETE FROM txn.m WHERE x = 1",
        # MERGE rewrites through the same seam, so the guard covers it: without
        # it the matched arms apply in place and survive abort().
        "MERGE INTO txn.m AS t USING txn.src AS s ON t.x = s.x "
        "WHEN MATCHED THEN DELETE WHEN NOT MATCHED THEN INSERT (x) VALUES (s.x)",
    ], ids=["update", "delete", "merge"])
    def test_managed_rewrites_rejected_alike_and_abort_leaves_no_trace(self, env, statement):
        platform, admin = env
        for name, values in (("m", "(1), (2)"), ("src", "(2), (3)")):
            platform.tables.create_managed_table("txn", name, Schema.of(("x", DataType.INT64)))
            platform.home_engine.execute(f"INSERT INTO txn.{name} (x) VALUES {values}", admin)
        table = platform.catalog.get_table("txn", "m")
        version = table.version
        txn = platform.begin(admin)
        with pytest.raises(QueryError, match="cannot write managed table .*txn.m inside"):
            txn.execute(statement)
        txn.abort()
        rows = platform.home_engine.execute("SELECT x FROM txn.m ORDER BY x", admin).rows()
        assert rows == [(1,), (2,)]
        assert table.version == version

    @pytest.mark.parametrize("replace", [False, True], ids=["create", "create_or_replace"])
    def test_ctas_rejected_before_anything_is_created_or_replaced(self, env, replace):
        platform, admin = env
        if replace:
            platform.home_engine.execute("CREATE TABLE txn.made AS SELECT 1 AS x", admin)
            entry = platform.catalog.get_table("txn", "made")
        jobs = len(platform.jobs())
        txn = platform.begin(admin)
        with pytest.raises(QueryError, match="managed"):
            txn.execute(
                f"CREATE {'OR REPLACE ' if replace else ''}TABLE txn.made AS "
                "SELECT order_id AS x FROM txn.orders"
            )
        txn.abort()
        assert len(platform.jobs()) == jobs + 1  # rejected before the inner SELECT ran
        if replace:
            assert platform.catalog.get_table("txn", "made") is entry
            rows = platform.home_engine.execute("SELECT x FROM txn.made", admin).rows()
            assert rows == [(1,)]
        else:
            assert [t.name for t in platform.catalog.list_tables("txn")] == ["orders", "lineitems"]
            assert not platform.managed.exists(f"{platform.config.project}.txn.made")


class TestErrorCodes:
    def test_stable_codes(self):
        from repro.errors import (
            CommitRetryExhaustedError,
            WriterCrashError,
        )

        assert error_code(TransactionConflictError("x")) == "TXN_CONFLICT"
        assert error_code(TransactionAbortedError("x")) == "TXN_ABORTED"
        assert error_code(CommitRetryExhaustedError("x")) == "COMMIT_RETRY_EXHAUSTED"
        assert error_code(WriterCrashError("x")) == "WRITER_CRASHED"
        assert error_code(UnavailableError("x")) == "RETRY_BUDGET_EXHAUSTED"
        assert error_code(None) == ""

    def test_jobs_records_retry_budget_exhaustion(self, env):
        platform, admin = env
        platform.ctx.faults.add(
            FaultSpec(op="objectstore.get", error="UnavailableError", count=100)
        )
        with pytest.raises(UnavailableError):
            platform.home_engine.execute("SELECT * FROM txn.orders", admin)
        platform.ctx.faults.clear()
        rows = platform.home_engine.execute(
            "SELECT job_id, state, error_code FROM INFORMATION_SCHEMA.JOBS "
            "WHERE state = 'FAILED'",
            admin,
        ).rows()
        assert rows, "the failed query must land in JOBS"
        assert all(code == "RETRY_BUDGET_EXHAUSTED" for _, _, code in rows)


class TestLogRecordDecoding:
    """A txn-log object is bytes from a durability boundary: whatever a torn
    write or a flipped bit leaves there decodes to a record or raises a
    typed, non-transient error — never a raw json / KeyError traceback."""

    SAMPLE = TxnRecord(
        txn_id="txn_000007", state="COMMITTED", writer="user:admin",
        begin_ms=12.5, commit_ms=40.25, finalized=True,
        tables=[
            TableCommit("p.txn.orders", "blmt", 3, ["b/o/f1.pqs"], ["b/o/f0.pqs"]),
            TableCommit("p.txn.lineitems", "iceberg", 9, ["b/l/f2.pqs"], []),
        ],
    ).to_json()

    @staticmethod
    def decode(data: bytes):
        try:
            return TxnRecord.from_json(data)
        except ReproError as exc:
            assert not is_retryable(exc)
            return exc

    def test_round_trip(self):
        assert TxnRecord.from_json(self.SAMPLE).to_json() == self.SAMPLE

    def test_every_truncation_is_typed(self):
        for cut in range(len(self.SAMPLE)):
            assert isinstance(self.decode(self.SAMPLE[:cut]), CorruptTxnRecordError)

    def test_every_bit_flip_decodes_or_is_typed(self):
        typed = 0
        for offset in range(len(self.SAMPLE)):
            for bit in range(8):
                flipped = bytearray(self.SAMPLE)
                flipped[offset] ^= 1 << bit
                typed += isinstance(self.decode(bytes(flipped)), CorruptTxnRecordError)
        assert typed > len(self.SAMPLE)  # most flips break the document

    def test_missing_or_mistyped_fields_are_typed(self):
        for doc in (b"[]", b"7", b'{"txn_id": "t"}', b'{"tables": 3}'):
            assert isinstance(self.decode(doc), CorruptTxnRecordError)
        with pytest.raises(CorruptTxnRecordError):
            TableCommit.from_dict({"table_id": "t", "added": 5})

    def test_log_read_does_not_retry_a_corrupt_record(self, env):
        platform, admin = env
        commit_one(platform, admin)
        log = platform.txn.log
        (obj,) = list(log.store.list_objects(log.bucket, prefix=f"{log.prefix}/"))
        log.store.put_object(log.bucket, obj.key, b'{"txn_id": ')
        retries = platform.ctx.metering.snapshot().op_counts.get("repro.retry", 0)
        with pytest.raises(CorruptTxnRecordError):
            log.entries()
        assert platform.ctx.metering.snapshot().op_counts.get("repro.retry", 0) == retries


class TestSystemTables:
    def test_jobs_stamps_transaction_id(self, env):
        platform, admin = env
        txn = platform.begin(admin)
        txn.execute("UPDATE txn.orders SET total = total + 1.0 WHERE order_id = 1")
        txn.commit()
        rows = platform.home_engine.execute(
            "SELECT transaction_id, sql FROM INFORMATION_SCHEMA.JOBS", admin
        ).rows()
        in_txn = [sql for txn_id, sql in rows if txn_id == txn.txn_id]
        assert any("UPDATE txn.orders" in sql for sql in in_txn)
        # Statements outside any transaction carry no id.
        outside = [txn_id for txn_id, sql in rows if "INFORMATION_SCHEMA" in sql]
        assert all(txn_id == "" for txn_id in outside)

    def test_transactions_table_rows(self, env):
        platform, admin = env
        txn, commit_ms = commit_one(platform, admin, order_id=1, amount=2.0)
        rows = platform.home_engine.execute(
            "SELECT transaction_id, state, writer, commit_ms, finalized, "
            "table_count, tables FROM INFORMATION_SCHEMA.TRANSACTIONS",
            admin,
        ).rows()
        byid = {r[0]: r for r in rows}
        assert txn.txn_id in byid
        _, state, writer, ms, finalized, count, tables = byid[txn.txn_id]
        assert state == "COMMITTED"
        assert writer == str(admin)
        assert ms == commit_ms
        assert finalized is True
        assert count == 2
        assert "txn.lineitems" in tables and "txn.orders" in tables

    def test_transactions_table_scoped_to_writer(self, env):
        platform, admin = env
        writer = platform.create_user(
            "bob", [Role.DATA_EDITOR, Role.JOB_USER, Role.CONNECTION_USER]
        )
        commit_one(platform, admin, order_id=1, amount=2.0, item_id=901)
        txn_bob, _ = commit_one(platform, writer, order_id=2, amount=3.0, item_id=902)
        mine = platform.home_engine.execute(
            "SELECT transaction_id, writer FROM INFORMATION_SCHEMA.TRANSACTIONS",
            writer,
        ).rows()
        assert [r[0] for r in mine] == [txn_bob.txn_id]
        everyone = platform.home_engine.execute(
            "SELECT transaction_id FROM INFORMATION_SCHEMA.TRANSACTIONS", admin
        ).rows()
        assert len(everyone) == 2
