"""Tests for the Write API: streams, exactly-once, transactions."""

import pytest

from repro import DataType, Principal, Schema, batch_from_pydict
from repro.core.blmt import BlmtManager
from repro.errors import AccessDeniedError, StorageApiError, StreamOffsetError
from repro.storageapi.write_api import WriteStreamKind

from tests.helpers import make_platform

SCHEMA = Schema.of(("k", DataType.INT64), ("v", DataType.STRING))


def rows(*ks):
    return batch_from_pydict(SCHEMA, {"k": list(ks), "v": [f"v{k}" for k in ks]})


@pytest.fixture
def env():
    platform, admin = make_platform()
    platform.catalog.create_dataset("ds")
    managed = platform.tables.create_managed_table("ds", "t", SCHEMA)
    return platform, admin, managed


@pytest.fixture
def blmt_env():
    platform, admin = make_platform()
    store = platform.stores.store_for("gcp/us-central1")
    store.create_bucket("cust")
    conn = platform.connections.create_connection("us.cust")
    platform.connections.grant_lake_access(conn, "cust", writable=True)
    from repro.security.iam import Role

    platform.iam.grant("connections/us.cust", Role.CONNECTION_USER, admin)
    platform.catalog.create_dataset("ds")
    table = platform.tables.create_blmt(admin, "ds", "t", SCHEMA, "cust", "tables/t", "us.cust")
    return platform, admin, table


class TestCommittedStreams:
    def test_append_and_flush_visible(self, env):
        platform, admin, table = env
        stream = platform.write_api.create_write_stream(admin, table)
        platform.write_api.append_rows(stream, rows(1, 2))
        platform.write_api.flush(stream)
        assert platform.managed.row_count(table.table_id) == 2

    def test_auto_flush_at_threshold(self, env):
        platform, admin, table = env
        platform.write_api.committed_flush_rows = 3
        stream = platform.write_api.create_write_stream(admin, table)
        platform.write_api.append_rows(stream, rows(1, 2))
        assert platform.managed.row_count(table.table_id) == 0
        platform.write_api.append_rows(stream, rows(3))
        assert platform.managed.row_count(table.table_id) == 3

    def test_finalize_flushes_and_seals(self, env):
        platform, admin, table = env
        stream = platform.write_api.create_write_stream(admin, table)
        platform.write_api.append_rows(stream, rows(1))
        total = platform.write_api.finalize(stream)
        assert total == 1
        with pytest.raises(StorageApiError):
            platform.write_api.append_rows(stream, rows(2))


class TestExactlyOnce:
    def test_duplicate_retry_acked_not_applied(self, env):
        platform, admin, table = env
        stream = platform.write_api.create_write_stream(admin, table)
        platform.write_api.append_rows(stream, rows(1, 2), offset=0)
        result = platform.write_api.append_rows(stream, rows(1, 2), offset=0)
        assert result.duplicate
        platform.write_api.flush(stream)
        assert platform.managed.row_count(table.table_id) == 2

    def test_gap_rejected(self, env):
        platform, admin, table = env
        stream = platform.write_api.create_write_stream(admin, table)
        with pytest.raises(StreamOffsetError):
            platform.write_api.append_rows(stream, rows(1), offset=5)

    def test_sequenced_appends(self, env):
        platform, admin, table = env
        stream = platform.write_api.create_write_stream(admin, table)
        platform.write_api.append_rows(stream, rows(1, 2), offset=0)
        platform.write_api.append_rows(stream, rows(3), offset=2)
        platform.write_api.flush(stream)
        assert platform.managed.row_count(table.table_id) == 3


class TestPendingAndTransactions:
    def test_pending_invisible_until_commit(self, env):
        platform, admin, table = env
        stream = platform.write_api.create_write_stream(
            admin, table, kind=WriteStreamKind.PENDING
        )
        platform.write_api.append_rows(stream, rows(1, 2, 3))
        assert platform.managed.row_count(table.table_id) == 0
        platform.write_api.finalize(stream)
        committed = platform.write_api.batch_commit([stream])
        assert committed == 3
        assert platform.managed.row_count(table.table_id) == 3

    def test_unfinalized_stream_rejected(self, env):
        platform, admin, table = env
        stream = platform.write_api.create_write_stream(
            admin, table, kind=WriteStreamKind.PENDING
        )
        with pytest.raises(StorageApiError):
            platform.write_api.batch_commit([stream])

    def test_double_commit_rejected(self, env):
        platform, admin, table = env
        stream = platform.write_api.create_write_stream(
            admin, table, kind=WriteStreamKind.PENDING
        )
        platform.write_api.append_rows(stream, rows(1))
        platform.write_api.finalize(stream)
        platform.write_api.batch_commit([stream])
        with pytest.raises(StorageApiError):
            platform.write_api.batch_commit([stream])

    def test_cross_stream_transaction_blmt(self, blmt_env):
        """Two pending streams into a BLMT commit at one point (§2.2.2)."""
        platform, admin, table = blmt_env
        s1 = platform.write_api.create_write_stream(admin, table, kind=WriteStreamKind.PENDING)
        s2 = platform.write_api.create_write_stream(admin, table, kind=WriteStreamKind.PENDING)
        platform.write_api.append_rows(s1, rows(1, 2))
        platform.write_api.append_rows(s2, rows(3))
        platform.write_api.finalize(s1)
        platform.write_api.finalize(s2)
        platform.write_api.batch_commit([s1, s2])
        history = platform.bigmeta.history(table.table_id)
        assert len(history) == 1  # single atomic commit
        result = platform.home_engine.execute("SELECT COUNT(*) FROM ds.t", admin)
        assert result.single_value() == 3


class TestAuthorizationAndTargets:
    def test_write_requires_permission(self, env):
        platform, _, table = env
        stranger = Principal.user("stranger")
        with pytest.raises(AccessDeniedError):
            platform.write_api.create_write_stream(stranger, table)

    def test_biglake_external_tables_not_writable(self):
        platform, admin = make_platform()
        from tests.helpers import setup_sales_lake

        table, _ = setup_sales_lake(platform, admin)
        with pytest.raises(StorageApiError):
            platform.write_api.create_write_stream(admin, table)

    def test_blmt_streaming_lands_in_bucket_and_bigmeta(self, blmt_env):
        platform, admin, table = blmt_env
        stream = platform.write_api.create_write_stream(admin, table)
        platform.write_api.append_rows(stream, rows(1, 2, 3, 4))
        platform.write_api.flush(stream)
        entries = platform.bigmeta.snapshot(table.table_id)
        assert len(entries) == 1
        store = platform.stores.store_for("gcp/us-central1")
        bucket, _, key = entries[0].file_path.partition("/")
        assert store.object_exists(bucket, key)

    @pytest.mark.parametrize("kind", list(WriteStreamKind), ids=lambda k: k.value)
    def test_clustered_blmt_files_are_laid_out_like_a_dml_insert(self, blmt_env, kind):
        """One writer for BLMT data files: a streamed file is sorted by the
        clustering key exactly as the same rows INSERTed would be."""
        platform, admin, _ = blmt_env
        clustered = platform.tables.create_blmt(
            admin, "ds", "c", SCHEMA, "cust", "tables/c", "us.cust",
            clustering_columns=["k"],
        )
        stream = platform.write_api.create_write_stream(admin, clustered, kind=kind)
        platform.write_api.append_rows(stream, rows(9, 0))
        platform.write_api.append_rows(stream, rows(5, 1))
        platform.write_api.finalize(stream)
        if kind is WriteStreamKind.PENDING:
            platform.write_api.batch_commit([stream])
        platform.tables.blmt.insert(clustered, [rows(9, 0), rows(5, 1)])
        store = platform.stores.store_for("gcp/us-central1")
        streamed, inserted = [
            stored_keys(store, entry) for entry in platform.bigmeta.snapshot(clustered.table_id)
        ]
        assert streamed == inserted == [0, 1, 5, 9]


def stored_keys(store, entry) -> list[int]:
    """Column ``k`` of one data file, in stored order."""
    return [
        k for batch in BlmtManager._read_file(store, entry)
        for k in batch.column("k").to_pylist()
    ]
