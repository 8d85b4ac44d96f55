"""Tests for the §3.4/§3.5 future-work features, implemented here:
ReadRows wire encoding, read-session reuse, aggregate pushdown, and
automatic Iceberg snapshot export on BLMT commits."""

import pytest

from repro import DataType, Schema, batch_from_pydict
from repro.engine.plan import AggregateNode, ScanNode
from repro.security.iam import Role
from repro.storageapi import wire
from repro.tableformats import IcebergTable

from tests.helpers import make_platform, setup_sales_lake


@pytest.fixture
def env():
    platform, admin = make_platform()
    table, store = setup_sales_lake(platform, admin, files=4, rows_per_file=500)
    platform.read_api.create_read_session(admin, table)  # prime cache
    return platform, admin, table, store


class TestWireEncoding:
    def test_round_trip(self, sales_schema, sales_batch):
        out = wire.decode_batch(wire.encode_batch(sales_batch))
        assert out.to_pydict() == sales_batch.to_pydict()

    def test_bad_magic_rejected(self):
        from repro.errors import StorageApiError

        with pytest.raises(StorageApiError):
            wire.decode_batch(b"NOPE....")

    def test_low_cardinality_compresses(self):
        schema = Schema.of(("k", DataType.STRING), ("v", DataType.INT64))
        batch = batch_from_pydict(
            schema,
            {"k": ["red", "green"] * 2000, "v": sorted([1, 2, 3, 4] * 1000)},
        )
        encoded = wire.encode_batch(batch)
        assert len(encoded) < wire.plain_size(batch) / 3

    def test_session_accounts_wire_bytes(self, env):
        platform, admin, table, _ = env
        session = platform.read_api.create_read_session(
            admin, table, wire_format="encoded"
        )
        for i in range(len(session.streams)):
            for _ in platform.read_api.read_rows(session, i):
                pass
        assert session.stats.wire_bytes_encoded > 0
        assert session.stats.wire_bytes_encoded < session.stats.wire_bytes_plain

    def test_encoded_wire_costs_less_time_than_plain(self, env):
        platform, admin, table, _ = env

        def drain(fmt):
            session = platform.read_api.create_read_session(
                admin, table, wire_format=fmt
            )
            t0 = platform.ctx.clock.now_ms
            for i in range(len(session.streams)):
                for _ in platform.read_api.read_rows(session, i):
                    pass
            return platform.ctx.clock.now_ms - t0

        plain_ms = drain("arrow")
        encoded_ms = drain("encoded")
        assert encoded_ms < plain_ms

    def test_no_accounting_by_default(self, env):
        platform, admin, table, _ = env
        session = platform.read_api.create_read_session(admin, table)
        for i in range(len(session.streams)):
            for _ in platform.read_api.read_rows(session, i):
                pass
        assert session.stats.wire_bytes_plain == 0


class TestSessionReuse:
    def test_identical_session_served_from_cache(self, env):
        platform, admin, table, _ = env
        first = platform.read_api.create_read_session(
            admin, table, row_restriction="year = 2023", reuse=True
        )
        before = platform.ctx.metering.snapshot()
        second = platform.read_api.create_read_session(
            admin, table, row_restriction="year = 2023", reuse=True
        )
        delta = platform.ctx.metering.delta_since(before)
        assert second.stats.served_from_session_cache
        assert not first.stats.served_from_session_cache
        assert delta.op_counts.get("bigmeta.prune", 0) == 0
        assert second.stats.files_after_pruning == first.stats.files_after_pruning

    def test_cache_keyed_by_restriction(self, env):
        platform, admin, table, _ = env
        platform.read_api.create_read_session(
            admin, table, row_restriction="year = 2023", reuse=True
        )
        other = platform.read_api.create_read_session(
            admin, table, row_restriction="year = 2022", reuse=True
        )
        assert not other.stats.served_from_session_cache

    def test_table_change_invalidates_cache(self, env):
        platform, admin, table, store = env
        platform.read_api.create_read_session(admin, table, reuse=True)
        table.version += 1  # any committed change bumps the version
        fresh = platform.read_api.create_read_session(admin, table, reuse=True)
        assert not fresh.stats.served_from_session_cache

    def test_reused_session_returns_same_rows(self, env):
        platform, admin, table, _ = env

        def collect(session):
            rows = []
            for i in range(len(session.streams)):
                for batch in platform.read_api.read_rows(session, i):
                    rows.extend(batch.iter_rows())
            return sorted(rows)

        a = platform.read_api.create_read_session(admin, table, reuse=True)
        b = platform.read_api.create_read_session(admin, table, reuse=True)
        assert collect(a) == collect(b)


class TestAggregatePushdown:
    def _plan(self, platform, sql):
        from repro.sql.parser import parse_statement

        return platform.home_engine.plan(parse_statement(sql))

    def test_plan_pushes_global_aggregates(self, env):
        platform, admin, table, _ = env
        plan = self._plan(
            platform, "SELECT COUNT(*), SUM(amount), MIN(amount), MAX(order_id) FROM ds.sales"
        )
        scans = _find_scans(plan)
        assert len(scans) == 1 and scans[0].pushed_aggregates
        funcs = [f for f, _, _ in scans[0].pushed_aggregates]
        assert funcs == ["COUNT", "SUM", "MIN", "MAX"]

    def test_results_match_unpushed(self, env):
        platform, admin, table, _ = env
        sql = "SELECT COUNT(*), COUNT(amount), SUM(amount), MIN(order_id), MAX(amount) FROM ds.sales WHERE year = 2023"
        pushed = platform.home_engine.execute(sql, admin).rows()
        platform.home_engine.enable_aggregate_pushdown = False
        try:
            plain = platform.home_engine.execute(sql, admin).rows()
        finally:
            platform.home_engine.enable_aggregate_pushdown = True
        assert pushed == plain

    def test_rows_returned_shrinks(self, env):
        platform, admin, table, _ = env
        result = platform.home_engine.execute("SELECT SUM(amount) FROM ds.sales", admin)
        # One partial row per stream instead of 2000 data rows.
        assert result.stats.rows_scanned == 2000
        assert result.num_rows == 1

    def test_avg_not_pushed(self, env):
        platform, admin, table, _ = env
        plan = self._plan(platform, "SELECT AVG(amount) FROM ds.sales")
        assert not _find_scans(plan)[0].pushed_aggregates
        assert platform.home_engine.execute(
            "SELECT AVG(amount) FROM ds.sales", admin
        ).single_value() == pytest.approx(250.5)

    def test_group_by_not_pushed(self, env):
        platform, admin, table, _ = env
        plan = self._plan(platform, "SELECT region, COUNT(*) FROM ds.sales GROUP BY region")
        assert not _find_scans(plan)[0].pushed_aggregates

    def test_distinct_not_pushed(self, env):
        platform, admin, table, _ = env
        plan = self._plan(platform, "SELECT COUNT(DISTINCT region) FROM ds.sales")
        assert not _find_scans(plan)[0].pushed_aggregates

    def test_pushdown_respects_governance(self, env):
        """Partial aggregates are computed AFTER security filtering."""
        from repro.security import RowAccessPolicy

        platform, admin, table, _ = env
        analyst = platform.create_user("agg_user", [Role.DATA_VIEWER, Role.JOB_USER])
        table.policies.add_row_policy(
            RowAccessPolicy("eu", "region = 'eu'", frozenset({analyst}))
        )
        governed = platform.home_engine.execute("SELECT COUNT(*) FROM ds.sales", analyst)
        # 2000 rows total; the analyst's policy admits only the 'eu' third.
        assert 0 < governed.single_value() < 2000

    def test_empty_result_semantics(self, env):
        platform, admin, table, _ = env
        result = platform.home_engine.execute(
            "SELECT COUNT(*), SUM(amount) FROM ds.sales WHERE order_id > 99999", admin
        )
        assert result.rows() == [(0, None)]


class TestAutoIcebergExport:
    def test_every_commit_refreshes_snapshot(self):
        platform, admin = make_platform()
        platform.catalog.create_dataset("ds")
        store = platform.stores.store_for("gcp/us-central1")
        store.create_bucket("cust")
        conn = platform.connections.create_connection("us.cust")
        platform.connections.grant_lake_access(conn, "cust", writable=True)
        platform.iam.grant("connections/us.cust", Role.CONNECTION_USER, admin)
        schema = Schema.of(("k", DataType.INT64))
        table = platform.tables.create_blmt(
            admin, "ds", "t", schema, "cust", "t", "us.cust",
            auto_iceberg_snapshots=True,
        )
        platform.tables.blmt.insert(table, [batch_from_pydict(schema, {"k": [1]})])
        reader = IcebergTable(store, "cust", "t/iceberg")
        assert len(reader.scan()) == 1
        platform.home_engine.execute("INSERT INTO ds.t (k) VALUES (2)", admin)
        assert len(reader.scan()) == 2
        platform.home_engine.execute("DELETE FROM ds.t WHERE k = 1", admin)
        files = reader.scan()
        assert sum(f.record_count for f in files) == 1
        # Every commit means every publisher: the export rides the one BLMT
        # commit epilogue, so the Write API, a BlmtTransaction, a
        # multi-table transaction and compaction all owe it too.
        stream = platform.write_api.create_write_stream(admin, table)
        platform.write_api.append_rows(stream, batch_from_pydict(schema, {"k": [3, 4]}))
        platform.write_api.flush(stream)
        assert sum(f.record_count for f in reader.scan()) == 3
        blmt_txn = platform.tables.blmt.begin_transaction()
        blmt_txn.insert(table, batch_from_pydict(schema, {"k": [5]}))
        blmt_txn.commit()
        assert sum(f.record_count for f in reader.scan()) == 4
        txn = platform.begin(admin)
        txn.execute("INSERT INTO ds.t (k) VALUES (6)")
        assert sum(f.record_count for f in reader.scan()) == 4  # not before the marker
        txn.commit()
        assert sum(f.record_count for f in reader.scan()) == 5
        assert platform.tables.blmt.optimize_storage(table).files_compacted == 4
        assert {f.path for f in reader.scan()} == {
            e.file_path for e in platform.bigmeta.snapshot(table.table_id)
        }

    def test_disabled_by_default(self):
        platform, admin = make_platform()
        platform.catalog.create_dataset("ds")
        store = platform.stores.store_for("gcp/us-central1")
        store.create_bucket("cust")
        conn = platform.connections.create_connection("us.cust")
        platform.connections.grant_lake_access(conn, "cust", writable=True)
        platform.iam.grant("connections/us.cust", Role.CONNECTION_USER, admin)
        schema = Schema.of(("k", DataType.INT64))
        table = platform.tables.create_blmt(admin, "ds", "t", schema, "cust", "t", "us.cust")
        platform.tables.blmt.insert(table, [batch_from_pydict(schema, {"k": [1]})])
        assert not store.object_exists("cust", "t/iceberg/metadata/version-hint.json")


def _find_scans(plan):
    scans = []

    def walk(node):
        if isinstance(node, ScanNode):
            scans.append(node)
        for child in node.children():
            walk(child)
        if isinstance(node, AggregateNode):
            pass

    walk(plan)
    return scans
