"""The version protocol, as a matrix: every path that changes what a table
holds must leave the caches that are "coherent by keying" coherent.

The plan, result and read-session-resolution caches never flush; they key
on ``TableInfo.version`` and rely on every data commit moving it. Each cell
below warms those caches (a ``use_query_cache=True`` query that must hit on
its second run, a ``reuse=True`` read session), changes the table through
one write path, and then checks the cached answer against an oracle that
shares nothing with the caches: the ``use_query_cache=False`` run and a
``reuse=False`` session *on the same platform*. No frozen values — a cell
fails only when a cached reader and an uncached reader disagree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

from repro import Cloud, DataType, MetadataCacheMode, Region, Role, Schema, batch_from_pydict
from repro.errors import NotFoundError
from repro.metastore.catalog import TableKind
from repro.omni.ccmv import CrossCloudMaterializedView
from repro.storageapi.fileutil import write_data_file
from repro.storageapi.write_api import WriteStreamKind

from tests.helpers import SALES_SCHEMA, make_platform, setup_sales_lake

AWS = Region(Cloud.AWS, "us-east-1")

SCHEMA = Schema.of(
    ("id", DataType.INT64), ("k", DataType.INT64), ("v", DataType.FLOAT64)
)
RESTRICTION = "id >= 2"  # prunes the files holding only ids 0 and 1


def rows(ids, v=1.0):
    return batch_from_pydict(
        SCHEMA, {"id": list(ids), "k": [i % 3 for i in ids], "v": [v] * len(ids)}
    )


@dataclass
class Cell:
    """One platform with a table at ``path`` and a pending change to it."""

    platform: object
    admin: object
    path: str  # dataset.table
    change: Callable[[], None]
    sql: str = ""
    restriction: str = RESTRICTION
    changes_rows: bool = True  # False: the change moves files, not rows
    exists_before: bool = True  # False: the change creates the table

    def __post_init__(self):
        self.sql = self.sql or f"SELECT COUNT(*) AS n, SUM(v) AS s FROM {self.path}"

    def table(self):
        # Fresh from the catalog: CREATE OR REPLACE installs a new entry.
        return self.platform.catalog.get_table(*self.path.split("."))

    def query(self, cached: bool):
        return self.platform.home_engine.execute(
            self.sql, self.admin, use_query_cache=cached
        )

    def session(self, reuse: bool):
        return self.platform.read_api.create_read_session(
            self.admin, self.table(), row_restriction=self.restriction, reuse=reuse
        )


def session_files(session) -> list[str]:
    return sorted(f.file_path for stream in session.streams for f in stream.files)


def session_rows(platform, session) -> list[tuple]:
    out = []
    for index in range(len(session.streams)):
        for batch in platform.read_api.read_rows(session, index):
            out.extend(batch.iter_rows())
    return sorted(out)


def check(cell: Cell) -> None:
    """Warm, change, compare cached readers with uncached ones."""
    before = None
    if cell.exists_before:
        cell.query(cached=True)
        warm = cell.query(cached=True)
        assert warm.stats.cache_hit is True, "the cell never cached anything"
        before = warm.rows()
        cell.session(reuse=True)
        if cell.table().kind is not TableKind.MANAGED:
            assert cell.session(reuse=True).stats.served_from_session_cache
    else:
        with pytest.raises(NotFoundError):
            cell.query(cached=True)

    cell.change()

    expected = cell.query(cached=False).rows()
    if cell.changes_rows:
        assert expected != before, "the change is invisible even to an uncached reader"
    assert cell.query(cached=True).rows() == expected
    # ... and once more: whatever the first cached run admitted is right too.
    assert cell.query(cached=True).rows() == expected

    fresh, reused = cell.session(reuse=False), cell.session(reuse=True)
    assert session_files(reused) == session_files(fresh)
    assert session_rows(cell.platform, reused) == session_rows(cell.platform, fresh)
    if cell.table().kind is TableKind.BLMT:
        live = cell.platform.bigmeta.snapshot(cell.table().table_id)
        unrestricted = cell.platform.read_api.create_read_session(
            cell.admin, cell.table(), reuse=True
        )
        assert session_files(unrestricted) == sorted(e.file_path for e in live)


# -- builders -----------------------------------------------------------------


def managed_env():
    platform, admin = make_platform()
    platform.catalog.create_dataset("ds")
    for name, ids in (("t", range(6)), ("src", range(4, 9))):
        table = platform.tables.create_managed_table("ds", name, SCHEMA)
        platform.managed.append(table.table_id, rows(ids, v=2.0 if name == "src" else 1.0))
    return platform, admin


def blmt_env():
    platform, admin = make_platform()
    platform.catalog.create_dataset("ds")
    store = platform.stores.store_for(platform.config.home_region.location)
    store.create_bucket("cust")
    conn = platform.connections.create_connection("us.cust")
    platform.connections.grant_lake_access(conn, "cust", writable=True)
    platform.iam.grant("connections/us.cust", Role.CONNECTION_USER, admin)
    for name in ("t", "other"):
        table = platform.tables.create_blmt(
            admin, "ds", name, SCHEMA, "cust", f"tables/{name}", "us.cust"
        )
        # Three small files; the first holds only ids RESTRICTION prunes.
        for ids in ((0, 1), (2, 3), (4, 5)):
            platform.tables.blmt.insert(table, [rows(ids)])
    src = platform.tables.create_managed_table("ds", "src", SCHEMA)
    platform.managed.append(src.table_id, rows(range(4, 9), v=2.0))
    return platform, admin


def sql_cell(env, statement: str, **kwargs) -> Cell:
    platform, admin = env
    return Cell(
        platform, admin, "ds.t",
        lambda: platform.home_engine.execute(statement, admin), **kwargs,
    )


MERGE = """
    MERGE INTO ds.t AS tgt USING ds.src AS src ON tgt.id = src.id
    WHEN MATCHED THEN UPDATE SET v = src.v
    WHEN NOT MATCHED THEN INSERT (id, k, v) VALUES (src.id, src.k, src.v)
"""
DML = {
    "insert_values": "INSERT INTO ds.t (id, k, v) VALUES (100, 1, 5.0)",
    "insert_select": "INSERT INTO ds.t SELECT id + 100, k, v FROM ds.src",
    "update": "UPDATE ds.t SET v = v + 10.0 WHERE id = 3",
    "delete": "DELETE FROM ds.t WHERE id = 3",
    "merge": MERGE,
}


# -- managed storage ----------------------------------------------------------


@pytest.mark.parametrize("statement", DML.values(), ids=DML.keys())
def test_managed_dml(statement):
    check(sql_cell(managed_env(), statement))


def test_managed_ctas():
    platform, admin = managed_env()
    check(Cell(
        platform, admin, "ds.made",
        lambda: platform.home_engine.execute(
            "CREATE TABLE ds.made AS SELECT id, k, v FROM ds.src", admin
        ),
        exists_before=False,
    ))


def test_managed_create_or_replace_as_select():
    """Probe (d): the replacement keeps the ``table_id``, so its version must
    continue the replaced entry's — a restart at 0 serves the replaced rows."""
    platform, admin = managed_env()
    platform.home_engine.execute("CREATE TABLE ds.made AS SELECT id, k, v FROM ds.t", admin)
    check(Cell(
        platform, admin, "ds.made",
        lambda: platform.home_engine.execute(
            "CREATE OR REPLACE TABLE ds.made AS SELECT id, k, v FROM ds.src", admin
        ),
    ))


def test_managed_replace_with_an_empty_result():
    platform, admin = managed_env()
    platform.home_engine.execute("CREATE TABLE ds.made AS SELECT id, k, v FROM ds.t", admin)
    check(Cell(
        platform, admin, "ds.made",
        lambda: platform.home_engine.execute(
            "CREATE OR REPLACE TABLE ds.made AS SELECT id, k, v FROM ds.src WHERE id < 0",
            admin,
        ),
    ))


# -- BLMT ---------------------------------------------------------------------


@pytest.mark.parametrize("statement", DML.values(), ids=DML.keys())
def test_blmt_dml(statement):
    check(sql_cell(blmt_env(), statement))


def test_blmt_optimize_storage():
    platform, admin = blmt_env()
    table = platform.catalog.get_table("ds", "t")

    def change():
        report = platform.tables.blmt.optimize_storage(table)
        assert report.files_compacted == 3

    check(Cell(platform, admin, "ds.t", change, changes_rows=False))


def test_blmt_transaction():
    """Probe (a): a ``BlmtTransaction`` commit owes the same epilogue as any
    other BLMT commit, once per staged table."""
    platform, admin = blmt_env()
    table = platform.catalog.get_table("ds", "t")
    other = platform.catalog.get_table("ds", "other")

    def change():
        txn = platform.tables.blmt.begin_transaction()
        txn.insert(table, rows((6, 7)))
        txn.insert(other, rows((8,)))
        txn.commit()

    check(Cell(platform, admin, "ds.t", change))


@pytest.mark.parametrize("path", ["ds.t", "ds.other"])
def test_blmt_multi_table_commit(path):
    platform, admin = blmt_env()

    def change():
        txn = platform.begin(admin)
        txn.execute("INSERT INTO ds.t (id, k, v) VALUES (50, 1, 7.0)")
        txn.execute("UPDATE ds.other SET v = v + 1.0 WHERE id = 2")
        txn.commit()

    check(Cell(platform, admin, path, change))


# -- Write API ----------------------------------------------------------------


def _write_api_cell(env, committed: bool) -> Cell:
    platform, admin = env
    api = platform.write_api

    def flush():
        stream = api.create_write_stream(admin, platform.catalog.get_table("ds", "t"))
        api.append_rows(stream, rows((20, 21)))
        api.flush(stream)

    def batch_commit():
        table = platform.catalog.get_table("ds", "t")
        streams = [
            api.create_write_stream(admin, table, kind=WriteStreamKind.PENDING)
            for _ in range(2)
        ]
        for n, stream in enumerate(streams):
            api.append_rows(stream, rows((30 + n,)))
            api.finalize(stream)
        assert api.batch_commit(streams) == 2

    return Cell(platform, admin, "ds.t", flush if committed else batch_commit)


@pytest.mark.parametrize("committed", [True, False], ids=["flush", "batch_commit"])
@pytest.mark.parametrize("env", [managed_env, blmt_env], ids=["managed", "blmt"])
def test_write_api(env, committed):
    check(_write_api_cell(env(), committed))


# -- BigLake: the metadata-cache refresh is the commit ------------------------


def _sales_cell(change_objects, refresh: str) -> Cell:
    platform, admin = make_platform()
    table, store = setup_sales_lake(platform, admin, files=6, rows_per_file=50)

    def change():
        change_objects(store)
        if refresh == "explicit":
            platform.read_api.refresh_metadata_cache(table)
        else:  # the next uncached reader finds the cache past its bound
            platform.ctx.clock.advance(table.cache_config.max_staleness_ms + 1)

    return Cell(
        platform, admin, "ds.sales", change,
        sql="SELECT COUNT(*) AS n, SUM(amount) AS s FROM ds.sales",
        restriction="order_id >= 50",  # prunes part-0000
    )


def _sales_file(store, key: str, order_ids, amount: float) -> None:
    write_data_file(
        store, "lake", key, SALES_SCHEMA,
        [batch_from_pydict(SALES_SCHEMA, {
            "order_id": list(order_ids),
            "region": ["us"] * len(order_ids),
            "amount": [amount] * len(order_ids),
            "year": [2023] * len(order_ids),
        })],
    )


OBJECT_CHANGES = {
    # probe (b): a refresh that finds a new object
    "added": lambda store: _sales_file(store, "sales/part-9999.pqs", [9999], 7.0),
    # same key, same row count: only generation and contents differ
    "overwritten": lambda store: _sales_file(
        store, "sales/part-0003.pqs", range(150, 200), 1000.0
    ),
    "deleted": lambda store: store.delete_object("lake", "sales/part-0002.pqs"),
}


@pytest.mark.parametrize("refresh", ["explicit", "stale"])
@pytest.mark.parametrize("change", OBJECT_CHANGES.values(), ids=OBJECT_CHANGES.keys())
def test_biglake_object_change_then_refresh(change, refresh):
    check(_sales_cell(change, refresh))


def test_first_population_keeps_the_populating_jobs_entry():
    """The other half of the refresh rule: the first population runs inside
    the first job that can cache anything, after its key was digested — a
    bump there would orphan that job's own entry."""
    platform, admin = make_platform()
    table, _ = setup_sales_lake(platform, admin)
    sql = "SELECT COUNT(*) FROM ds.sales"
    platform.home_engine.execute(sql, admin, use_query_cache=True)  # populates
    assert table.version == 0
    assert platform.home_engine.execute(sql, admin, use_query_cache=True).stats.cache_hit


# -- CCMV replica -------------------------------------------------------------


def test_ccmv_refresh():
    """Probe (c): the replica is a BigLake table whose only writer is
    ``CrossCloudMaterializedView.refresh``."""
    platform, admin = make_platform()
    platform.omni.deploy_region(AWS)
    s3 = platform.stores.store_for(AWS.location)
    s3.create_bucket("orders-s3")
    conn = platform.connections.create_connection("aws.orders")
    platform.connections.grant_lake_access(conn, "orders-s3")
    platform.iam.grant("connections/aws.orders", Role.CONNECTION_USER, admin)
    platform.catalog.create_dataset("aws")
    write_data_file(s3, "orders-s3", "orders/part-0.pqs", SCHEMA, [rows(range(40))])
    source = platform.tables.create_biglake_table(
        admin, "aws", "orders", SCHEMA, "orders-s3", "orders", "aws.orders",
        cache_mode=MetadataCacheMode.AUTOMATIC,
    )
    mv = CrossCloudMaterializedView(
        platform, "mv", "SELECT k, SUM(v) AS v, COUNT(*) AS id FROM aws.orders GROUP BY k",
        "k", platform.engine_in(AWS.location), admin,
    )
    mv.refresh()

    def change():
        write_data_file(s3, "orders-s3", "orders/part-1.pqs", SCHEMA, [rows((41, 44), v=500.0)])
        platform.read_api.refresh_metadata_cache(source)
        assert mv.refresh().partitions_changed == 1

    check(Cell(platform, admin, "ccmv.mv", change))


# -- keep the protocol from regrowing ------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

# The only functions that may store to an attribute named ``version``: one
# writer per storage, plus Big Metadata's own per-table log version.
VERSION_WRITERS = {
    "core/blmt.py:BlmtManager.committed",  # every BLMT commit's epilogue
    "core/tables.py:TableManager.append",  # managed storage, appends
    "core/tables.py:TableManager._mutate",  # managed storage, rewrites
    "storageapi/read_api.py:ReadApi.record_refresh",  # metadata-cache refresh
    "metastore/catalog.py:Catalog.create_table",  # CREATE OR REPLACE
    "metastore/bigmeta.py:BigMetadataService._apply_transaction",  # meta.version
}


def _functions(tree: ast.AST, prefix: str = ""):
    """``(qualified name, node)`` of every module-level function and every
    method; a nested function counts as part of its owner."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}{node.name}", node


# The write side's only ways into the Big Metadata log.
LOG_WRITERS = {
    "core/blmt.py:BlmtManager.publish",
    "core/blmt.py:BlmtManager.begin_transaction",
    "txn/coordinator.py:Transaction.commit",  # the tagged, marker-gated publish
}
WRITE_SIDE = ("core/", "txn/", "storageapi/write_api.py")


def _scan_sources() -> tuple[set[str], list[str], set[str]]:
    """The functions of ``src/repro`` that store ``.version``, the callers
    of ``_maybe_auto_export`` (one entry per call), and the write-side
    callers of ``bigmeta.commit`` / ``bigmeta.begin``."""
    writers, export_callers, log_writers = set(), [], set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        rel = path.relative_to(SRC).as_posix()
        unowned = sum(map(_stores_version, ast.walk(tree)))
        for name, func in _functions(tree):
            for node in ast.walk(func):
                if _stores_version(node):
                    unowned -= 1
                    writers.add(f"{rel}:{name}")
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "_maybe_auto_export"
                ):
                    export_callers.append(f"{rel}:{name}")
                if rel.startswith(WRITE_SIDE) and _calls_bigmeta_log(node):
                    log_writers.add(f"{rel}:{name}")
        if unowned:
            writers.add(f"{rel}:<module or class body>")
    return writers, export_callers, log_writers


def _calls_bigmeta_log(node: ast.AST) -> bool:
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    owner = node.func.value
    owner_name = getattr(owner, "attr", None) or getattr(owner, "id", None)
    return node.func.attr in ("commit", "begin") and owner_name == "bigmeta"


def _stores_version(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "version" and isinstance(node.ctx, (ast.Store, ast.Del))
    return (  # setattr(x, "version", …) would be the same store in disguise
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "setattr"
        and len(node.args) >= 2
        and isinstance(node.args[1], ast.Constant)
        and node.args[1].value == "version"
    )


def test_a_version_has_one_writer_per_storage():
    writers, export_callers, log_writers = _scan_sources()
    stray = writers - VERSION_WRITERS
    assert not stray, (
        f"new writers of `.version`: {sorted(stray)} — route the change through the "
        "storage's commit point (BlmtManager.publish / TableManager.append / ._mutate / "
        "ReadApi.record_refresh) instead of bumping by hand"
    )
    missing = VERSION_WRITERS - writers
    assert not missing, f"allow-listed writers that no longer write: {sorted(missing)}"
    assert export_callers == ["core/blmt.py:BlmtManager.committed"]
    assert log_writers == LOG_WRITERS
