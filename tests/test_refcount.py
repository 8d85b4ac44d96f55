"""A dropped platform is freed by refcount, and a pass leaves no cyclic
garbage behind.

The perf ledger's ``adhoc_cold`` and ``txn_ingest`` rebuild their platforms
every pass; a platform held in reference cycles is 7.9 MiB that waits for a
gen-2 collection, so ``peak_rss_mib`` would follow the collector's cadence
rather than live memory. Pinned here with the collector off:

* each public builder's platform dies the moment its last name is dropped,
  after a suite statement through ``submit``/``drain`` and a Read API drain
  — for the transaction lake also a committed transaction, a conflict loser
  and one ``optimize_storage``;
* one ``adhoc_cold``-shaped pass (the 17 statements on fresh platforms)
  leaves no ``repro.*`` instance — and no ``repro`` function — for
  ``gc.collect()`` to find.
"""

from __future__ import annotations

import gc
import weakref
from contextlib import contextmanager
from types import FunctionType

import pytest

from repro.bench import build_tpcds_platform, build_tpch_platform
from repro.errors import TransactionConflictError
from repro.serving.workload import build_serving_platform, mixed_queries
from repro.storageapi import streams
from repro.txn.workload import build_txn_platform
from repro.workloads import tpcds_lite, tpch_lite

SCALE = 0.1


@contextmanager
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _exercise(platform, principal, sql, table) -> None:
    """One statement through the async jobs API and one governed drain."""
    job = platform.submit(sql, principal)
    platform.drain()
    assert job.result().rows()
    session = platform.read_api.create_read_session(principal, table, max_streams=4)
    report = streams.drain_session(platform.read_api, session.serialize(), rebalance=True)
    assert report.rows


def _tpch():
    platform, admin, _engine, queries = build_tpch_platform(scale=SCALE)
    _exercise(platform, admin, queries["q05"], platform.catalog.get_table("tpch", "lineitem"))
    return weakref.ref(platform)


def _tpcds():
    platform, admin, _engine, queries = build_tpcds_platform(scale=SCALE)
    _exercise(
        platform, admin, queries["q_cust"], platform.catalog.get_table("tpcds", "store_sales")
    )
    return weakref.ref(platform)


def _serving():
    platform, _admin, users = build_serving_platform(scale=SCALE, analysts=2, monitor=True)
    sql = dict(mixed_queries())["tpch.q03"]
    _exercise(platform, users[0], sql, platform.catalog.get_table("tpch", "lineitem"))
    return weakref.ref(platform)


def _txn():
    """``txn_ingest``'s per-pass lake: the coordinator takes services and
    its hooks on Big Metadata, the stores and the BLMT manager are weak."""
    platform, admin = build_txn_platform(orders=2)
    winner, loser = platform.begin(admin), platform.begin(admin)
    for txn in (winner, loser):
        txn.execute("INSERT INTO txn.lineitems (order_id, item_id, amount) VALUES (1, 901, 1.0)")
        txn.execute("UPDATE txn.orders SET total = total + 1.0 WHERE order_id = 1")
    assert winner.commit() > 0
    with pytest.raises(TransactionConflictError):
        loser.commit()
    lineitems = platform.catalog.get_table("txn", "lineitems")
    assert platform.tables.blmt.optimize_storage(lineitems).files_compacted == 2
    _exercise(platform, admin, "SELECT SUM(amount) FROM txn.lineitems", lineitems)
    return weakref.ref(platform)


@pytest.mark.parametrize(
    "build", [_tpch, _tpcds, _serving, _txn], ids=lambda f: f.__name__.strip("_")
)
def test_dropped_platform_is_freed_without_a_collection(build):
    with collector_off():
        ref = build()
        assert ref() is None, "a reference cycle keeps the dropped platform alive"


def _adhoc_cold_pass() -> None:
    tpch, tpch_admin, tpch_engine, _ = build_tpch_platform(scale=SCALE)
    tpcds, tpcds_admin, tpcds_engine, _ = build_tpcds_platform(scale=SCALE)
    for sql in tpch_lite.queries().values():
        assert tpch_engine.execute(sql, tpch_admin).rows() is not None
    for sql in tpcds_lite.queries().values():
        assert tpcds_engine.execute(sql, tpcds_admin).rows() is not None


def _repro_name(obj) -> str | None:
    """Name of a ``repro`` instance or function, None for anything else."""
    owner = obj if isinstance(obj, FunctionType) else type(obj)
    if (owner.__module__ or "").startswith("repro"):
        return f"{owner.__module__}.{owner.__qualname__}"
    return None


def test_an_adhoc_cold_pass_leaves_no_cyclic_garbage():
    with collector_off():
        _adhoc_cold_pass()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            ours = sorted({_repro_name(obj) for obj in gc.garbage} - {None})
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert ours == []
