"""The Read API's one columnar scan kernel (DESIGN.md §8).

The data cache is a layer under the kernel, not a path beside it, so every
combination of cache on/off, cold fetch shape (``ranged_reads``), cold/warm
and known/unknown generation must return the same rows with the same
pruning — and differ only in where the bytes came from.
"""

from dataclasses import replace

import pytest

from repro import LakehousePlatform, Role
from repro.cache import CacheConfig
from repro.core.platform import PlatformConfig
from repro.data import DataType, Schema, batch_from_pydict
from repro.faults import FaultSpec
from repro.formats import pqs
from repro.formats.readers import surviving_row_groups
from repro.storageapi.fileutil import write_data_file

SCHEMA = Schema.of(
    ("id", DataType.INT64),
    ("region", DataType.STRING),
    ("amount", DataType.FLOAT64),
    ("note", DataType.STRING),
)
REGIONS = ["us", "eu", "apac"]


def make_lake(file_ids, row_group_rows, cache=None):
    """A BigLake table with one pqs file per id list in ``file_ids``."""
    platform = LakehousePlatform(PlatformConfig(data_cache=cache or CacheConfig()))
    admin = platform.admin_user()
    store = platform.stores.store_for(platform.config.home_region.location)
    store.create_bucket("lake")
    conn = platform.connections.create_connection("ds.conn")
    platform.connections.grant_lake_access(conn, "lake")
    platform.iam.grant("connections/ds.conn", Role.CONNECTION_USER, admin)
    platform.catalog.create_dataset("ds")
    for n, ids in enumerate(file_ids):
        rows = {
            "id": ids,
            "region": [REGIONS[i % 3] for i in ids],
            "amount": [float(i) for i in ids],
            "note": [f"n{i}" for i in ids],
        }
        write_data_file(
            store, "lake", f"t/part-{n:04d}.pqs", SCHEMA,
            [batch_from_pydict(SCHEMA, rows)], row_group_rows=row_group_rows,
        )
    table = platform.tables.create_biglake_table(
        admin, "ds", "t", SCHEMA, "lake", "t", "ds.conn"
    )
    return platform, admin, table, store


def drain(platform, admin, table, generation_zero=False, **kwargs):
    session = platform.read_api.create_read_session(admin, table, **kwargs)
    if generation_zero:
        for stream in session.streams:
            stream.files = [replace(e, generation=0) for e in stream.files]
    rows = []
    for i in range(len(session.streams)):
        for batch in platform.read_api.read_rows(session, i):
            rows.extend(batch.iter_rows())
    return session, sorted(rows)


def source_bytes(session, store, columns):
    """(whole-object bytes, bytes of ``columns``' chunks in the surviving
    row groups) over the session's files, from the footers alone."""
    whole = chunks = 0
    for stream in session.streams:
        for entry in stream.files:
            bucket, _, key = entry.file_path.partition("/")
            data = store.get_object(bucket, key)
            footer = pqs.read_footer(data)
            whole += len(data)
            for rg_index in surviving_row_groups(footer, session.constraints):
                rg = footer.row_groups[rg_index]
                chunks += sum(rg.column(name).length for name in columns)
    return whole, chunks


# Three files of four 10-row groups; ids 35..85 keep one group of the first
# file, all of the second and one of the third.
FILE_IDS = [list(range(0, 40)), list(range(40, 80)), list(range(80, 120))]
SCAN = dict(columns=["id", "region"], row_restriction="id BETWEEN 35 AND 85")
EXPECTED_ROWS = sorted((i, REGIONS[i % 3]) for i in range(35, 86))


@pytest.mark.parametrize("phase", ["cold", "warm"])
@pytest.mark.parametrize("generation_zero", [False, True])
@pytest.mark.parametrize("ranged", [False, True])
@pytest.mark.parametrize("cache_on", [True, False])
def test_cache_is_a_layer_not_a_fork(cache_on, ranged, generation_zero, phase):
    platform, admin, table, store = make_lake(
        FILE_IDS, row_group_rows=10, cache=CacheConfig(enabled=cache_on)
    )
    for _ in range(2 if phase == "warm" else 1):
        session, rows = drain(
            platform, admin, table, generation_zero, ranged_reads=ranged, **SCAN
        )
    assert rows == EXPECTED_ROWS
    assert session.stats.rows_scanned == 60
    assert session.stats.row_groups_pruned == 6
    # Where the bytes came from. "id" and "region" are adjacent chunks, so
    # a coalesced ranged fetch reads exactly their lengths.
    whole, chunks = source_bytes(session, store, SCAN["columns"])
    served_warm = cache_on and not generation_zero and phase == "warm"
    if served_warm:
        expected = (0, chunks)
    elif ranged:
        expected = (chunks, 0)
    else:
        expected = (whole, 0)
    assert (session.stats.bytes_scanned, session.stats.cache_hit_bytes) == expected


@pytest.mark.parametrize("ranged", [False, True])
@pytest.mark.parametrize("cache_on", [True, False])
def test_no_surviving_row_group_no_decode_charge(cache_on, ranged):
    """File stats (0..14) admit ``id = 7`` but neither row group (0..4,
    10..14) does: zero rows, and nothing decoded means nothing charged —
    with the cache on or off."""
    platform, admin, table, _ = make_lake(
        [[0, 1, 2, 3, 4, 10, 11, 12, 13, 14]], row_group_rows=5,
        cache=CacheConfig(enabled=cache_on),
    )
    session, rows = drain(
        platform, admin, table, row_restriction="id = 7", ranged_reads=ranged
    )
    assert rows == []
    assert session.stats.files_after_pruning == 1
    assert session.stats.row_groups_pruned == 2
    assert session.stats.rows_scanned == 0
    assert session.stats.cpu_ms == 0.0
    ops = platform.ctx.metering.op_counts
    assert not any(op.startswith("read_api.") and op.endswith("_scan") for op in ops)


@pytest.mark.parametrize("ranged", [False, True])
def test_generation_zero_touches_no_tier_and_no_hazard(ranged):
    """An unknown-generation file under an *enabled* cache is the uncached
    scan exactly: no tier is read or written — the content-addressed
    dictionary tier included — and no ``cache.get`` hazard is consulted,
    so a plan that fails every cache read records no degradation."""
    platform, admin, table, _ = make_lake(FILE_IDS, row_group_rows=10)
    platform.ctx.faults.add(FaultSpec.parse("cache.get:rate=1.0"))
    _, rows = drain(platform, admin, table, generation_zero=True, ranged_reads=ranged, **SCAN)
    assert rows == EXPECTED_ROWS
    assert platform.ctx.metering.op_counts.get("repro.degraded", 0) == 0
    for tier in platform.data_cache.snapshot().values():
        assert (tier["hits"], tier["misses"], tier["entries"]) == (0, 0, 0)


def test_warm_footer_cold_chunks_refetches_needed_ranges_only():
    """Footer tier warm, chunk tier empty (every chunk is over the
    admission limit), ``ranged_reads=False``: the footer hit means there is
    no object in hand, so the missing chunks are ranged-fetched — the
    needed columns only, never the whole object again."""
    platform, admin, table, store = make_lake(
        FILE_IDS, row_group_rows=10, cache=CacheConfig(chunk_capacity_bytes=1)
    )
    cold, cold_rows = drain(platform, admin, table, **SCAN)
    assert len(platform.data_cache.footers) == 3 and len(platform.data_cache.chunks) == 0
    again, rows = drain(platform, admin, table, **SCAN)
    assert rows == cold_rows == EXPECTED_ROWS
    whole, chunks = source_bytes(again, store, SCAN["columns"])
    assert cold.stats.bytes_scanned == whole
    assert (again.stats.bytes_scanned, again.stats.cache_hit_bytes) == (chunks, 0)
    assert again.stats.rows_scanned == cold.stats.rows_scanned == 60
