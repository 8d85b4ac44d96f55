"""Helpers shared by writers: building pqs files + their metadata entries."""

from __future__ import annotations

from typing import Any

from repro.data.batch import RecordBatch
from repro.data.types import DataType, Schema
from repro.formats import pqs
from repro.metastore.bigmeta import ColumnStats, FileEntry
from repro.metastore.catalog import TableInfo
from repro.objectstore import ObjectStore
from repro.sql.dates import parse_date_to_days
from repro.tableformats.hive_layout import parse_partition_from_key


def partition_values(table: TableInfo, key: str) -> dict[str, Any]:
    """The partition values an object key carries for a hive-partitioned
    table (``prefix/col=value/.../file``), coerced to the partition columns'
    schema dtypes — the one decoder every reader that builds a
    :class:`FileEntry` from a listing calls, so a partition value compares
    with a predicate literal the way a column value would."""
    if not table.partition_columns:
        return {}
    raw = parse_partition_from_key(table.storage.prefix, key)
    values: dict[str, Any] = {}
    for name in table.partition_columns:
        if name not in raw:
            continue
        dtype = table.schema.field(name).dtype if table.schema.has_field(name) else DataType.STRING
        values[name] = _coerce_partition_value(raw[name], dtype)
    return values


def _coerce_partition_value(raw: str, dtype: DataType):
    if dtype is DataType.INT64:
        return int(raw)
    if dtype is DataType.FLOAT64:
        return float(raw)
    if dtype is DataType.DATE:
        return parse_date_to_days(raw)
    if dtype is DataType.BOOL:
        return raw.lower() in ("true", "1")
    return raw


def entry_from_footer(
    file_path: str,
    size_bytes: int,
    footer: pqs.FileFooter,
    partition_values: dict[str, Any] | None = None,
    generation: int = 0,
) -> FileEntry:
    """Build the Big Metadata entry for a pqs file from its footer —
    exactly the statistics §3.3 says the cache collects."""
    stats = []
    for field in footer.schema:
        lo, hi, nulls = footer.column_stats(field.name)
        stats.append((field.name, ColumnStats(min_value=lo, max_value=hi, null_count=nulls)))
    return FileEntry(
        file_path=file_path,
        size_bytes=size_bytes,
        row_count=footer.num_rows,
        partition_values=tuple(sorted((partition_values or {}).items())),
        column_stats=tuple(stats),
        generation=generation,
    )


def write_data_file(
    store: ObjectStore,
    bucket: str,
    key: str,
    schema: Schema,
    batches: list[RecordBatch],
    partition_values: dict[str, Any] | None = None,
    row_group_rows: int = 65536,
    caller_location: str | None = None,
) -> FileEntry:
    """Serialize batches to a pqs object and return its metadata entry."""
    data = pqs.write_table(schema, batches, row_group_rows=row_group_rows)
    meta = store.put_object(
        bucket, key, data, content_type="application/x-pqs",
        caller_location=caller_location,
    )
    footer = pqs.read_footer(data)
    return entry_from_footer(
        f"{bucket}/{key}", len(data), footer, partition_values,
        generation=meta.generation,
    )


def read_remote_footer(
    store: ObjectStore, bucket: str, key: str, caller_location: str | None = None
) -> tuple[pqs.FileFooter, int]:
    """Fetch a pqs footer with ranged GETs (tail length probe + footer).

    This is the per-file "peek at headers or footers" overhead of the
    uncached path (§3.3): two object reads per file before any data moves.
    """
    tail = store.get_range(bucket, key, -8, 8, caller_location=caller_location)
    footer_len = int.from_bytes(tail[:4], "little")
    size = store.head_object(bucket, key).size
    start = size - 8 - footer_len
    footer_bytes = store.get_range(
        bucket, key, start, footer_len, caller_location=caller_location
    )
    # Reassemble a minimal tail so read_footer can parse it.
    data = b"PQS1" + footer_bytes + tail
    footer = pqs.read_footer(data)
    return footer, size
