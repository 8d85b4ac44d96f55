"""pqs file layout: writer, footer, and row-group reader.

File layout (all offsets absolute)::

    magic "PQS1"
    row group 0: column chunk bytes, back to back
    row group 1: ...
    footer JSON (utf-8)
    footer length, uint32 little-endian
    magic "PQS1"

The footer carries the schema and, per column chunk: byte offset/length,
encoding, and min/max/null-count statistics — the physical metadata that
Big Metadata caches (§3.3) and that query engines otherwise have to fetch
with extra object reads.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.data.batch import RecordBatch, concat_batches
from repro.data.column import Column, DictionaryColumn
from repro.data.types import DataType, Schema
from repro.errors import ExecutionError
from repro.formats import encodings

MAGIC = b"PQS1"
_U32 = struct.Struct("<I")

ENCODING_PLAIN = "PLAIN"
ENCODING_DICT = "DICT"
ENCODING_DICT_RLE = "DICT_RLE"

# Columns whose distinct-value ratio is below this threshold are
# dictionary-encoded, mirroring Parquet writers' behaviour.
_DICT_RATIO_THRESHOLD = 0.5


@dataclass
class ColumnChunkMeta:
    """Footer entry for one column chunk within a row group."""

    name: str
    encoding: str
    offset: int
    length: int
    null_count: int
    min_value: Any = None
    max_value: Any = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "encoding": self.encoding,
            "offset": self.offset,
            "length": self.length,
            "null_count": self.null_count,
            "min": self.min_value,
            "max": self.max_value,
        }

    @staticmethod
    def from_dict(d: dict) -> "ColumnChunkMeta":
        return ColumnChunkMeta(
            name=d["name"],
            encoding=d["encoding"],
            offset=d["offset"],
            length=d["length"],
            null_count=d["null_count"],
            min_value=d.get("min"),
            max_value=d.get("max"),
        )


@dataclass
class RowGroupMeta:
    """Footer entry for one row group."""

    num_rows: int
    columns: list[ColumnChunkMeta] = field(default_factory=list)

    def column(self, name: str) -> ColumnChunkMeta:
        for c in self.columns:
            if c.name == name:
                return c
        raise ExecutionError(f"row group has no column {name!r}")

    def to_dict(self) -> dict:
        return {
            "num_rows": self.num_rows,
            "columns": [c.to_dict() for c in self.columns],
        }

    @staticmethod
    def from_dict(d: dict) -> "RowGroupMeta":
        return RowGroupMeta(
            num_rows=d["num_rows"],
            columns=[ColumnChunkMeta.from_dict(c) for c in d["columns"]],
        )


@dataclass
class FileFooter:
    """Parsed pqs footer: schema, row groups, total rows."""

    schema: Schema
    row_groups: list[RowGroupMeta]
    num_rows: int

    def column_stats(self, name: str) -> tuple[Any, Any, int]:
        """File-level (min, max, null_count) for column ``name``."""
        mins, maxs, nulls = [], [], 0
        for rg in self.row_groups:
            chunk = rg.column(name)
            nulls += chunk.null_count
            if chunk.min_value is not None:
                mins.append(chunk.min_value)
            if chunk.max_value is not None:
                maxs.append(chunk.max_value)
        return (min(mins) if mins else None, max(maxs) if maxs else None, nulls)

    def to_dict(self) -> dict:
        return {
            "schema": self.schema.to_dict(),
            "row_groups": [rg.to_dict() for rg in self.row_groups],
            "num_rows": self.num_rows,
        }

    @staticmethod
    def from_dict(d: dict) -> "FileFooter":
        return FileFooter(
            schema=Schema.from_dict(d["schema"]),
            row_groups=[RowGroupMeta.from_dict(rg) for rg in d["row_groups"]],
            num_rows=d["num_rows"],
        )


def _json_safe(value: Any) -> Any:
    """Statistics must survive a JSON round trip; bytes stats are dropped."""
    if isinstance(value, bytes):
        return None
    if isinstance(value, np.generic):
        return value.item()
    return value


def _chunk_bounds(column: Column) -> tuple[Any, Any]:
    """A chunk's (min, max) without NaN, as the Parquet and Iceberg specs
    require (``Column.min_max`` keeps NaN: MIN and MAX propagate it)."""
    if column.dtype is DataType.FLOAT64:
        column = column.filter(~np.isnan(column.values))
    return column.min_max()


def _encode_chunk(column: Column) -> tuple[str, bytes]:
    """Pick an encoding for a column chunk and serialize it.

    Dictionary encoding is used for low-cardinality non-float columns; the
    code stream is additionally RLE-compressed when that is smaller.
    """
    n = len(column)
    use_dict = False
    if n > 0 and column.dtype is not DataType.FLOAT64 and column.dtype is not DataType.BOOL:
        dict_col = DictionaryColumn.encode(column)
        if len(dict_col.dictionary) <= max(1, int(n * _DICT_RATIO_THRESHOLD)):
            use_dict = True
    if not use_dict:
        return ENCODING_PLAIN, encodings.encode_plain(column)
    dict_bytes = encodings.encode_plain(dict_col.dictionary)
    plain_codes = encodings.encode_codes_plain(dict_col.codes)
    rle_codes = encodings.encode_codes_rle(dict_col.codes)
    if len(rle_codes) < len(plain_codes):
        encoding, code_bytes = ENCODING_DICT_RLE, rle_codes
    else:
        encoding, code_bytes = ENCODING_DICT, plain_codes
    payload = _U32.pack(len(dict_bytes)) + dict_bytes + code_bytes
    return encoding, payload


def _decode_chunk(dtype: DataType, encoding: str, buf: bytes) -> Column | DictionaryColumn:
    if encoding == ENCODING_PLAIN:
        return encodings.decode_plain(dtype, buf)
    if len(buf) < 4:
        raise ExecutionError("truncated dictionary chunk")
    (dict_len,) = _U32.unpack_from(buf, 0)
    dict_bytes = buf[4 : 4 + dict_len]
    code_bytes = buf[4 + dict_len :]
    dictionary = encodings.decode_plain(dtype, dict_bytes)
    if encoding == ENCODING_DICT_RLE:
        codes = encodings.decode_codes_rle(code_bytes)
    elif encoding == ENCODING_DICT:
        codes = encodings.decode_codes_plain(code_bytes)
    else:
        raise ExecutionError(f"unknown chunk encoding {encoding!r}")
    return DictionaryColumn(dtype, codes, dictionary)


def write_table(
    schema: Schema,
    batches: Sequence[RecordBatch],
    row_group_rows: int = 65536,
) -> bytes:
    """Serialize batches into a single pqs file (returned as bytes)."""
    combined = concat_batches(schema, list(batches))
    parts: list[bytes] = [MAGIC]
    offset = len(MAGIC)
    row_groups: list[RowGroupMeta] = []
    start = 0
    total = combined.num_rows
    while start < total or (total == 0 and not row_groups):
        stop = min(start + row_group_rows, total)
        group = combined.slice(start, stop)
        rg_meta = RowGroupMeta(num_rows=group.num_rows)
        for f in schema:
            column = group.column(f.name)
            encoding, payload = _encode_chunk(column)
            lo, hi = _chunk_bounds(column)
            rg_meta.columns.append(
                ColumnChunkMeta(
                    name=f.name,
                    encoding=encoding,
                    offset=offset,
                    length=len(payload),
                    null_count=column.null_count(),
                    min_value=_json_safe(lo),
                    max_value=_json_safe(hi),
                )
            )
            parts.append(payload)
            offset += len(payload)
        row_groups.append(rg_meta)
        if total == 0:
            break
        start = stop
    footer = FileFooter(schema=schema, row_groups=row_groups, num_rows=total)
    footer_bytes = json.dumps(footer.to_dict()).encode("utf-8")
    parts.append(footer_bytes)
    parts.append(_U32.pack(len(footer_bytes)))
    parts.append(MAGIC)
    return b"".join(parts)


def read_footer(data: bytes) -> FileFooter:
    """Parse the footer of a pqs file.

    In the simulation this is the "peek at headers or footers" step that
    §3.3 identifies as requiring extra object reads when metadata is not
    cached — callers fetch the tail of the object to run it.
    """
    if len(data) < 12 or data[:4] != MAGIC or data[-4:] != MAGIC:
        raise ExecutionError("not a pqs file (bad magic)")
    (footer_len,) = _U32.unpack_from(data, len(data) - 8)
    footer_start = len(data) - 8 - footer_len
    footer_bytes = data[footer_start : footer_start + footer_len]
    return FileFooter.from_dict(json.loads(footer_bytes.decode("utf-8")))


def read_row_group(
    data: bytes,
    footer: FileFooter,
    rg_index: int,
    columns: list[str] | None = None,
    keep_dictionary: bool = True,
) -> RecordBatch:
    """Decode one row group, optionally projecting to ``columns``.

    ``keep_dictionary=True`` preserves dictionary encoding in the returned
    batch (the vectorized path); ``False`` materializes flat columns.
    """
    rg = footer.row_groups[rg_index]
    names = columns if columns is not None else footer.schema.names()
    out_schema = footer.schema.select(names)
    out_columns: list[Column | DictionaryColumn] = []
    for name in names:
        chunk = rg.column(name)
        dtype = footer.schema.field(name).dtype
        buf = data[chunk.offset : chunk.offset + chunk.length]
        decoded = _decode_chunk(dtype, chunk.encoding, buf)
        if not keep_dictionary and isinstance(decoded, DictionaryColumn):
            decoded = decoded.decode()
        out_columns.append(decoded)
    return RecordBatch(out_schema, out_columns)
