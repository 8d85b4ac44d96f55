"""Columnar file format ("pqs") standing in for Apache Parquet.

The format has the structural features the paper's experiments depend on:
row groups, per-column chunks with PLAIN or DICTIONARY(+RLE) encoding, and a
footer carrying the schema plus per-chunk min/max/null-count statistics.
Files are real byte strings round-tripped through real encode/decode.

Two scan paths mirror §3.4: :class:`RowReader`, the initial row-oriented
one (decode everything, then iterate row by row in Python), and
:func:`read_row_group`, which emits columnar :class:`~repro.data.RecordBatch`
objects with dictionary encoding intact so downstream operators can work on
codes.
"""

from repro.formats.pqs import (
    ColumnChunkMeta,
    FileFooter,
    RowGroupMeta,
    read_footer,
    read_row_group,
    write_table,
)
from repro.formats.readers import RowReader

__all__ = [
    "ColumnChunkMeta",
    "FileFooter",
    "RowGroupMeta",
    "read_footer",
    "read_row_group",
    "write_table",
    "RowReader",
]
