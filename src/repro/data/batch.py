"""RecordBatch: the unit of columnar data exchanged between subsystems."""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.data.column import Column, DictionaryColumn
from repro.data.types import Field, Schema
from repro.errors import ExecutionError

AnyColumn = Column | DictionaryColumn


class RecordBatch:
    """A schema plus one column vector per field, all of equal length.

    Columns may be flat (:class:`Column`) or dictionary-encoded
    (:class:`DictionaryColumn`); consumers that need flat data call
    :meth:`column` (which decodes transparently) or :meth:`decoded`.
    """

    __slots__ = ("schema", "columns", "num_rows")

    def __init__(self, schema: Schema, columns: Sequence[AnyColumn]) -> None:
        if len(schema) != len(columns):
            raise ExecutionError(
                f"schema has {len(schema)} fields but {len(columns)} columns given"
            )
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise ExecutionError(f"ragged batch: column lengths {sorted(lengths)}")
        self.schema = schema
        self.columns = list(columns)
        self.num_rows = lengths.pop() if lengths else 0

    # -- construction ------------------------------------------------------

    @staticmethod
    def empty(schema: Schema) -> "RecordBatch":
        return RecordBatch(schema, [Column(f.dtype, []) for f in schema])

    # -- access ------------------------------------------------------------

    def raw_column(self, name: str) -> AnyColumn:
        """The column as stored (possibly dictionary-encoded)."""
        return self.columns[self.schema.index_of(name)]

    def column(self, name: str) -> Column:
        """The column as a flat vector, decoding if necessary."""
        col = self.raw_column(name)
        if isinstance(col, DictionaryColumn):
            return col.decode()
        return col

    def column_at(self, index: int) -> Column:
        col = self.columns[index]
        if isinstance(col, DictionaryColumn):
            return col.decode()
        return col

    def decoded(self) -> "RecordBatch":
        """A batch with every dictionary column materialized."""
        cols = [
            c.decode() if isinstance(c, DictionaryColumn) else c for c in self.columns
        ]
        return RecordBatch(self.schema, cols)

    def __len__(self) -> int:
        return self.num_rows

    def nbytes(self) -> int:
        return sum(c.nbytes() for c in self.columns)

    # -- transformations ---------------------------------------------------

    def select(self, names: list[str]) -> "RecordBatch":
        """Project to the given columns, in order."""
        schema = self.schema.select(names)
        cols = [self.columns[self.schema.index_of(n)] for n in names]
        return RecordBatch(schema, cols)

    def filter(self, mask: np.ndarray) -> "RecordBatch":
        return RecordBatch(self.schema, [c.filter(mask) for c in self.columns])

    def take(self, indices: np.ndarray) -> "RecordBatch":
        return RecordBatch(self.schema, [c.take(indices) for c in self.columns])

    def slice(self, start: int, stop: int) -> "RecordBatch":
        cols = []
        for c in self.columns:
            if isinstance(c, DictionaryColumn):
                cols.append(
                    DictionaryColumn(c.dtype, c.codes[start:stop], c.dictionary)
                )
            else:
                cols.append(c.slice(start, stop))
        return RecordBatch(self.schema, cols)

    def with_column(self, field: Field, column: AnyColumn) -> "RecordBatch":
        """Append (or replace) a column, returning a new batch."""
        if self.schema.has_field(field.name):
            idx = self.schema.index_of(field.name)
            fields = list(self.schema.fields)
            fields[idx] = field
            cols = list(self.columns)
            cols[idx] = column
            return RecordBatch(Schema(tuple(fields)), cols)
        return RecordBatch(
            Schema(self.schema.fields + (field,)), list(self.columns) + [column]
        )

    def rename(self, names: list[str]) -> "RecordBatch":
        if len(names) != len(self.schema):
            raise ExecutionError("rename arity mismatch")
        fields = tuple(
            Field(n, f.dtype, f.nullable) for n, f in zip(names, self.schema.fields)
        )
        return RecordBatch(Schema(fields), self.columns)

    # -- row views ----------------------------------------------------------

    def row(self, i: int) -> tuple:
        return tuple(self.column_at(j)[i] for j in range(len(self.schema)))

    def iter_rows(self) -> Iterator[tuple]:
        return zip(*[c.to_pylist() for c in self.columns])

    def to_pydict(self) -> dict[str, list[Any]]:
        return {
            f.name: c.to_pylist() for f, c in zip(self.schema.fields, self.columns)
        }


def batch_from_pydict(schema: Schema, data: Mapping[str, Sequence[Any]]) -> RecordBatch:
    """Build a batch from ``{column_name: values}`` with ``None`` as null."""
    columns = []
    for f in schema:
        if f.name not in data:
            raise ExecutionError(f"missing column {f.name!r} in pydict")
        columns.append(Column.from_pylist(f.dtype, list(data[f.name])))
    return RecordBatch(schema, columns)


def batch_from_rows(schema: Schema, rows: Sequence[Sequence[Any]]) -> RecordBatch:
    """Build a batch from an iterable of row tuples."""
    columns = []
    for j, f in enumerate(schema):
        columns.append(Column.from_pylist(f.dtype, [row[j] for row in rows]))
    return RecordBatch(schema, columns)


def concat_batches(schema: Schema, batches: Sequence[RecordBatch]) -> RecordBatch:
    """Concatenate batches that share ``schema`` into one flat batch."""
    batches = [b for b in batches if b.num_rows > 0]
    if not batches:
        return RecordBatch.empty(schema)
    columns = []
    for j, f in enumerate(schema):
        parts = [b.column_at(j) for b in batches]
        values = np.concatenate([p.values for p in parts])
        if any(p.validity is not None for p in parts):
            validity = np.concatenate([p.is_valid() for p in parts])
        else:
            validity = None
        columns.append(Column(f.dtype, values, validity))
    return RecordBatch(schema, columns)
