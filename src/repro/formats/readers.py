"""The row-oriented scan path over pqs files, and row-group pruning.

§3.4 of the paper: the initial Read API prototype reused a row-oriented
Parquet reader (decode to rows, re-columnarize), which was simple but slow;
a vectorized reader that emits columnar batches directly — operating on
dictionary/RLE data without decoding — doubled read throughput and improved
server CPU efficiency by an order of magnitude. :class:`RowReader` is the
prototype's path, kept so experiment E2 can measure the gap; the vectorized
path is :func:`repro.formats.pqs.read_row_group`, which the Read API's
columnar scan calls per surviving row group.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.data.batch import RecordBatch, batch_from_rows
from repro.formats import pqs


class RowReader:
    """The legacy row-oriented scan path.

    Decodes every row group to flat columns, then materializes python row
    tuples one at a time; filtering and projection happen per row. Used as
    the baseline in the vectorized-reader experiment.
    """

    def __init__(self, data: bytes, footer: pqs.FileFooter | None = None) -> None:
        self._data = data
        self.footer = footer if footer is not None else pqs.read_footer(data)

    def iter_rows(
        self,
        columns: list[str] | None = None,
        predicate: Callable[[dict[str, Any]], bool] | None = None,
    ) -> Iterator[tuple]:
        """Yield row tuples, applying ``predicate`` on a per-row dict."""
        names = columns if columns is not None else self.footer.schema.names()
        all_names = self.footer.schema.names()
        for rg_index in range(len(self.footer.row_groups)):
            batch = pqs.read_row_group(
                self._data, self.footer, rg_index, keep_dictionary=False
            )
            for row in batch.iter_rows():
                row_dict = dict(zip(all_names, row))
                if predicate is not None and not predicate(row_dict):
                    continue
                yield tuple(row_dict[n] for n in names)

    def read_all(
        self,
        columns: list[str] | None = None,
        predicate: Callable[[dict[str, Any]], bool] | None = None,
        batch_rows: int = 8192,
    ) -> Iterator[RecordBatch]:
        """Row-scan then re-columnarize into batches (the prototype's
        row->column translation overhead, made explicit)."""
        names = columns if columns is not None else self.footer.schema.names()
        schema = self.footer.schema.select(names)
        buffer: list[tuple] = []
        for row in self.iter_rows(columns=names, predicate=predicate):
            buffer.append(row)
            if len(buffer) >= batch_rows:
                yield batch_from_rows(schema, buffer)
                buffer = []
        if buffer:
            yield batch_from_rows(schema, buffer)


def _may_match(rg: pqs.RowGroupMeta, column: str, lo: Any, hi: Any) -> bool:
    chunk = rg.column(column)
    if chunk.min_value is None and chunk.max_value is None:
        # An all-null group cannot match a range predicate.
        return not (chunk.null_count == rg.num_rows and (lo is not None or hi is not None))
    if lo is not None and chunk.max_value is not None and chunk.max_value < lo:
        return False
    if hi is not None and chunk.min_value is not None and chunk.min_value > hi:
        return False
    return True


def surviving_row_groups(footer: pqs.FileFooter, constraints) -> list[int]:
    """Indices of the row groups that may hold a row satisfying every
    ``(column, constraint)`` of ``constraints`` (a
    :class:`~repro.metastore.constraints.ConstraintSet`), by footer min/max
    stats. Constraints on columns the file does not have prune nothing."""
    bounds = [
        (footer.schema.field(column).name, constraint.lo, constraint.hi)
        for column, constraint in constraints
        if footer.schema.has_field(column)
    ]
    return [
        i for i, rg in enumerate(footer.row_groups)
        if all(_may_match(rg, name, lo, hi) for name, lo, hi in bounds)
    ]
