"""Reference row boundary: what the ``to_pylist`` kernel is compared against.

Before rows left the columnar world in one C call, every hop from numpy to
python walked the arrays one boxed scalar at a time — ``Column.__getitem__``
per element, ``column.values[i]`` / ``valid[i]`` in a ``for``. Those loops
are kept here verbatim (bodies unchanged, only lifted out of their modules)
because a kernel that *is* the row view cannot be the row view's oracle.

Not collected by pytest (no ``test_`` prefix); imported by
``tests/test_row_boundary.py`` only.
"""

from __future__ import annotations

import hashlib
import re
import zlib
from typing import Any, Callable

import numpy as np

from repro.data.batch import RecordBatch
from repro.data.column import Column, DictionaryColumn
from repro.data.types import DataType
from repro.security.policies import MaskingKind

# -- data/column.py, data/batch.py -------------------------------------------


def to_pylist(column: Column) -> list[Any]:
    """``list(self)`` over ``__iter__`` over ``__getitem__``."""
    return [column[i] for i in range(len(column))]


def iter_rows(batch: RecordBatch) -> list[tuple]:
    decoded = batch.decoded()
    pylists = [to_pylist(c) for c in decoded.columns]
    return [tuple(col[i] for col in pylists) for i in range(batch.num_rows)]


def dictionary_encode(column: Column) -> DictionaryColumn:
    valid = column.is_valid()
    codes = np.full(len(column), -1, dtype=np.int32)
    value_to_code: dict[Any, int] = {}
    dict_values: list[Any] = []
    for i in range(len(column)):
        if not valid[i]:
            continue
        v = column.values[i]
        key = v.item() if isinstance(v, np.generic) else v
        code = value_to_code.get(key)
        if code is None:
            code = len(dict_values)
            value_to_code[key] = code
            dict_values.append(key)
        codes[i] = code
    return DictionaryColumn(column.dtype, codes, Column(column.dtype, dict_values))


# -- storageapi/streams.py, storageapi/superluminal.py -----------------------


def rows_crc(batches) -> int:
    rows: list[str] = []
    for batch in batches:
        columns = [to_pylist(batch.column(name)) for name in batch.schema.names()]
        for values in zip(*columns):
            rows.append(repr(values))
    digest = 0
    for row in sorted(rows):
        digest = zlib.crc32(row.encode("utf-8"), digest)
    return digest


def mask_column(column: Column, kind: MaskingKind) -> Column:
    """The HASH and LAST_FOUR branches (the other two never looped)."""
    n = len(column)
    valid = column.is_valid()
    if kind is MaskingKind.HASH:
        out = np.empty(n, dtype=object)
        for i in range(n):
            if valid[i]:
                v = column.values[i]
                payload = v if isinstance(v, bytes) else str(v).encode("utf-8")
                out[i] = hashlib.sha256(payload).hexdigest()
        return Column(DataType.STRING, out, None if bool(valid.all()) else valid)
    if kind is MaskingKind.LAST_FOUR:
        out = np.empty(n, dtype=object)
        for i in range(n):
            if valid[i]:
                text = str(column.values[i])
                if len(text) <= 4:
                    out[i] = "X" * len(text)
                else:
                    out[i] = "X" * (len(text) - 4) + text[-4:]
        return Column(DataType.STRING, out, None if bool(valid.all()) else valid)
    raise ValueError(f"no reference loop for {kind}")


# -- sql/expressions.py ------------------------------------------------------


def map_values(column: Column, fn: Callable, out_dtype: DataType) -> Column:
    valid = column.is_valid()
    out = np.empty(len(column), dtype=out_dtype.numpy_dtype())
    if out_dtype.numpy_dtype() != np.dtype(object):
        out = np.zeros(len(column), dtype=out_dtype.numpy_dtype())
    for i in range(len(column)):
        if valid[i]:
            out[i] = fn(column.values[i])
    return Column(out_dtype, out, None if bool(valid.all()) else valid)


def concat(args: list[Column]) -> Column:
    n = len(args[0])
    valid = np.ones(n, dtype=bool)
    for a in args:
        valid &= a.is_valid()
    out = np.empty(n, dtype=object)
    for i in range(n):
        if valid[i]:
            out[i] = "".join(str(a.values[i]) for a in args)
    return Column(DataType.STRING, out, None if bool(valid.all()) else valid)


def like(operand: Column, regex: re.Pattern, negated: bool) -> Column:
    n = len(operand)
    valid = operand.is_valid()
    out = np.zeros(n, dtype=bool)
    for i in range(n):
        if valid[i]:
            out[i] = regex.match(operand.values[i]) is not None
    if negated:
        out = ~out & valid
    return Column(DataType.BOOL, out, operand.validity)


def pipe_concat(left: Column, right: Column) -> Column:
    """The ``||`` operator."""
    valid = left.is_valid() & right.is_valid()
    validity = None if bool(valid.all()) else valid
    out = np.empty(len(left), dtype=object)
    for i in range(len(left)):
        if valid[i]:
            out[i] = str(left.values[i]) + str(right.values[i])
    return Column(DataType.STRING, out, validity)


def cast_to_string(operand: Column) -> Column:
    out = np.empty(len(operand), dtype=object)
    valid = operand.is_valid()
    for i in range(len(operand)):
        if valid[i]:
            v = operand.values[i]
            out[i] = str(v.item() if isinstance(v, np.generic) else v)
    return Column(DataType.STRING, out, operand.validity)
