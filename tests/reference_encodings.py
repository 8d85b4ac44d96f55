"""Reference PLAIN codec: what ``repro.formats.encodings`` is compared
against.

These are the row-at-a-time PLAIN encoder and decoder the pqs writer and
reader ran before the codec was vectorized, kept verbatim: the vectorized
codec must produce the same bytes and decode them to the same column.

Not collected by pytest (no ``test_`` prefix); imported by
``tests/test_formats_encodings.py`` and by E18-WC's decode microbenchmark.
"""

from __future__ import annotations

import numpy as np

from repro.data.column import Column
from repro.data.types import DataType
from repro.errors import ExecutionError
from repro.formats.encodings import _U32, _fixed_numpy_dtype


def encode_plain_naive(column: Column) -> bytes:
    """Pre-vectorization row-at-a-time encoder."""
    n = len(column)
    parts = [_U32.pack(n), column.is_valid().astype(np.uint8).tobytes()]
    if column.dtype.is_variable_width:
        valid = column.is_valid()
        for i in range(n):
            if not valid[i]:
                continue
            v = column.values[i]
            payload = v.encode("utf-8") if isinstance(v, str) else bytes(v)
            parts.append(_U32.pack(len(payload)))
            parts.append(payload)
    else:
        physical = column.values.astype(_fixed_numpy_dtype(column.dtype), copy=False)
        parts.append(physical.tobytes())
    return b"".join(parts)


def decode_plain_naive(dtype: DataType, buf: bytes) -> Column:
    """Pre-vectorization row-at-a-time decoder (with the same truncation
    bounds checks as ``decode_plain``)."""
    nbuf = len(buf)
    if nbuf < 4:
        raise ExecutionError("truncated PLAIN chunk")
    (n,) = _U32.unpack_from(buf, 0)
    offset = 4
    if nbuf - offset < n:
        raise ExecutionError("truncated PLAIN chunk")
    validity = np.frombuffer(buf, dtype=np.uint8, count=n, offset=offset).astype(bool)
    offset += n
    if dtype.is_variable_width:
        values = np.empty(n, dtype=object)
        for i in range(n):
            if not validity[i]:
                continue
            if offset + 4 > nbuf:
                raise ExecutionError("truncated PLAIN chunk")
            (length,) = _U32.unpack_from(buf, offset)
            offset += 4
            if offset + length > nbuf:
                raise ExecutionError("truncated PLAIN chunk")
            payload = buf[offset : offset + length]
            offset += length
            values[i] = payload.decode("utf-8") if dtype is DataType.STRING else payload
        return Column(dtype, values, validity)
    physical = _fixed_numpy_dtype(dtype)
    if nbuf - offset < n * physical.itemsize:
        raise ExecutionError("truncated PLAIN chunk")
    values = np.frombuffer(buf, dtype=physical, count=n, offset=offset)
    if dtype is DataType.BOOL:
        values = values.astype(bool)
    else:
        values = values.copy()
    return Column(dtype, values, validity)
