"""Physical encodings for pqs column chunks.

Encodings implemented:

* ``PLAIN`` — validity bytes followed by raw values (numpy buffers for
  fixed-width types, length-prefixed payloads for strings/bytes).
* ``RLE`` — run-length encoding of int32 code arrays.

Dictionary encoding is layered in :mod:`repro.formats.pqs`: a dictionary
chunk is a PLAIN-encoded dictionary followed by a (possibly RLE-compressed)
code array.

The hot-path codecs are vectorized (offset arrays + single-buffer slicing
instead of per-value ``struct`` calls); the pre-vectorization row-at-a-time
implementations live on in ``tests/reference_encodings.py`` as the oracles
property tests pin byte-identity against. Every decoder validates chunk
bounds and raises :class:`ExecutionError` on truncation instead of leaking a
raw ``struct.error`` or silently decoding a short payload.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.data.column import Column
from repro.data.types import DataType
from repro.errors import ExecutionError

_U32 = struct.Struct("<I")
_I32 = struct.Struct("<i")


def _fixed_numpy_dtype(dtype: DataType) -> np.dtype:
    if dtype is DataType.BOOL:
        return np.dtype(np.uint8)
    return dtype.numpy_dtype()


def encode_plain(column: Column) -> bytes:
    """Serialize a flat column: [n][validity bytes][values]."""
    n = len(column)
    valid = column.is_valid()
    parts: list[bytes] = [_U32.pack(n), valid.astype(np.uint8).tobytes()]
    if column.dtype.is_variable_width:
        payloads = [
            v.encode("utf-8") if isinstance(v, str) else bytes(v)
            for v in column.values[valid]
        ]
        if payloads:
            lengths = np.fromiter(
                (len(p) for p in payloads), dtype="<u4", count=len(payloads)
            )
            length_bytes = memoryview(lengths.tobytes())
            for k, payload in enumerate(payloads):
                parts.append(length_bytes[4 * k : 4 * k + 4])
                parts.append(payload)
    else:
        physical = column.values.astype(_fixed_numpy_dtype(column.dtype), copy=False)
        parts.append(physical.tobytes())
    return b"".join(parts)


def decode_plain(dtype: DataType, buf: bytes) -> Column:
    """Inverse of :func:`encode_plain`."""
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
        # One bounds-checked pass over the [len][payload] pairs builds the
        # payload offset array; values are then sliced out of the single
        # buffer in bulk instead of per-value struct.unpack_from calls.
        valid_count = int(np.count_nonzero(validity))
        starts: list[int] = []
        ends: list[int] = []
        pos = offset
        unpack = _U32.unpack_from
        for _ in range(valid_count):
            if pos + 4 > nbuf:
                raise ExecutionError("truncated PLAIN chunk")
            (length,) = unpack(buf, pos)
            pos += 4
            end = pos + length
            if end > nbuf:
                raise ExecutionError("truncated PLAIN chunk")
            starts.append(pos)
            ends.append(end)
            pos = end
        values = np.empty(n, dtype=object)
        if valid_count:
            if dtype is DataType.STRING:
                values[validity] = [
                    buf[s:e].decode("utf-8") for s, e in zip(starts, ends)
                ]
            else:
                values[validity] = [buf[s:e] for s, e in zip(starts, ends)]
        return Column(dtype, values, validity)
    physical = _fixed_numpy_dtype(dtype)
    if nbuf - offset < n * physical.itemsize:
        raise ExecutionError("truncated PLAIN chunk")
    values = np.frombuffer(buf, dtype=physical, count=n, offset=offset)
    if dtype is DataType.BOOL:
        values = values.astype(bool)
    else:
        values = values.copy()  # frombuffer yields a read-only view
    return Column(dtype, values, validity)


def encode_codes_plain(codes: np.ndarray) -> bytes:
    """[n][int32 codes]; code -1 is null."""
    codes = np.asarray(codes, dtype=np.int32)
    return _U32.pack(len(codes)) + codes.tobytes()


def decode_codes_plain(buf: bytes) -> np.ndarray:
    if len(buf) < 4:
        raise ExecutionError("truncated PLAIN code chunk")
    (n,) = _U32.unpack_from(buf, 0)
    if len(buf) - 4 < 4 * n:
        raise ExecutionError("truncated PLAIN code chunk")
    return np.frombuffer(buf, dtype=np.int32, count=n, offset=4).copy()


def encode_codes_rle(codes: np.ndarray) -> bytes:
    """Run-length encode an int32 code array: [n][num_runs][(code,len)...]."""
    codes = np.asarray(codes, dtype=np.int32)
    n = len(codes)
    if n == 0:
        return _U32.pack(0) + _U32.pack(0)
    # Boundaries where the value changes.
    change = np.flatnonzero(codes[1:] != codes[:-1]) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [n]))
    run_values = codes[starts]
    run_lengths = (ends - starts).astype(np.uint32)
    parts = [_U32.pack(n), _U32.pack(len(starts))]
    interleaved = np.empty(2 * len(starts), dtype=np.uint32)
    interleaved[0::2] = run_values.view(np.uint32)
    interleaved[1::2] = run_lengths
    parts.append(interleaved.tobytes())
    return b"".join(parts)


def decode_codes_rle(buf: bytes) -> np.ndarray:
    if len(buf) < 8:
        raise ExecutionError("truncated RLE chunk")
    (n,) = _U32.unpack_from(buf, 0)
    (num_runs,) = _U32.unpack_from(buf, 4)
    if len(buf) - 8 < 8 * num_runs:
        raise ExecutionError("truncated RLE chunk")
    interleaved = np.frombuffer(buf, dtype=np.uint32, count=2 * num_runs, offset=8)
    run_values = interleaved[0::2].view(np.int32)
    run_lengths = interleaved[1::2].astype(np.int64)
    if int(run_lengths.sum()) != n:
        raise ExecutionError("corrupt RLE chunk: run lengths do not sum to n")
    return np.repeat(run_values, run_lengths)
