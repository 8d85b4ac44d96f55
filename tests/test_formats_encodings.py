"""Tests for pqs physical encodings, including hypothesis round trips."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.data import Column, DataType
from repro.errors import ExecutionError
from repro.formats import encodings

from tests.reference_encodings import decode_plain_naive, encode_plain_naive


class TestPlain:
    def test_int_round_trip(self):
        col = Column.from_pylist(DataType.INT64, [1, None, -5, 2**40])
        out = encodings.decode_plain(DataType.INT64, encodings.encode_plain(col))
        assert out.to_pylist() == [1, None, -5, 2**40]

    def test_float_round_trip(self):
        col = Column.from_pylist(DataType.FLOAT64, [1.5, None, -0.25])
        out = encodings.decode_plain(DataType.FLOAT64, encodings.encode_plain(col))
        assert out.to_pylist() == [1.5, None, -0.25]

    def test_bool_round_trip(self):
        col = Column.from_pylist(DataType.BOOL, [True, False, None])
        out = encodings.decode_plain(DataType.BOOL, encodings.encode_plain(col))
        assert out.to_pylist() == [True, False, None]

    def test_string_round_trip(self):
        col = Column.from_pylist(DataType.STRING, ["héllo", "", None, "x" * 1000])
        out = encodings.decode_plain(DataType.STRING, encodings.encode_plain(col))
        assert out.to_pylist() == ["héllo", "", None, "x" * 1000]

    def test_bytes_round_trip(self):
        col = Column.from_pylist(DataType.BYTES, [b"\x00\xff", None, b""])
        out = encodings.decode_plain(DataType.BYTES, encodings.encode_plain(col))
        assert out.to_pylist() == [b"\x00\xff", None, b""]

    def test_empty_column(self):
        col = Column.from_pylist(DataType.INT64, [])
        out = encodings.decode_plain(DataType.INT64, encodings.encode_plain(col))
        assert len(out) == 0


class TestRle:
    def test_round_trip(self):
        codes = np.array([0, 0, 0, 1, 1, -1, 2], dtype=np.int32)
        out = encodings.decode_codes_rle(encodings.encode_codes_rle(codes))
        assert list(out) == list(codes)

    def test_empty(self):
        out = encodings.decode_codes_rle(encodings.encode_codes_rle(np.array([], dtype=np.int32)))
        assert len(out) == 0

    def test_rle_compresses_runs(self):
        runs = np.repeat(np.arange(4, dtype=np.int32), 1000)
        rle = encodings.encode_codes_rle(runs)
        plain = encodings.encode_codes_plain(runs)
        assert len(rle) < len(plain) / 10

    def test_plain_codes_round_trip(self):
        codes = np.array([3, -1, 0], dtype=np.int32)
        out = encodings.decode_codes_plain(encodings.encode_codes_plain(codes))
        assert list(out) == [3, -1, 0]


@given(st.lists(st.one_of(st.none(), st.integers(-(2**62), 2**62 - 1)), max_size=300))
def test_plain_int_round_trip_property(items):
    col = Column.from_pylist(DataType.INT64, items)
    out = encodings.decode_plain(DataType.INT64, encodings.encode_plain(col))
    assert out.to_pylist() == items


@given(st.lists(st.one_of(st.none(), st.text(max_size=20)), max_size=200))
def test_plain_string_round_trip_property(items):
    col = Column.from_pylist(DataType.STRING, items)
    out = encodings.decode_plain(DataType.STRING, encodings.encode_plain(col))
    assert out.to_pylist() == items


@given(st.lists(st.integers(-1, 50), max_size=400))
def test_rle_round_trip_property(codes):
    arr = np.asarray(codes, dtype=np.int32)
    out = encodings.decode_codes_rle(encodings.encode_codes_rle(arr))
    assert list(out) == codes


class TestTruncation:
    """Bugfix regression: every strict prefix of a valid chunk must raise
    ExecutionError — never a raw struct.error / ValueError, and never a
    silently short decode."""

    @pytest.mark.parametrize(
        "dtype,items",
        [
            (DataType.INT64, [1, None, -5, 2**40]),
            (DataType.FLOAT64, [1.5, None, -0.25]),
            (DataType.BOOL, [True, False, None]),
            (DataType.STRING, ["héllo", "", None, "xyz"]),
            (DataType.BYTES, [b"\x00\xff", None, b"", b"abc"]),
        ],
    )
    def test_plain_truncation_at_every_offset(self, dtype, items):
        buf = encodings.encode_plain(Column.from_pylist(dtype, items))
        full = encodings.decode_plain(dtype, buf)
        assert full.to_pylist() == items
        for cut in range(len(buf)):
            with pytest.raises(ExecutionError):
                encodings.decode_plain(dtype, buf[:cut])
            with pytest.raises(ExecutionError):
                decode_plain_naive(dtype, buf[:cut])

    def test_codes_plain_truncation_at_every_offset(self):
        buf = encodings.encode_codes_plain(np.array([3, -1, 0, 7], dtype=np.int32))
        for cut in range(len(buf)):
            with pytest.raises(ExecutionError):
                encodings.decode_codes_plain(buf[:cut])

    def test_codes_rle_truncation_at_every_offset(self):
        buf = encodings.encode_codes_rle(np.array([0, 0, 1, 1, 1, -1], dtype=np.int32))
        for cut in range(len(buf)):
            with pytest.raises(ExecutionError):
                encodings.decode_codes_rle(buf[:cut])

    def test_short_payload_no_longer_decodes_silently(self):
        # Chop mid-payload of the last string: the old decoder returned a
        # short value; now it must raise.
        col = Column.from_pylist(DataType.STRING, ["aa", "bbbb"])
        buf = encodings.encode_plain(col)
        with pytest.raises(ExecutionError, match="truncated PLAIN chunk"):
            encodings.decode_plain(DataType.STRING, buf[: len(buf) - 2])


class TestRleSingleRun:
    def test_single_run(self):
        codes = np.full(257, 5, dtype=np.int32)
        out = encodings.decode_codes_rle(encodings.encode_codes_rle(codes))
        assert (out == codes).all()

    def test_single_null_run(self):
        codes = np.full(3, -1, dtype=np.int32)
        out = encodings.decode_codes_rle(encodings.encode_codes_rle(codes))
        assert list(out) == [-1, -1, -1]


_DTYPE_STRATEGIES = [
    (DataType.INT64, st.one_of(st.none(), st.integers(-(2**62), 2**62 - 1))),
    (DataType.FLOAT64, st.one_of(st.none(), st.floats(allow_nan=False, width=64))),
    (DataType.BOOL, st.one_of(st.none(), st.booleans())),
    (DataType.STRING, st.one_of(st.none(), st.text(max_size=24))),
    (DataType.BYTES, st.one_of(st.none(), st.binary(max_size=24))),
]


@pytest.mark.parametrize("dtype,strategy", _DTYPE_STRATEGIES, ids=lambda p: str(p))
def test_vectorized_plain_matches_naive_property(dtype, strategy):
    @given(st.lists(strategy, max_size=120))
    def check(items):
        col = Column.from_pylist(dtype, items)
        fast = encodings.encode_plain(col)
        naive = encode_plain_naive(col)
        assert fast == naive  # byte-identical encode, empty columns included
        out_fast = encodings.decode_plain(dtype, fast)
        out_naive = decode_plain_naive(dtype, fast)
        assert out_fast.to_pylist() == out_naive.to_pylist() == items
        assert (out_fast.is_valid() == out_naive.is_valid()).all()

    check()
