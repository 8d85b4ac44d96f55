"""Tests for Column and DictionaryColumn, including property-based checks."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.data import Column, DataType, DictionaryColumn


def int_column(items):
    return Column.from_pylist(DataType.INT64, items)


class TestColumn:
    def test_from_pylist_nulls(self):
        col = int_column([1, None, 3])
        assert col.null_count() == 1
        assert col.to_pylist() == [1, None, 3]

    def test_all_valid_has_no_mask(self):
        col = int_column([1, 2, 3])
        assert col.validity is None

    def test_getitem_returns_python_values(self):
        col = int_column([7])
        value = col[0]
        assert value == 7
        assert isinstance(value, int) and not isinstance(value, np.integer)

    def test_nulls_constructor(self):
        col = Column.nulls(DataType.STRING, 3)
        assert col.to_pylist() == [None, None, None]

    def test_repeat(self):
        col = Column.repeat(DataType.STRING, "x", 3)
        assert col.to_pylist() == ["x", "x", "x"]

    def test_repeat_none_gives_nulls(self):
        col = Column.repeat(DataType.INT64, None, 2)
        assert col.to_pylist() == [None, None]

    def test_filter(self):
        col = int_column([1, None, 3, 4])
        out = col.filter(np.array([True, True, False, True]))
        assert out.to_pylist() == [1, None, 4]

    def test_take(self):
        col = int_column([10, 20, 30])
        out = col.take(np.array([2, 0, 2]))
        assert out.to_pylist() == [30, 10, 30]

    def test_slice(self):
        col = int_column([1, 2, 3, 4])
        assert col.slice(1, 3).to_pylist() == [2, 3]

    def test_min_max_skips_nulls(self):
        col = int_column([5, None, 2, 9])
        assert col.min_max() == (2, 9)

    def test_min_max_all_null(self):
        assert Column.nulls(DataType.INT64, 3).min_max() == (None, None)

    def test_min_max_strings(self):
        col = Column.from_pylist(DataType.STRING, ["pear", "apple", None])
        assert col.min_max() == ("apple", "pear")

    def test_validity_length_mismatch_rejected(self):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            Column(DataType.INT64, [1, 2], np.array([True]))


class TestDictionaryColumn:
    def test_encode_decode_round_trip(self):
        col = Column.from_pylist(DataType.STRING, ["a", "b", "a", None, "b"])
        dict_col = DictionaryColumn.encode(col)
        assert len(dict_col.dictionary) == 2
        assert dict_col.decode().to_pylist() == col.to_pylist()

    def test_null_codes(self):
        col = Column.from_pylist(DataType.INT64, [1, None, 1])
        dict_col = DictionaryColumn.encode(col)
        assert dict_col.null_count() == 1
        assert list(dict_col.codes) == [0, -1, 0]

    def test_filter_preserves_dictionary(self):
        col = Column.from_pylist(DataType.STRING, ["x", "y", "x"])
        dict_col = DictionaryColumn.encode(col)
        out = dict_col.filter(np.array([True, False, True]))
        assert out.decode().to_pylist() == ["x", "x"]
        assert out.dictionary is dict_col.dictionary


@given(
    st.lists(st.one_of(st.none(), st.integers(-(2**40), 2**40)), max_size=200)
)
def test_dictionary_round_trip_property(items):
    """encode->decode is identity for any int column with nulls."""
    col = Column.from_pylist(DataType.INT64, items)
    assert DictionaryColumn.encode(col).decode().to_pylist() == items


@given(
    st.lists(st.one_of(st.none(), st.text(max_size=8)), max_size=100),
    st.randoms(use_true_random=False),
)
def test_filter_take_consistency_property(items, rng):
    """filter(mask) equals take(indices-of-mask) for string columns."""
    col = Column.from_pylist(DataType.STRING, items)
    mask = np.array([rng.random() < 0.5 for _ in items], dtype=bool)
    filtered = col.filter(mask)
    taken = col.take(np.flatnonzero(mask))
    assert filtered.to_pylist() == taken.to_pylist()
