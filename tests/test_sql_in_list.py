"""The IN-list membership kernel against the loop it replaced.

``evaluate`` tests a ``BoundInList`` with one membership pass over a probe
prepared at bind; ``tests/reference_expressions.py`` is the per-literal
``==`` loop it replaced, kept verbatim. For every operand type and any mix
of literal items the two must return the same column.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.batch import RecordBatch
from repro.data.column import Column
from repro.data.types import DataType, Schema
from repro.sql import ast_nodes as ast
from repro.sql.expressions import Binder, BoundInList, evaluate, evaluate_predicate
from repro.sql.parser import parse_expression

from tests.reference_expressions import reference_in_list

_EDGE_INTS = [0, 1, -1, 2, 2**53, 2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63), 2**63, 2**70]
_EDGE_FLOATS = [0.0, -0.0, 1.0, 2.5, float(2**53), float(2**63), math.inf, -math.inf, math.nan]
_TEXTS = ["", "a", "1", "it's", "é"]

ints = st.one_of(st.sampled_from(_EDGE_INTS), st.integers(-5, 5))
int64s = ints.filter(lambda v: -(2**63) <= v < 2**63)
floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.integers(-5, 5).map(float))
texts = st.sampled_from(_TEXTS)
blobs = texts.map(lambda s: s.encode("utf-8"))

# Any literal the parser or an in-process caller can put in an IN list.
items = st.lists(
    st.one_of(ints, floats, st.booleans(), texts, blobs, st.none()), max_size=8
)

_OPERAND_VALUES = {
    DataType.INT64: int64s,
    DataType.DATE: int64s,
    DataType.TIMESTAMP: int64s,
    DataType.FLOAT64: floats,
    DataType.BOOL: st.booleans(),
    DataType.STRING: texts,
    DataType.BYTES: blobs,
}


@st.composite
def operands(draw):
    dtype = draw(st.sampled_from(sorted(_OPERAND_VALUES, key=lambda d: d.value)))
    values = draw(st.lists(st.one_of(st.none(), _OPERAND_VALUES[dtype]), max_size=12))
    return Column.from_pylist(dtype, values)


def bound_in_list(column: Column, literals, negated: bool = False) -> tuple[BoundInList, RecordBatch]:
    schema = Schema.of(("x", column.dtype))
    tree = ast.InList(ast.ColumnRef(("x",)), tuple(map(ast.Literal, literals)), negated)
    return Binder(schema).bind(tree), RecordBatch(schema, [column])


def assert_same_column(got: Column, want: Column) -> None:
    assert got.dtype is want.dtype is DataType.BOOL
    np.testing.assert_array_equal(got.values, want.values)
    np.testing.assert_array_equal(got.is_valid(), want.is_valid())


@settings(deadline=None)
@given(operands(), items, st.booleans())
def test_same_column_as_the_reference(column, literals, negated):
    bound, batch = bound_in_list(column, literals, negated)
    values = bound.values
    if column.dtype is DataType.BOOL:
        # The one place the loop had no answer: a bool array compared with an
        # int no int64 holds raised OverflowError. Such an item equals no
        # operand value, which is what the loop computes for every other type.
        values = tuple(
            v for v in values if not isinstance(v, int) or -(2**63) <= v < 2**63
        )
    assert_same_column(evaluate(bound, batch), reference_in_list(column, values, negated))


@pytest.mark.parametrize("dtype", sorted(_OPERAND_VALUES, key=lambda d: d.value))
@pytest.mark.parametrize("literals", [(), (None,), (None, None)])
def test_a_list_with_no_value_matches_nothing(dtype, literals):
    value = {"STRING": "a", "BYTES": b"a"}.get(dtype.value, 1)
    column = Column.from_pylist(dtype, [value, None])
    for negated in (False, True):
        bound, batch = bound_in_list(column, literals, negated)
        got = evaluate(bound, batch)
        assert_same_column(got, reference_in_list(column, bound.values, negated))
        # x IN () is false, x NOT IN () true, for a present x; NULL stays NULL.
        assert got.to_pylist() == [negated, None]


class TestWhatEqualsWhat:
    """The item-by-item meaning of ``==`` the kernel keeps."""

    def mask(self, dtype, values, sql):
        schema = Schema.of(("x", dtype))
        batch = RecordBatch(schema, [Column.from_pylist(dtype, values)])
        return evaluate_predicate(Binder(schema).bind(parse_expression(sql)), batch).tolist()

    def test_null_items_never_match_and_null_operands_never_qualify(self):
        assert self.mask(DataType.INT64, [1, None, 2], "x IN (1, NULL)") == [True, False, False]
        assert self.mask(DataType.INT64, [1, None, 2], "x NOT IN (1, NULL)") == [False, False, True]
        assert self.mask(DataType.STRING, ["a", None], "x IN ('a', NULL)") == [True, False]

    def test_nan_matches_nothing(self):
        column = Column.from_pylist(DataType.FLOAT64, [math.nan, 1.0])
        bound, batch = bound_in_list(column, [math.nan, 1.0])
        assert evaluate_predicate(bound, batch).tolist() == [False, True]

    def test_one_is_one_point_zero_is_true(self):
        assert self.mask(DataType.INT64, [1, 0, 2], "x IN (TRUE)") == [True, False, False]
        assert self.mask(DataType.INT64, [1, 0, 2], "x IN (1.0, 0.0)") == [True, True, False]
        assert self.mask(DataType.FLOAT64, [1.0, 2.5], "x IN (1, TRUE)") == [True, False]
        assert self.mask(DataType.BOOL, [True, False], "x IN (1)") == [True, False]
        assert self.mask(DataType.BOOL, [True, False], "x IN (0.0, 2)") == [False, True]

    def test_text_equals_only_text(self):
        assert self.mask(DataType.INT64, [1], "x IN ('1')") == [False]
        assert self.mask(DataType.STRING, ["1", "a"], "x IN (1, 'a')") == [False, True]
        assert self.mask(DataType.STRING, ["it's"], "x IN ('it''s')") == [True]
        column = Column.from_pylist(DataType.BYTES, [b"a", b"b"])
        bound, batch = bound_in_list(column, ["a", b"b"])
        assert evaluate_predicate(bound, batch).tolist() == [False, True]

    def test_int_items_compare_exactly_float_items_as_float64(self):
        big = 2**53 + 1
        column = Column.from_pylist(DataType.INT64, [big])
        for literals, want in [((2**53,), False), ((float(2**53),), True), ((2**53, 0.5), False)]:
            bound, batch = bound_in_list(column, literals)
            assert evaluate_predicate(bound, batch).tolist() == [want]

    def test_typed_literals_bind_to_their_storage_value(self):
        assert self.mask(DataType.DATE, [0, 1, 2], "x IN (DATE '1970-01-02', 2)") == [
            False, True, True,
        ]
