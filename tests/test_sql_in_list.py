"""The IN-list membership kernel against the loop it replaced.

``evaluate`` tests a ``BoundInList`` with one membership pass over a probe
prepared at bind; ``tests/reference_expressions.py`` is the per-literal
``==`` loop it replaced, kept verbatim. For every operand type and any mix
of literal items whose types meet the operand's (``common_type``) the two
must return the same column; any other mix is an ``AnalysisError``, as
``x = item`` is. A list that holds a NULL is never FALSE, where the loop
answers FALSE: there stdlib sqlite3 decides each row's three-valued answer
from whether a non-NULL item equals it.
"""

from __future__ import annotations

import math
import sqlite3
from contextlib import closing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.batch import RecordBatch
from repro.data.column import Column
from repro.data.types import DataType, Schema, common_type
from repro.errors import AnalysisError
from repro.sql import ast_nodes as ast
from repro.sql.expressions import (
    PLAIN_LITERAL_TYPES, Binder, BoundInList, evaluate, evaluate_predicate,
)
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
_ITEMS = {
    DataType.INT64: ints, DataType.FLOAT64: floats, DataType.BOOL: st.booleans(),
    DataType.STRING: texts, DataType.BYTES: blobs,
}
items = st.lists(st.one_of(st.none(), *_ITEMS.values()), max_size=8)


def items_meeting(dtype: DataType):
    """Lists of the literals whose types meet an operand of ``dtype``."""
    kinds = [_ITEMS[kind] for kind in _ITEMS if common_type(dtype, kind) is not None]
    return st.lists(st.one_of(st.none(), *kinds), max_size=8)


def meets(dtype: DataType, literals) -> bool:
    return all(
        v is None or common_type(dtype, PLAIN_LITERAL_TYPES[type(v)]) is not None
        for v in literals
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


def sqlite_in_list(column: Column, literals, negated: bool) -> list:
    """``x [NOT] IN (literals)`` per row of ``column``, a list that holds a
    NULL, as sqlite3 answers it: each row becomes 1 where a non-NULL item
    equals it (the reference loop decides that), 0 where none does and NULL
    for a NULL operand, and the non-NULL items become one item ``1``."""
    present = tuple(v for v in literals if v is not None)
    hit = reference_in_list(column, present, False).to_pylist()
    items = ["1"] * bool(present) + ["NULL"] * (len(literals) - len(present))
    negation = "NOT " if negated else ""
    sql = f"SELECT h {negation}IN ({', '.join(items)}) FROM hits ORDER BY rowid"
    with closing(sqlite3.connect(":memory:")) as db:
        db.execute("CREATE TABLE hits (h INTEGER)")
        db.executemany("INSERT INTO hits VALUES (?)", [(h,) for h in hit])
        return [None if v is None else bool(v) for (v,) in db.execute(sql)]


@settings(deadline=None)
@given(operands(), st.data(), st.booleans())
def test_same_column_as_the_reference(column, data, negated):
    literals = data.draw(st.one_of(items_meeting(column.dtype), items))
    if not meets(column.dtype, literals):
        with pytest.raises(AnalysisError, match="incompatible types"):
            bound_in_list(column, literals, negated)
        return
    bound, batch = bound_in_list(column, literals, negated)
    assert bound.values == tuple(literals)
    if None in literals:
        assert evaluate(bound, batch).to_pylist() == sqlite_in_list(column, literals, negated)
    else:
        assert_same_column(evaluate(bound, batch), reference_in_list(column, bound.values, negated))


@pytest.mark.parametrize("dtype", sorted(_OPERAND_VALUES, key=lambda d: d.value))
@pytest.mark.parametrize("literals", [(), (None,), (None, None)])
def test_a_list_with_no_value_matches_nothing(dtype, literals):
    value = {"STRING": "a", "BYTES": b"a"}.get(dtype.value, 1)
    column = Column.from_pylist(dtype, [value, None])
    for negated in (False, True):
        bound, batch = bound_in_list(column, literals, negated)
        got = evaluate(bound, batch)
        if literals:
            # x IN (NULL) and x NOT IN (NULL) are NULL, a present x included.
            assert got.to_pylist() == sqlite_in_list(column, literals, negated) == [None, None]
            continue
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
        """A NULL item matches nothing, but a miss against it is NULL, not
        FALSE: ``x NOT IN (1, NULL)`` keeps no row, as in sqlite3."""
        assert self.mask(DataType.INT64, [1, None, 2], "x IN (1, NULL)") == [True, False, False]
        assert self.mask(DataType.INT64, [1, None, 2], "x NOT IN (1, NULL)") == [False, False, False]
        assert self.mask(DataType.STRING, ["a", None], "x IN ('a', NULL)") == [True, False]

    def test_nan_matches_nothing(self):
        column = Column.from_pylist(DataType.FLOAT64, [math.nan, 1.0])
        bound, batch = bound_in_list(column, [math.nan, 1.0])
        assert evaluate_predicate(bound, batch).tolist() == [False, True]

    def test_one_is_one_point_zero_is_true(self):
        """1 = 1.0, and TRUE = TRUE; a BOOL meets no number, as in ``x = 1``."""
        assert self.mask(DataType.INT64, [1, 0, 2], "x IN (1.0, 0.0)") == [True, True, False]
        assert self.mask(DataType.FLOAT64, [1.0, 2.5], "x IN (1, 3)") == [True, False]
        assert self.mask(DataType.BOOL, [True, False], "x IN (TRUE)") == [True, False]
        for dtype, sql in [(DataType.INT64, "x IN (TRUE)"), (DataType.BOOL, "x IN (0.0, 2)")]:
            with pytest.raises(AnalysisError, match="incompatible types"):
                self.mask(dtype, [], sql)

    def test_text_equals_only_text(self):
        """Text meets only text of its own kind, as in ``x = '1'``."""
        assert self.mask(DataType.STRING, ["it's"], "x IN ('it''s')") == [True]
        for dtype, sql in [(DataType.INT64, "x IN ('1')"), (DataType.STRING, "x IN (1, 'a')")]:
            with pytest.raises(AnalysisError, match="incompatible types"):
                self.mask(dtype, [], sql)
        column = Column.from_pylist(DataType.BYTES, [b"a", b"b"])
        bound, batch = bound_in_list(column, [b"b"])
        assert evaluate_predicate(bound, batch).tolist() == [False, True]
        with pytest.raises(AnalysisError, match="incompatible types"):
            bound_in_list(column, ["a", b"b"])

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

    def test_dates_and_timestamps_meet_in_the_operands_unit(self):
        """``t IN (DATE …)`` is ``t = DATE …``: the day's midnight; ``d IN
        (TIMESTAMP …)`` holds only for a midnight."""
        day = 86_400_000_000
        assert self.mask(DataType.TIMESTAMP, [day, day + 1], "x IN (DATE '1970-01-02')") == [
            True, False,
        ]
        sql = "x IN (TIMESTAMP '1970-01-02 00:00:00', TIMESTAMP '1970-01-03 00:00:01')"
        assert self.mask(DataType.DATE, [1, 2], sql) == [True, False]
        with pytest.raises(AnalysisError, match="incompatible types"):
            self.mask(DataType.DATE, [1], "x IN (1.5)")
