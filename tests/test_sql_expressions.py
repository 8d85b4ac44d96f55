"""Tests for binding and vectorized evaluation (Superluminal semantics)."""

import re

import pytest
from hypothesis import given, strategies as st

from repro.data import DataType, RecordBatch, Schema, batch_from_pydict
from repro.data.column import Column, DictionaryColumn
from repro.errors import AnalysisError, ExecutionError
from repro.sql import Binder, evaluate, evaluate_predicate, parse_expression
from repro.sql.dates import parse_date_to_days, parse_timestamp_to_micros
from repro.sql.expressions import _FROM_STRING

SCHEMA = Schema.of(
    ("x", DataType.INT64),
    ("y", DataType.FLOAT64),
    ("name", DataType.STRING),
    ("flag", DataType.BOOL),
    ("ts", DataType.TIMESTAMP),
)


@pytest.fixture
def batch():
    return batch_from_pydict(
        SCHEMA,
        {
            "x": [1, 2, None, 4],
            "y": [0.5, None, 2.5, 4.0],
            "name": ["apple", "banana", None, "cherry"],
            "flag": [True, False, True, None],
            "ts": [
                parse_timestamp_to_micros("2023-01-01"),
                parse_timestamp_to_micros("2023-06-15 12:00:00"),
                parse_timestamp_to_micros("2023-12-31"),
                None,
            ],
        },
    )


def run(sql, batch):
    bound = Binder(SCHEMA).bind(parse_expression(sql))
    return evaluate(bound, batch).to_pylist()


class TestArithmetic:
    def test_int_addition(self, batch):
        assert run("x + 10", batch) == [11, 12, None, 14]

    def test_mixed_promotes_to_float(self, batch):
        assert run("x + y", batch) == [1.5, None, None, 8.0]

    def test_division_is_float(self, batch):
        assert run("x / 2", batch) == [0.5, 1.0, None, 2.0]

    def test_division_by_zero_is_null(self, batch):
        assert run("x / 0", batch) == [None, None, None, None]

    def test_modulo(self, batch):
        assert run("x % 2", batch) == [1, 0, None, 0]

    def test_unary_minus(self, batch):
        assert run("-x", batch) == [-1, -2, None, -4]


class TestComparisonsAndLogic:
    def test_comparison_null_propagates(self, batch):
        assert run("x > 1", batch) == [False, True, None, True]

    def test_kleene_and(self, batch):
        # x > 1 AND flag: [F&T=F, T&F=F, NULL&T=NULL, T&NULL=NULL]
        assert run("x > 1 AND flag", batch) == [False, False, None, None]

    def test_kleene_false_and_null_is_false(self, batch):
        assert run("x > 100 AND flag", batch)[3] is False  # FALSE AND NULL

    def test_kleene_or(self, batch):
        # TRUE OR NULL = TRUE
        assert run("x < 100 OR flag", batch)[3] is True

    def test_not(self, batch):
        assert run("NOT flag", batch) == [False, True, False, None]

    def test_predicate_mask_treats_null_as_false(self, batch):
        bound = Binder(SCHEMA).bind(parse_expression("x > 1"))
        assert list(evaluate_predicate(bound, batch)) == [False, True, False, True]

    def test_string_ordering(self, batch):
        assert run("name >= 'banana'", batch) == [False, True, None, True]

    def test_in_list(self, batch):
        assert run("x IN (1, 4)", batch) == [True, False, None, True]

    def test_not_in(self, batch):
        assert run("x NOT IN (1, 4)", batch) == [False, True, None, False]

    def test_between(self, batch):
        assert run("x BETWEEN 2 AND 4", batch) == [False, True, None, True]

    def test_like(self, batch):
        assert run("name LIKE '%an%'", batch) == [False, True, None, False]

    def test_like_underscore(self, batch):
        assert run("name LIKE 'appl_'", batch) == [True, False, None, False]

    def test_is_null(self, batch):
        assert run("x IS NULL", batch) == [False, False, True, False]
        assert run("x IS NOT NULL", batch) == [True, True, False, True]


class TestFunctionsAndCase:
    def test_upper_concat(self, batch):
        assert run("UPPER(name) || '!'", batch) == ["APPLE!", "BANANA!", None, "CHERRY!"]

    def test_coalesce(self, batch):
        assert run("COALESCE(x, 0)", batch) == [1, 2, 0, 4]

    def test_if(self, batch):
        assert run("IF(x > 1, 100, 200)", batch) == [200, 100, 200, 100]

    def test_safe_divide(self, batch):
        assert run("SAFE_DIVIDE(y, x - 1)", batch) == [None, None, None, pytest.approx(4 / 3)]

    def test_case(self, batch):
        out = run("CASE WHEN x = 1 THEN 'one' WHEN x = 2 THEN 'two' ELSE 'many' END", batch)
        assert out == ["one", "two", "many", "many"]

    def test_case_without_else_yields_null(self, batch):
        out = run("CASE WHEN x = 1 THEN 'one' END", batch)
        assert out == ["one", None, None, None]

    def test_substr(self, batch):
        assert run("SUBSTR(name, 1, 3)", batch) == ["app", "ban", None, "che"]

    def test_length(self, batch):
        assert run("LENGTH(name)", batch) == [5, 6, None, 6]

    def test_year_of_timestamp(self, batch):
        assert run("YEAR(ts)", batch) == [2023, 2023, 2023, None]

    def test_unknown_function_rejected(self, batch):
        with pytest.raises(AnalysisError):
            Binder(SCHEMA).bind(parse_expression("NO_SUCH_FN(x)"))

    def test_arity_checked(self, batch):
        with pytest.raises(AnalysisError):
            Binder(SCHEMA).bind(parse_expression("SUBSTR(name)"))


class TestTemporal:
    def test_timestamp_literal_comparison(self, batch):
        out = run("ts > TIMESTAMP '2023-06-01'", batch)
        assert out == [False, True, True, None]

    def test_timestamp_function_with_short_year(self, batch):
        """Listing 1 uses TIMESTAMP('23-11-1')."""
        out = run("ts > TIMESTAMP('23-11-1')", batch)
        assert out == [False, False, True, None]

    def test_date_vs_timestamp_coercion(self, batch):
        out = run("ts >= DATE '2023-06-15'", batch)
        assert out == [False, True, True, None]

    def test_date_parsing(self):
        assert parse_date_to_days("1970-01-02") == 1
        assert parse_timestamp_to_micros("1970-01-01 00:00:01") == 1_000_000


# Texts that are no value of each type CAST reads a STRING as.
_NOT_A_VALUE = {
    DataType.INT64: ["abc", "1.5", "99999999999999999999"],
    DataType.FLOAT64: ["abc", "1,5"],
    DataType.BOOL: ["maybe", "1"],
    DataType.DATE: ["abc", "2024-02-30"],
    DataType.TIMESTAMP: ["abc", "2024-01-01 noon"],
    DataType.BYTES: ["\ud800"],
}


@pytest.mark.parametrize("target", list(_FROM_STRING), ids=lambda d: d.value)
def test_cast_from_a_text_that_is_no_value_raises_one_typed_error(target):
    """``CAST(s AS T)`` over a text that is no T raises one
    ``ExecutionError`` naming the text and T, from a plain column and from
    a dictionary-encoded one; a predicate over the cast is never answered
    per dictionary entry (an unused entry would raise)."""
    schema = Schema.of(("s", DataType.STRING))
    bound = Binder(schema).bind(parse_expression(f"CAST(s AS {target.value}) IS NULL"))
    assert bound.codes_column is None
    for text in _NOT_A_VALUE[target]:
        column = Column.from_pylist(DataType.STRING, [text, None, text])
        error = re.escape(f"cannot CAST {text!r} to {target.value}")
        for encoded in (column, DictionaryColumn.encode(column)):
            with pytest.raises(ExecutionError, match=error):
                evaluate(bound, RecordBatch(schema, [encoded]))


class TestBinding:
    def test_missing_column_rejected(self):
        with pytest.raises(AnalysisError):
            Binder(SCHEMA).bind(parse_expression("nope + 1"))

    def test_qualified_name_resolves_to_tail(self):
        bound = Binder(SCHEMA).bind(parse_expression("t.x"))
        assert bound.name == "x"

    def test_suffix_resolution_on_join_schema(self):
        schema = Schema.of(("a.k", DataType.INT64), ("b.v", DataType.INT64))
        bound = Binder(schema).bind(parse_expression("v"))
        assert bound.name == "b.v"

    def test_ambiguous_suffix_rejected(self):
        schema = Schema.of(("a.k", DataType.INT64), ("b.k", DataType.INT64))
        with pytest.raises(AnalysisError):
            Binder(schema).bind(parse_expression("k"))

    def test_incompatible_types_rejected(self):
        with pytest.raises(AnalysisError):
            Binder(SCHEMA).bind(parse_expression("name + 1"))

    def test_aggregate_in_scalar_context_rejected(self):
        with pytest.raises(AnalysisError):
            Binder(SCHEMA).bind(parse_expression("SUM(x) + 1"))


@given(st.lists(st.one_of(st.none(), st.integers(-100, 100)), min_size=1, max_size=60))
def test_three_valued_logic_property(xs):
    """x > 0 OR x <= 0 is TRUE for non-null x, NULL for null x."""
    schema = Schema.of(("x", DataType.INT64))
    batch = batch_from_pydict(schema, {"x": xs})
    bound = Binder(schema).bind(parse_expression("x > 0 OR x <= 0"))
    out = evaluate(bound, batch).to_pylist()
    assert out == [None if v is None else True for v in xs]
