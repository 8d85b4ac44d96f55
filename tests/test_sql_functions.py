"""Coverage for every registered scalar function."""

import pytest

from repro.data import DataType, Schema, batch_from_pydict
from repro.sql import Binder, evaluate, parse_expression

SCHEMA = Schema.of(
    ("x", DataType.INT64),
    ("f", DataType.FLOAT64),
    ("s", DataType.STRING),
)


@pytest.fixture(scope="module")
def batch():
    return batch_from_pydict(
        SCHEMA,
        {
            "x": [5, -3, None],
            "f": [2.71, -1.5, 0.5],
            "s": ["  Hello  ", "world", None],
        },
    )


def run(sql, batch):
    bound = Binder(SCHEMA).bind(parse_expression(sql))
    return evaluate(bound, batch).to_pylist()


@pytest.mark.parametrize(
    "sql,expected",
    [
        ("UPPER(s)", ["  HELLO  ", "WORLD", None]),
        ("LOWER(s)", ["  hello  ", "world", None]),
        ("TRIM(s)", ["Hello", "world", None]),
        ("LENGTH(s)", [9, 5, None]),
        ("ABS(x)", [5, 3, None]),
        ("ROUND(f)", [3.0, -2.0, 0.0]),
        ("ROUND(f, 1)", [2.7, -1.5, 0.5]),
        ("FLOOR(f)", [2.0, -2.0, 0.0]),
        ("CEIL(f)", [3.0, -1.0, 1.0]),
        ("COALESCE(x, 0)", [5, -3, 0]),
        ("IFNULL(s, 'missing')", ["  Hello  ", "world", "missing"]),
        ("IF(x > 0, 'pos', 'neg')", ["pos", "neg", "neg"]),
        ("SAFE_DIVIDE(f, 0)", [None, None, None]),
        ("SAFE_DIVIDE(10.0, f)", [pytest.approx(10 / 2.71), pytest.approx(10 / -1.5), 20.0]),
        ("GREATEST(x, 0)", [5, 0, None]),
        ("LEAST(x, 0)", [0, -3, None]),
        ("SUBSTR(s, 3)", ["Hello  ", "rld", None]),
        ("SUBSTR(s, 1, 2)", ["  ", "wo", None]),
        ("STARTS_WITH(s, '  ')", [True, False, None]),
        ("REGEXP_CONTAINS(s, 'o.l')", [False, True, None]),
        ("CONCAT(s, '!')", ["  Hello  !", "world!", None]),
        ("CONCAT('a', 'b', 'c')", ["abc", "abc", "abc"]),
        ("GREATEST(s, 'v')", ["v", "world", None]),
        ("LEAST(s, 'v', s)", ["  Hello  ", "v", None]),
        ("GREATEST(x, f)", [5.0, -1.5, None]),
    ],
)
def test_scalar_functions(batch, sql, expected):
    assert run(sql, batch) == expected


class TestTemporalConversions:
    def test_timestamp_of_date_column(self):
        from repro.sql.dates import MICROS_PER_DAY, parse_date_to_days

        schema = Schema.of(("d", DataType.DATE))
        batch = batch_from_pydict(schema, {"d": [parse_date_to_days("2023-03-01")]})
        bound = Binder(schema).bind(parse_expression("TIMESTAMP(d)"))
        out = evaluate(bound, batch).to_pylist()
        assert out == [parse_date_to_days("2023-03-01") * MICROS_PER_DAY]

    def test_date_of_timestamp_column(self):
        from repro.sql.dates import parse_date_to_days, parse_timestamp_to_micros

        schema = Schema.of(("ts", DataType.TIMESTAMP))
        batch = batch_from_pydict(
            schema, {"ts": [parse_timestamp_to_micros("2023-03-01 13:45:00")]}
        )
        bound = Binder(schema).bind(parse_expression("DATE(ts)"))
        assert evaluate(bound, batch).to_pylist() == [parse_date_to_days("2023-03-01")]

    def test_string_parsing_forms(self):
        from repro.sql.dates import parse_date_to_days

        schema = Schema.of(("s", DataType.STRING))
        batch = batch_from_pydict(schema, {"s": ["2023-03-01"]})
        bound = Binder(schema).bind(parse_expression("DATE(s)"))
        assert evaluate(bound, batch).to_pylist() == [parse_date_to_days("2023-03-01")]
