"""Tests for pruning-constraint extraction from SQL predicates."""

from repro.data.types import DataType, Schema
from repro.sql.analysis import extract_constraints
from repro.sql.dates import MICROS_PER_DAY, parse_date_to_days, parse_timestamp_to_micros
from repro.sql.parser import parse_expression

SCHEMA = Schema.of(
    *((name, DataType.INT64) for name in ("x", "y", "a", "b")),
    ("amount", DataType.FLOAT64), ("region", DataType.STRING), ("name", DataType.STRING),
    ("ts", DataType.TIMESTAMP), ("create_time", DataType.TIMESTAMP), ("d", DataType.DATE),
)


def extract(sql):
    return extract_constraints(parse_expression(sql), SCHEMA)


class TestComparisons:
    def test_equality(self):
        cs = extract("x = 5")
        c = cs.get("x")
        assert (c.lo, c.hi) == (5, 5)
        assert c.in_set == frozenset({5})

    def test_range_bounds(self):
        cs = extract("x > 3 AND x <= 10")
        c = cs.get("x")
        assert (c.lo, c.hi) == (3, 10)

    def test_mirrored_comparison(self):
        cs = extract("100 > x")
        assert cs.get("x").hi == 100
        cs = extract("5 <= x")
        assert cs.get("x").lo == 5

    def test_negative_literal(self):
        cs = extract("x >= -5")
        assert cs.get("x").lo == -5

    def test_inequality_prunes_nothing(self):
        assert extract("x != 5").is_empty

    def test_qualified_column_uses_tail(self):
        cs = extract("t.amount > 10")
        assert cs.get("amount").lo == 10

    def test_column_vs_column_ignored(self):
        assert extract("a = b").is_empty


class TestCompound:
    def test_conjunction_merges(self):
        cs = extract("x > 0 AND y < 5 AND x < 100")
        assert (cs.get("x").lo, cs.get("x").hi) == (0, 100)
        assert cs.get("y").hi == 5

    def test_disjunction_extracts_nothing(self):
        assert extract("x > 0 OR y < 5").is_empty

    def test_mixed_and_or_keeps_only_top_level_conjuncts(self):
        cs = extract("x > 0 AND (y = 1 OR y = 2)")
        assert cs.get("x") is not None
        assert cs.get("y") is None

    def test_in_list(self):
        cs = extract("region IN ('us', 'eu')")
        assert cs.get("region").in_set == frozenset({"us", "eu"})

    def test_negated_in_ignored(self):
        assert extract("region NOT IN ('us')").is_empty

    def test_between(self):
        cs = extract("x BETWEEN 2 AND 9")
        assert (cs.get("x").lo, cs.get("x").hi) == (2, 9)

    def test_like_ignored(self):
        assert extract("name LIKE 'a%'").is_empty


class TestTemporalLiterals:
    def test_typed_timestamp_literal(self):
        cs = extract("ts > TIMESTAMP '2023-11-01'")
        assert cs.get("ts").lo == parse_timestamp_to_micros("2023-11-01")

    def test_timestamp_function_form(self):
        """Listing 1 uses TIMESTAMP('23-11-1')."""
        cs = extract("create_time > TIMESTAMP('23-11-1')")
        assert cs.get("create_time").lo == parse_timestamp_to_micros("2023-11-1")

    def test_date_literal(self):
        cs = extract("d < DATE '2024-01-01'")
        assert cs.get("d").hi == parse_date_to_days("2024-01-01")

    def test_null_comparison_ignored(self):
        assert extract("x = NULL").is_empty


class TestColumnUnits:
    """Each literal reaches the pruner in its column's unit, or not at all."""

    def test_date_literal_against_timestamp_column_becomes_micros(self):
        day = parse_date_to_days("2030-01-01")
        assert extract("ts < DATE '2030-01-01'").get("ts").hi == day * MICROS_PER_DAY
        assert extract("ts IN (DATE '2030-01-01')").get("ts").in_set == {day * MICROS_PER_DAY}

    def test_timestamp_literal_against_date_column_prunes_only_at_midnight(self):
        day = parse_date_to_days("2020-01-01")
        assert extract("d > TIMESTAMP '2020-01-01 00:00:00'").get("d").lo == day
        assert extract("d IN (DATE '2020-01-01', TIMESTAMP '2020-01-02')").get("d").in_set == {
            day, day + 1,
        }
        assert extract("d > TIMESTAMP '2020-01-01 00:00:01'").is_empty
        assert extract("d IN (DATE '2020-01-01', TIMESTAMP '2020-01-02 12:00:00')").is_empty
        assert extract("d BETWEEN DATE '2020-01-01' AND TIMESTAMP '2021-01-01 00:00:01'").is_empty

    def test_ints_meet_dates_and_floats_as_they_are(self):
        assert extract("d >= 19000").get("d").lo == 19000
        assert extract("ts <= 5").get("ts").hi == 5
        assert extract("amount = 3").get("amount").in_set == {3}
        assert extract("x < 2.5").get("x").hi == 2.5

    def test_types_that_do_not_meet_and_unknown_columns_prune_nothing(self):
        assert extract("x = 'a'").is_empty
        assert extract("d > 1.5").is_empty
        assert extract("missing = 1").is_empty


class TestSoundness:
    def test_extraction_never_excludes_matching_rows(self):
        """Property: for every predicate here, any row satisfying it lies
        within the extracted constraints."""
        from repro.metastore.constraints import StatsTable, can_match

        cases = [
            ("x > 5 AND x < 10", {"x": 7}, True),
            ("x > 5 AND x < 10", {"x": 5}, False),
            ("x = 3 AND y IN (1, 2)", {"x": 3, "y": 2}, True),
            ("x BETWEEN 0 AND 1", {"x": 0}, True),
        ]
        for sql, row, satisfies in cases:
            cs = extract(sql)
            # The row as a unit whose every column is a partition value.
            admitted = can_match(cs, StatsTable.build([(1, row.items(), ())]))[0]
            if satisfies:
                assert admitted, f"{sql} wrongly pruned {row}"
