"""Tests for AST -> SQL serialization, including a parse/print round-trip
property over generated expressions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sql import ast, parse_expression
from repro.sql.printer import strip_qualifiers, to_sql


class TestToSql:
    @pytest.mark.parametrize(
        "sql",
        [
            "a + b * 2 > 10",
            "x IN (1, 2, 3)",
            "x NOT IN ('a', 'b')",
            "x BETWEEN 1 AND 5",
            "name LIKE 'a%'",
            "name NOT LIKE '_b'",
            "x IS NULL",
            "x IS NOT NULL",
            "NOT (a AND b)",
            "CASE WHEN x > 1 THEN 'big' ELSE 'small' END",
            "CAST(x AS FLOAT64)",
            "COALESCE(a, b, 0)",
            "COUNT(*)",
            "COUNT(DISTINCT x)",
            "TIMESTAMP '2023-11-01'",
            "DATE '2023-11-01'",
            "-x + 1",
            "a / b % c",
            "s || 't'",
            "TRUE AND FALSE OR NULL",
            "t.col = u.col",
        ],
    )
    def test_round_trip(self, sql):
        expr = parse_expression(sql)
        assert parse_expression(to_sql(expr)) == expr

    def test_string_escaping(self):
        expr = parse_expression("name = 'it''s'")
        assert parse_expression(to_sql(expr)) == expr


class TestStripQualifiers:
    def test_column_refs_unqualified(self):
        expr = parse_expression("o.amount > 10 AND o.region IN ('us')")
        stripped = strip_qualifiers(expr)
        assert "o." not in to_sql(stripped)
        assert parse_expression("amount > 10 AND region IN ('us')") == stripped

    def test_idempotent(self):
        expr = parse_expression("a + b")
        assert strip_qualifiers(strip_qualifiers(expr)) == strip_qualifiers(expr)

    def test_nested_structures(self):
        expr = parse_expression(
            "CASE WHEN t.x BETWEEN 1 AND t.y THEN UPPER(t.s) END"
        )
        stripped = strip_qualifiers(expr)
        assert "t." not in to_sql(stripped)


# -- property: any generated expression survives print -> parse ---------------

_names = st.sampled_from(["a", "b", "c", "col1"])
_refs = st.one_of(
    _names.map(lambda n: ast.ColumnRef((n,))),
    st.tuples(st.sampled_from(["t", "u"]), _names).map(ast.ColumnRef),
)
_literals = st.one_of(
    st.integers(-1000, 1000).map(ast.Literal),
    st.sampled_from([0.5, -2.25, 1000.0]).map(ast.Literal),
    st.booleans().map(ast.Literal),
    st.none().map(ast.Literal),
    st.text(alphabet="abcxyz' ", max_size=6).map(ast.Literal),
    st.sampled_from(["DATE", "TIMESTAMP"]).map(lambda t: ast.Literal("2023-11-01", t)),
)
_leaves = st.one_of(_literals, _refs)


def _exprs(children):
    """Every expression kind ``to_sql`` prints, each flag included."""
    binary = st.tuples(
        st.sampled_from(["+", "-", "*", "=", "<", ">=", "AND", "OR"]),
        children, children,
    ).map(lambda t: ast.BinaryOp(*t))
    unary = children.map(lambda e: ast.UnaryOp("NOT", e))
    is_null = st.tuples(children, st.booleans()).map(lambda t: ast.IsNull(*t))
    in_list = st.tuples(
        children, st.lists(st.one_of(_literals, children), min_size=1, max_size=3),
        st.booleans(),
    ).map(lambda t: ast.InList(t[0], tuple(t[1]), t[2]))
    between = st.tuples(children, children, children, st.booleans()).map(
        lambda t: ast.Between(*t)
    )
    like = st.tuples(children, st.text(alphabet="ab%_'", max_size=4), st.booleans()).map(
        lambda t: ast.Like(*t)
    )
    case = st.tuples(
        st.lists(st.tuples(children, children), min_size=1, max_size=2),
        st.none() | children,
    ).map(lambda t: ast.Case(tuple(t[0]), t[1]))
    cast = st.tuples(children, st.sampled_from(["INT64", "FLOAT64", "STRING"])).map(
        lambda t: ast.Cast(*t)
    )
    call = st.tuples(
        st.sampled_from(["COALESCE", "UPPER", "COUNT", "SUM"]),
        st.lists(children, min_size=1, max_size=2),
        st.booleans(),
    ).map(lambda t: ast.FunctionCall(t[0], tuple(t[1]), distinct=t[2]))
    count_star = st.just(ast.FunctionCall("COUNT", (), is_star=True))
    return st.one_of(
        binary, unary, is_null, in_list, between, like, case, cast, call, count_star
    )

expression_strategy = st.recursive(_leaves, _exprs, max_leaves=12)


@given(expression_strategy)
@settings(max_examples=150, deadline=None)
def test_print_parse_round_trip_property(expr):
    assert parse_expression(to_sql(expr)) == expr
