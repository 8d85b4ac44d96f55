"""Tests for the SQL lexer and parser."""

import sqlite3
from contextlib import closing

import pytest
from hypothesis import given, settings, strategies as st

from repro import DataType, Schema, batch_from_pydict
from repro.errors import SqlSyntaxError
from repro.sql import ast, parse_expression, parse_statement
from repro.sql.expressions import Binder, evaluate
from repro.sql.printer import to_sql
from repro.sql.tokens import TokenKind, tokenize


class TestLexer:
    def test_keywords_and_idents(self):
        tokens = tokenize("SELECT foo FROM Bar")
        assert [t.kind for t in tokens[:4]] == [
            TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.IDENT,
        ]
        assert tokens[0].text == "SELECT"

    def test_string_with_escaped_quote(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].text == "it's"

    def test_numbers(self):
        tokens = tokenize("1 2.5 1e3 1.5e-2")
        assert [t.text for t in tokens[:-1]] == ["1", "2.5", "1e3", "1.5e-2"]

    def test_line_comment_skipped(self):
        tokens = tokenize("SELECT 1 -- comment\n, 2")
        texts = [t.text for t in tokens[:-1]]
        assert "comment" not in " ".join(texts)

    def test_multi_char_symbols(self):
        tokens = tokenize("a <= b != c")
        symbols = [t.text for t in tokens if t.kind is TokenKind.SYMBOL]
        assert symbols == ["<=", "!="]

    def test_quoted_identifier(self):
        tokens = tokenize("`weird name`")
        assert tokens[0].kind is TokenKind.IDENT
        assert tokens[0].text == "weird name"

    def test_unterminated_string_raises(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'oops")

    def test_garbage_raises(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT @")


class TestExpressionParsing:
    def test_precedence_arith_over_comparison(self):
        expr = parse_expression("a + b * 2 > 10")
        assert isinstance(expr, ast.BinaryOp) and expr.op == ">"
        assert isinstance(expr.left, ast.BinaryOp) and expr.left.op == "+"
        assert isinstance(expr.left.right, ast.BinaryOp) and expr.left.right.op == "*"

    def test_and_binds_tighter_than_or(self):
        expr = parse_expression("a OR b AND c")
        assert expr.op == "OR"
        assert isinstance(expr.right, ast.BinaryOp) and expr.right.op == "AND"

    def test_not_in(self):
        expr = parse_expression("x NOT IN (1, 2)")
        assert isinstance(expr, ast.InList) and expr.negated

    def test_between(self):
        expr = parse_expression("x BETWEEN 1 AND 5")
        assert isinstance(expr, ast.Between)

    def test_like(self):
        expr = parse_expression("name LIKE 'a%'")
        assert isinstance(expr, ast.Like) and expr.pattern == "a%"

    def test_is_not_null(self):
        expr = parse_expression("x IS NOT NULL")
        assert isinstance(expr, ast.IsNull) and expr.negated

    def test_case_when(self):
        expr = parse_expression("CASE WHEN x > 1 THEN 'big' ELSE 'small' END")
        assert isinstance(expr, ast.Case) and len(expr.whens) == 1

    def test_cast(self):
        expr = parse_expression("CAST(x AS FLOAT64)")
        assert isinstance(expr, ast.Cast) and expr.target_type == "FLOAT64"

    def test_typed_literals(self):
        ts = parse_expression("TIMESTAMP '2023-11-01'")
        assert isinstance(ts, ast.Literal) and ts.type_hint == "TIMESTAMP"
        date = parse_expression("DATE '2023-11-01'")
        assert date.type_hint == "DATE"

    def test_dotted_function_name(self):
        expr = parse_expression("ML.DECODE_IMAGE(data)")
        assert isinstance(expr, ast.FunctionCall) and expr.name == "ML.DECODE_IMAGE"

    def test_count_star(self):
        expr = parse_expression("COUNT(*)")
        assert isinstance(expr, ast.FunctionCall) and expr.is_star

    def test_count_distinct(self):
        expr = parse_expression("COUNT(DISTINCT x)")
        assert expr.distinct

    def test_qualified_column(self):
        expr = parse_expression("t.col")
        assert isinstance(expr, ast.ColumnRef) and expr.parts == ("t", "col")

    def test_unary_minus(self):
        expr = parse_expression("-x + 1")
        assert expr.op == "+"
        assert isinstance(expr.left, ast.UnaryOp)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_expression("1 + 2 extra extra")


class TestSelectParsing:
    def test_minimal(self):
        stmt = parse_statement("SELECT 1")
        assert isinstance(stmt, ast.Select)
        assert stmt.from_item is None

    def test_full_query_shape(self):
        stmt = parse_statement(
            """
            SELECT region, SUM(amount) AS total
            FROM ds.sales
            WHERE amount > 0
            GROUP BY region
            HAVING SUM(amount) > 100
            ORDER BY total DESC
            LIMIT 5
            """
        )
        assert stmt.items[1].alias == "total"
        assert isinstance(stmt.from_item, ast.TableRef)
        assert len(stmt.group_by) == 1
        assert stmt.having is not None
        assert not stmt.order_by[0].ascending
        assert stmt.limit == 5

    def test_star_and_qualified_star(self):
        stmt = parse_statement("SELECT *, t.* FROM ds.t AS t")
        assert isinstance(stmt.items[0].expr, ast.Star)
        assert stmt.items[1].expr.qualifier == "t"

    def test_join_chain(self):
        stmt = parse_statement(
            "SELECT a.x FROM ds.a AS a JOIN ds.b AS b ON a.k = b.k "
            "LEFT JOIN ds.c c ON b.k = c.k"
        )
        join = stmt.from_item
        assert isinstance(join, ast.Join) and join.kind == "LEFT"
        assert isinstance(join.left, ast.Join) and join.left.kind == "INNER"

    def test_cross_join(self):
        stmt = parse_statement("SELECT 1 FROM ds.a CROSS JOIN ds.b")
        assert stmt.from_item.kind == "CROSS"

    def test_subquery_in_from(self):
        stmt = parse_statement("SELECT x FROM (SELECT x FROM ds.t) AS sub")
        assert isinstance(stmt.from_item, ast.SubqueryRef)
        assert stmt.from_item.alias == "sub"

    def test_union_all(self):
        stmt = parse_statement("SELECT 1 UNION ALL SELECT 2")
        assert stmt.union_all is not None

    def test_paper_listing_1(self):
        """The exact ML.PREDICT query from Listing 1."""
        stmt = parse_statement(
            """
            SELECT uri, predictions FROM
            ML.PREDICT(
              MODEL dataset1.resnet50,
              (
                SELECT ML.DECODE_IMAGE(data) AS image
                FROM dataset1.files
                WHERE content_type = 'image/jpeg'
                AND create_time > TIMESTAMP('23-11-1')
              )
            )
            """
        )
        tvf = stmt.from_item
        assert isinstance(tvf, ast.TvfRef)
        assert tvf.name == "ML.PREDICT"
        assert tvf.model == ("dataset1", "resnet50")
        assert tvf.input_query is not None

    def test_paper_listing_2(self):
        """ML.PROCESS_DOCUMENT over TABLE from Listing 2."""
        stmt = parse_statement(
            """
            SELECT * FROM ML.PROCESS_DOCUMENT(
              MODEL mydataset.invoice_parser,
              TABLE mydataset.documents
            )
            """
        )
        tvf = stmt.from_item
        assert tvf.name == "ML.PROCESS_DOCUMENT"
        assert tvf.input_table == ("mydataset", "documents")

    def test_paper_listing_3(self):
        """Cross-cloud join from Listing 3 parses."""
        stmt = parse_statement(
            """
            SELECT o.order_id, o.order_total, ads.id
            FROM local_dataset.ads_impressions AS ads
            JOIN aws_dataset.customer_orders AS o
            ON o.customer_id = ads.customer_id
            """
        )
        assert isinstance(stmt.from_item, ast.Join)


class TestDmlParsing:
    def test_ctas(self):
        stmt = parse_statement("CREATE OR REPLACE TABLE ds.t AS SELECT 1 AS x")
        assert isinstance(stmt, ast.CreateTableAsSelect)
        assert stmt.replace

    def test_insert_values(self):
        stmt = parse_statement("INSERT INTO ds.t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert isinstance(stmt, ast.InsertValues)
        assert len(stmt.rows) == 2

    def test_insert_select(self):
        stmt = parse_statement("INSERT INTO ds.t SELECT a, b FROM ds.s")
        assert isinstance(stmt, ast.InsertSelect)

    def test_update(self):
        stmt = parse_statement("UPDATE ds.t SET a = a + 1, b = 'x' WHERE a < 5")
        assert isinstance(stmt, ast.Update)
        assert len(stmt.assignments) == 2

    def test_delete(self):
        stmt = parse_statement("DELETE FROM ds.t WHERE a = 1")
        assert isinstance(stmt, ast.Delete)

    def test_merge(self):
        stmt = parse_statement(
            """
            MERGE INTO ds.t AS tgt USING ds.s AS src ON tgt.id = src.id
            WHEN MATCHED AND src.v > 0 THEN UPDATE SET v = src.v
            WHEN MATCHED THEN DELETE
            WHEN NOT MATCHED THEN INSERT (id, v) VALUES (src.id, src.v)
            """
        )
        assert isinstance(stmt, ast.Merge)
        assert [w.action for w in stmt.whens] == ["UPDATE", "DELETE", "INSERT"]
        assert stmt.whens[0].condition is not None

    def test_merge_without_when_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("MERGE INTO ds.t USING ds.s ON 1 = 1")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("SELECT 1 SELECT 2")


# --------------------------------------------------------------------------
# IN-list literal fast path
# --------------------------------------------------------------------------

# Element texts: bare literals (the fast path) next to everything that must
# keep taking the full expression path — signs, typed literals, arithmetic,
# parentheses, calls, column references, and literals followed by an operator.
_quoted = st.text(
    alphabet=st.sampled_from("ab '%_,()-"), max_size=6
).map(lambda s: "'" + s.replace("'", "''") + "'")
_in_item = st.one_of(
    st.integers(0, 10**12).map(str),
    st.floats(0, 1e6, allow_nan=False).map(repr),
    st.sampled_from(["1e3", "2.5E-2", ".5", "NULL", "TRUE", "false", "null"]),
    _quoted,
    st.integers(1, 999).map(lambda n: f"-{n}"),
    st.integers(1, 999).map(lambda n: f"+{n}"),
    st.dates().map(lambda d: f"DATE '{d.isoformat()}'"),
    st.just("TIMESTAMP '2024-01-01 00:00:00'"),
    st.sampled_from([
        "1 + 2", "(3)", "x", "t.x", "ABS(-4)", "2 * (3 + y)", "'a' || 'b'",
        "CAST('7' AS INT64)", "CASE WHEN x > 1 THEN 2 ELSE 3 END", "NULL IS NULL",
        "1 = 1", "NOT TRUE", "5 BETWEEN 1 AND 9",
    ]),
)


class TestInListLiteralFastPath:
    @settings(max_examples=200, deadline=None)
    @given(items=st.lists(_in_item, min_size=1, max_size=12), negated=st.booleans())
    def test_items_parse_as_they_do_on_their_own(self, items, negated):
        """The oracle is the old path: outside an IN list every element
        descends the full precedence chain."""
        keyword = "NOT IN" if negated else "IN"
        parsed = parse_expression(f"k {keyword} ({', '.join(items)}) AND z = 1")
        assert isinstance(parsed, ast.BinaryOp) and parsed.op == "AND"
        in_list = parsed.left
        assert in_list == ast.InList(
            ast.ColumnRef(("k",)),
            tuple(parse_expression(item) for item in items),
            negated=negated,
        )
        assert parsed.right == parse_expression("z = 1")

    def test_bare_literals_skip_the_precedence_chain(self, monkeypatch):
        from repro.sql import parser as parser_module

        descents = []
        original = parser_module._Parser._parse_additive

        def counting(self):
            descents.append(self.peek().text)
            return original(self)

        monkeypatch.setattr(parser_module._Parser, "_parse_additive", counting)
        parse_expression("k IN (1, 'two', 3.5, NULL, TRUE, -4, DATE '2024-01-01', 5 + 6)")
        assert descents == ["k", "-", "DATE", "5"]

    @pytest.mark.parametrize("sql", ["k IN ()", "k IN (1,)", "k IN (1 2)", "k IN (1", "k IN (,1)"])
    def test_malformed_lists_still_raise(self, sql):
        with pytest.raises(SqlSyntaxError):
            parse_expression(sql)

    def test_subquery_form_is_untouched(self):
        stmt = parse_statement("SELECT a FROM t WHERE a IN (SELECT b FROM u)")
        assert isinstance(stmt.where, ast.InSubquery)


class TestIsNullAfterAPredicate:
    """``IS [NOT] NULL`` after an IN, BETWEEN or LIKE applies to that
    predicate, as sqlite3 parses it — the way to see an IN list's NULL."""

    DATA = {"x": [1, None, 2, 5], "s": ["a", None, "b", "ab"]}

    @pytest.mark.parametrize("sql", [
        "x IN (1) IS NULL",
        "x IN (1, NULL) IS NULL",
        "x NOT IN (1, NULL) IS NOT NULL",
        "x BETWEEN 1 AND 2 IS NULL",
        "x NOT BETWEEN 0 AND 1 IS NOT NULL",
        "s LIKE 'a%' IS NULL",
        "s NOT LIKE 'a%' IS NOT NULL",
    ])
    def test_round_trips_and_answers_as_sqlite(self, sql):
        parsed = parse_expression(sql)
        assert isinstance(parsed, ast.IsNull)
        predicate, suffix = sql.split(" IS ")
        assert parsed == parse_expression(f"({predicate}) IS {suffix}")
        printed = to_sql(parsed)
        assert parse_expression(printed) == parsed
        schema = Schema.of(("x", DataType.INT64), ("s", DataType.STRING))
        batch = batch_from_pydict(schema, self.DATA)
        got = evaluate(Binder(schema).bind(parsed), batch).to_pylist()
        with closing(sqlite3.connect(":memory:")) as db:
            db.execute("CREATE TABLE t (x INTEGER, s TEXT)")
            db.executemany("INSERT INTO t VALUES (?, ?)", zip(self.DATA["x"], self.DATA["s"]))
            for text in (sql, printed):
                want = [bool(v) for (v,) in db.execute(f"SELECT {text} FROM t ORDER BY rowid")]
                assert got == want

    def test_after_an_in_subquery(self):
        expr = parse_statement("SELECT a FROM t WHERE a NOT IN (SELECT b FROM u) IS NULL").where
        assert isinstance(expr, ast.IsNull) and not expr.negated
        assert isinstance(expr.operand, ast.InSubquery) and expr.operand.negated
