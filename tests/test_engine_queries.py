"""Engine correctness tests: SQL semantics end to end over managed tables."""

import sqlite3

import pytest

from repro import DataType, Schema, batch_from_pydict
from repro.errors import AnalysisError, QueryError
from repro.sql import expressions
from repro.storageapi.streams import drain_session

from tests.helpers import make_platform, setup_lake_table


@pytest.fixture(scope="module")
def env():
    platform, admin = make_platform()
    platform.catalog.create_dataset("ds")
    orders = Schema.of(
        ("order_id", DataType.INT64),
        ("customer_id", DataType.INT64),
        ("amount", DataType.FLOAT64),
        ("region", DataType.STRING),
    )
    t = platform.tables.create_managed_table("ds", "orders", orders)
    platform.managed.append(
        t.table_id,
        batch_from_pydict(
            orders,
            {
                "order_id": [1, 2, 3, 4, 5, 6],
                "customer_id": [10, 20, 10, 30, 20, None],
                "amount": [100.0, 200.0, 50.0, None, 300.0, 25.0],
                "region": ["us", "eu", "us", "us", None, "eu"],
            },
        ),
    )
    customers = Schema.of(
        ("customer_id", DataType.INT64),
        ("name", DataType.STRING),
        ("tier", DataType.STRING),
    )
    c = platform.tables.create_managed_table("ds", "customers", customers)
    platform.managed.append(
        c.table_id,
        batch_from_pydict(
            customers,
            {
                "customer_id": [10, 20, 40],
                "name": ["Ann", "Bo", "Cy"],
                "tier": ["gold", "silver", "gold"],
            },
        ),
    )
    return platform, admin


def q(env, sql):
    platform, admin = env
    return platform.home_engine.execute(sql, admin)


class TestBasics:
    def test_select_star(self, env):
        assert q(env, "SELECT * FROM ds.orders").num_rows == 6

    def test_projection_and_alias(self, env):
        r = q(env, "SELECT order_id AS id, amount * 2 AS double FROM ds.orders WHERE order_id = 1")
        assert r.schema.names() == ["id", "double"]
        assert r.rows() == [(1, 200.0)]

    def test_where_with_null_semantics(self, env):
        r = q(env, "SELECT order_id FROM ds.orders WHERE amount > 75")
        assert sorted(r.column("order_id")) == [1, 2, 5]

    def test_limit(self, env):
        assert q(env, "SELECT order_id FROM ds.orders LIMIT 3").num_rows == 3

    def test_order_by_desc_nulls_last(self, env):
        r = q(env, "SELECT amount FROM ds.orders ORDER BY amount DESC")
        values = r.column("amount")
        assert values[0] == 300.0
        assert values[-1] is None

    def test_order_by_asc_nulls_first(self, env):
        r = q(env, "SELECT amount FROM ds.orders ORDER BY amount")
        assert r.column("amount")[0] is None

    def test_distinct(self, env):
        r = q(env, "SELECT DISTINCT region FROM ds.orders")
        assert sorted(x for x in r.column("region") if x is not None) == ["eu", "us"]
        assert r.num_rows == 3  # us, eu, NULL

    def test_union_all(self, env):
        r = q(env, "SELECT order_id FROM ds.orders WHERE region = 'us' "
                   "UNION ALL SELECT order_id FROM ds.orders WHERE region = 'eu'")
        assert r.num_rows == 5

    def test_select_without_from(self, env):
        r = q(env, "SELECT 1 + 2 AS x, 'hi' AS s")
        assert r.rows() == [(3, "hi")]

    def test_subquery_in_from(self, env):
        r = q(env, "SELECT big.order_id FROM "
                   "(SELECT order_id, amount FROM ds.orders WHERE amount > 100) AS big")
        assert sorted(r.column("order_id")) == [2, 5]


class TestAggregation:
    def test_global_aggregates(self, env):
        r = q(env, "SELECT COUNT(*), COUNT(amount), SUM(amount), MIN(amount), MAX(amount), AVG(amount) FROM ds.orders")
        count_star, count_amount, total, lo, hi, avg = r.rows()[0]
        assert count_star == 6
        assert count_amount == 5
        assert total == pytest.approx(675.0)
        assert (lo, hi) == (25.0, 300.0)
        assert avg == pytest.approx(675.0 / 5)

    def test_global_aggregate_on_empty_input(self, env):
        r = q(env, "SELECT COUNT(*), SUM(amount) FROM ds.orders WHERE order_id > 999")
        assert r.rows() == [(0, None)]

    def test_group_by(self, env):
        r = q(env, "SELECT region, COUNT(*) AS n, SUM(amount) AS total FROM ds.orders "
                   "GROUP BY region ORDER BY region")
        data = {row[0]: (row[1], row[2]) for row in r.rows()}
        assert data["us"] == (3, 150.0)
        assert data["eu"] == (2, 225.0)
        assert data[None][0] == 1  # NULL region groups together

    def test_group_by_position(self, env):
        r = q(env, "SELECT region, COUNT(*) FROM ds.orders GROUP BY 1")
        assert r.num_rows == 3

    def test_having(self, env):
        r = q(env, "SELECT region, SUM(amount) AS total FROM ds.orders "
                   "GROUP BY region HAVING SUM(amount) > 200")
        # 'eu' totals 225; the NULL-region group totals 300 — both qualify.
        assert set(r.column("region")) == {"eu", None}

    def test_order_by_alias_of_aggregate(self, env):
        r = q(env, "SELECT region, SUM(amount) AS total FROM ds.orders "
                   "GROUP BY region ORDER BY total DESC LIMIT 1")
        # The NULL-region group has the largest total (300.0).
        assert r.rows()[0] == (None, 300.0)

    def test_order_by_unselected_aggregate(self, env):
        r = q(env, "SELECT region FROM ds.orders GROUP BY region ORDER BY COUNT(*) DESC")
        assert r.column("region")[0] == "us"

    def test_count_distinct(self, env):
        r = q(env, "SELECT COUNT(DISTINCT customer_id) FROM ds.orders")
        assert r.single_value() == 3

    def test_expression_over_aggregates(self, env):
        r = q(env, "SELECT SUM(amount) / COUNT(amount) AS manual_avg FROM ds.orders")
        assert r.single_value() == pytest.approx(135.0)

    def test_having_without_group_rejected(self, env):
        with pytest.raises(AnalysisError):
            q(env, "SELECT order_id FROM ds.orders HAVING order_id > 1")


class TestJoins:
    def test_inner_join(self, env):
        r = q(env, """
            SELECT o.order_id, c.name FROM ds.orders AS o
            JOIN ds.customers AS c ON o.customer_id = c.customer_id
            ORDER BY o.order_id
        """)
        assert r.rows() == [(1, "Ann"), (2, "Bo"), (3, "Ann"), (5, "Bo")]

    def test_join_null_keys_never_match(self, env):
        r = q(env, """
            SELECT COUNT(*) FROM ds.orders AS o
            JOIN ds.customers AS c ON o.customer_id = c.customer_id
        """)
        assert r.single_value() == 4  # order 6 has NULL customer

    def test_left_join_null_extends(self, env):
        r = q(env, """
            SELECT o.order_id, c.name FROM ds.orders AS o
            LEFT JOIN ds.customers AS c ON o.customer_id = c.customer_id
            ORDER BY o.order_id
        """)
        data = dict(r.rows())
        assert data[4] is None and data[6] is None
        assert data[1] == "Ann"

    def test_join_with_residual_condition(self, env):
        r = q(env, """
            SELECT o.order_id FROM ds.orders AS o
            JOIN ds.customers AS c ON o.customer_id = c.customer_id AND o.amount > 150
            ORDER BY o.order_id
        """)
        assert r.column("order_id") == [2, 5]

    def test_cross_join(self, env):
        r = q(env, "SELECT COUNT(*) FROM ds.orders CROSS JOIN ds.customers")
        assert r.single_value() == 18

    def test_join_then_aggregate(self, env):
        r = q(env, """
            SELECT c.tier, SUM(o.amount) AS total FROM ds.orders AS o
            JOIN ds.customers AS c ON o.customer_id = c.customer_id
            GROUP BY c.tier ORDER BY total DESC
        """)
        assert r.rows() == [("silver", 500.0), ("gold", 150.0)]

    def test_reversed_on_clause_orientation(self, env):
        r = q(env, """
            SELECT COUNT(*) FROM ds.customers AS c
            JOIN ds.orders AS o ON o.customer_id = c.customer_id
        """)
        assert r.single_value() == 4


class TestErrors:
    def test_unknown_table(self, env):
        from repro.errors import NotFoundError

        with pytest.raises(NotFoundError):
            q(env, "SELECT 1 FROM ds.nope")

    def test_unknown_column(self, env):
        with pytest.raises(AnalysisError):
            q(env, "SELECT wat FROM ds.orders")

    def test_ambiguous_column_in_join(self, env):
        with pytest.raises(AnalysisError):
            q(env, "SELECT customer_id FROM ds.orders AS o "
                   "JOIN ds.customers AS c ON o.customer_id = c.customer_id")

    def test_dml_without_handler(self, env):
        platform, admin = env
        from repro.engine.engine import QueryEngine

        bare = QueryEngine(read_api=platform.read_api, catalog=platform.catalog)
        with pytest.raises(QueryError):
            bare.execute("DELETE FROM ds.orders WHERE order_id = 1", admin)


class TestExplain:
    def test_explain_shows_pushdown(self, env):
        platform, admin = env
        text = platform.home_engine.explain(
            "SELECT order_id FROM ds.orders WHERE amount > 10 AND region = 'us'"
        )
        assert "Scan" in text and "filter=" in text

    def test_explain_shows_join_tree(self, env):
        platform, admin = env
        text = platform.home_engine.explain(
            "SELECT o.order_id FROM ds.orders AS o "
            "JOIN ds.customers AS c ON o.customer_id = c.customer_id"
        )
        assert "INNERJoin" in text


class TestAggregateIdentity:
    """``COUNT(x)`` and ``COUNT(DISTINCT x)`` are two aggregates — in either
    order, beside GROUP BY and in ORDER BY — with the answers stdlib sqlite3
    gives for the same rows."""

    DATA = {"x": [1, 1, 2, 2, 3], "s": ["a", "a", "b", "c", None]}

    @pytest.fixture(scope="class")
    def engines(self):
        platform, admin = make_platform()
        platform.catalog.create_dataset("agg")
        schema = Schema.of(("x", DataType.INT64), ("s", DataType.STRING))
        table = platform.tables.create_managed_table("agg", "dup", schema)
        platform.managed.append(table.table_id, batch_from_pydict(schema, self.DATA))
        db = sqlite3.connect(":memory:")
        db.execute("CREATE TABLE dup (x INTEGER, s TEXT)")
        db.executemany("INSERT INTO dup VALUES (?, ?)", zip(self.DATA["x"], self.DATA["s"]))
        yield platform, admin, db
        db.close()

    @pytest.mark.parametrize("sql, expected", [
        ("SELECT COUNT(x), COUNT(DISTINCT x) FROM agg.dup", [(5, 3)]),
        ("SELECT COUNT(DISTINCT x), COUNT(x) FROM agg.dup", [(3, 5)]),
        ("SELECT x, COUNT(DISTINCT s), COUNT(s) FROM agg.dup GROUP BY x ORDER BY x",
         [(1, 1, 2), (2, 2, 2), (3, 0, 0)]),
        ("SELECT x, COUNT(s) AS n FROM agg.dup GROUP BY x ORDER BY COUNT(DISTINCT s) DESC, x",
         [(2, 2), (1, 2), (3, 0)]),
    ])
    def test_distinct_and_plain_counts_stay_apart(self, engines, sql, expected):
        platform, admin, db = engines
        assert platform.home_engine.execute(sql, admin).rows() == expected
        assert db.execute(sql.replace("agg.dup", "dup")).fetchall() == expected


def _twin_tables(tables: dict[str, tuple[Schema, dict]], lake: tuple[str, ...] = ()):
    """The same literal rows as tables in dataset ``lj`` — managed ones, and
    for the names in ``lake`` BigLake ones over one pqs file, whose
    low-cardinality columns are dictionary-encoded — and as stdlib sqlite3
    tables (DATE stored as its day number, TIMESTAMP as its micros)."""
    platform, admin = make_platform()
    platform.catalog.create_dataset("lj")
    db = sqlite3.connect(":memory:")
    sqlite_types = {DataType.INT64: "INTEGER", DataType.DATE: "INTEGER",
                    DataType.TIMESTAMP: "INTEGER", DataType.FLOAT64: "REAL",
                    DataType.STRING: "TEXT"}
    for name, (schema, data) in tables.items():
        if name in lake:
            setup_lake_table(platform, admin, schema, [data], dataset="lj", table=name)
        else:
            table = platform.tables.create_managed_table("lj", name, schema)
            platform.managed.append(table.table_id, batch_from_pydict(schema, data))
        columns = ", ".join(f"{f.name} {sqlite_types[f.dtype]}" for f in schema)
        db.execute(f"CREATE TABLE {name} ({columns})")
        db.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' * len(schema))})",
            zip(*(data[f.name] for f in schema)))
    return platform, admin, db


# The IN matrix's axes. A list is a subquery over lj.r's k = {NULL, 2, 5}
# and the literal items it returns (None for the empty one, which only a
# subquery can write); a STRING operand reads 2 as 'a' and 5 as 'e'.
_LISTS = {
    "hit": ("k > 0", (2, 5)),
    "miss": ("k > 2", (5,)),
    "hit and NULL": ("k > 0 OR k IS NULL", (2, 5, None)),
    "miss and NULL": ("k > 2 OR k IS NULL", (5, None)),
    "only NULL": ("k IS NULL", (None,)),
    "empty": ("k < 0", None),
}
_FORMS = {"IN": "{} IN ({})", "NOT IN": "{} NOT IN ({})", "NOT (IN)": "NOT ({} IN ({}))"}
# lj.m's row whose x is 2 and s 'a', and its row whose x and s are NULL.
_OPERANDS = {"value": 1, "NULL": 2}
_SOURCES = ("literal list", "subquery", "dictionary STRING", "row_restriction drain")
_MATRIX = [
    pytest.param(operand, items, form, source, id=f"{source}-{items}-{form}-{operand}")
    for source in _SOURCES for items in _LISTS for form in _FORMS for operand in _OPERANDS
    if source == "subquery" or _LISTS[items][1] is not None
]


class TestNotInOverEachBuildSide:
    """``x NOT IN (subquery)`` is TRUE for every ``x`` — NULL included — when
    the subquery is empty, NULL for every row when it holds a NULL, and the
    usual three-valued answer otherwise; ``NOT (x IN …)`` is the same
    predicate. Literal answers, and the same answers from sqlite3.

    The matrix runs every operand (a value, NULL), list (hit, miss, either
    with a NULL item, only NULL, empty) and form (IN, NOT IN, NOT (… IN …))
    through each site that decides membership — a literal list, a subquery
    (the SEMI / ANTI join), a dictionary-encoded STRING column (answered per
    dictionary entry) and a read session's ``row_restriction`` drained over
    its serialized handle — and requires sqlite3's answer from every one."""

    @pytest.fixture(scope="class")
    def engines(self):
        platform, admin, db = _twin_tables({
            "l": (Schema.of(("k", DataType.INT64), ("lv", DataType.STRING)),
                  {"k": [1, None, 2], "lv": ["a", "b", "c"]}),
            "r": (Schema.of(("k", DataType.INT64),), {"k": [None, 2, 5]}),
            "m": (Schema.of(("id", DataType.INT64), ("x", DataType.INT64), ("s", DataType.STRING)),
                  {"id": [1, 2, 3, 4], "x": [2, None, 7, 8], "s": ["a", None, "z", "a"]}),
        }, lake=("m",))
        yield platform, admin, db
        db.close()

    @pytest.mark.parametrize("operand, items, form, source", _MATRIX)
    def test_matrix_matches_sqlite(self, engines, monkeypatch, operand, items, form, source):
        platform, admin, db = engines
        where, values = _LISTS[items]
        column = "s" if source == "dictionary STRING" else "x"
        if source == "subquery":
            listed = f"SELECT k FROM lj.r WHERE {where}"
        else:
            if column == "s":
                values = [{2: "a", 5: "e"}.get(v) for v in values]
            listed = ", ".join("NULL" if v is None else repr(v) for v in values)
        predicate = f"id = {_OPERANDS[operand]} AND {_FORMS[form].format(column, listed)}"
        sql = f"SELECT id FROM lj.m WHERE {predicate}"
        want = db.execute(sql.replace("lj.", "")).fetchall()
        if source == "row_restriction drain":
            session = platform.read_api.create_read_session(
                admin, platform.catalog.get_table("lj", "m"), row_restriction=predicate)
            assert drain_session(platform.read_api, session.serialize()).rows == len(want)
            return
        per_entry = []
        answer = expressions._over_dictionary
        monkeypatch.setattr(expressions, "_over_dictionary",
                            lambda *args: per_entry.append(args) or answer(*args))
        result = platform.home_engine.execute(sql, admin)
        assert result.rows() == want
        # s is dictionary-encoded and x is not; a file pruned is not read.
        assert bool(per_entry) == (source == "dictionary STRING" and result.stats.files_read > 0)

    BUILD_SIDES = {
        "empty": "SELECT k FROM lj.r WHERE k < 0",
        "null only": "SELECT k FROM lj.r WHERE k IS NULL",
        "no null": "SELECT k FROM lj.r WHERE k > 0",
    }

    @pytest.mark.parametrize("build, predicate, expected", [
        ("empty", "k NOT IN ({})", ["a", "b", "c"]),
        ("empty", "NOT (k IN ({}))", ["a", "b", "c"]),
        ("empty", "k IN ({})", []),
        ("null only", "k NOT IN ({})", []),
        ("null only", "NOT (k IN ({}))", []),
        ("null only", "k IN ({})", []),
        ("no null", "k NOT IN ({})", ["a"]),
        ("no null", "NOT (k IN ({}))", ["a"]),
        ("no null", "k IN ({})", ["c"]),
    ])
    def test_answer_matches_sqlite(self, engines, build, predicate, expected):
        platform, admin, db = engines
        sql = f"SELECT lv FROM lj.l WHERE {predicate.format(self.BUILD_SIDES[build])}"
        got = sorted(v for (v,) in platform.home_engine.execute(sql, admin).rows())
        assert got == expected
        assert sorted(v for (v,) in db.execute(sql.replace("lj.", "")).fetchall()) == expected


class TestCaseWithNullBranches:
    """Rows no typed branch of a CASE decides are NULL — with ``ELSE NULL``,
    with no ELSE, and under a ``THEN NULL`` — whatever the type of the
    branch that has a type; it also types the result."""

    DATA = {
        "id": [1, 2, 3, 4],
        "x": [1, -1, None, 2],
        "i": [10, 20, 30, None],
        "f": [0.5, 1.5, 2.5, None],
        "d": [100, 200, 300, None],
        "s": ["p", "q", "r", None],
    }

    @pytest.fixture(scope="class")
    def engines(self):
        schema = Schema.of(("id", DataType.INT64), ("x", DataType.INT64),
                           ("i", DataType.INT64),
                           ("f", DataType.FLOAT64), ("d", DataType.DATE),
                           ("s", DataType.STRING))
        platform, admin, db = _twin_tables({"t": (schema, self.DATA)})
        yield platform, admin, db
        db.close()

    @pytest.mark.parametrize("column, dtype, expected", [
        ("i", DataType.INT64, [10, None, None, None]),
        ("f", DataType.FLOAT64, [0.5, None, None, None]),
        ("d", DataType.DATE, [100, None, None, None]),
        ("s", DataType.STRING, ["p", None, None, None]),
    ])
    @pytest.mark.parametrize("shape", [
        "CASE WHEN x > 0 THEN {c} ELSE NULL END",
        "CASE WHEN x > 0 THEN {c} END",
        "CASE WHEN x <= 0 THEN NULL WHEN x > 0 THEN {c} END",
        "CASE WHEN x <= 0 OR x IS NULL THEN NULL ELSE {c} END",
    ])
    def test_unmatched_rows_are_null(self, engines, shape, column, dtype, expected):
        platform, admin, db = engines
        sql = f"SELECT {shape.format(c=column)} AS v FROM lj.t ORDER BY id"
        result = platform.home_engine.execute(sql, admin)
        assert result.schema.field("v").dtype is dtype
        want = [v for (v,) in db.execute(sql.replace("lj.", "")).fetchall()]
        assert result.column("v") == want == expected


DAY = 86_400_000_000  # micros


class TestMixedTypesMeetInTheirCommonType:
    """Every construct that mixes INT64 with FLOAT64, or DATE with TIMESTAMP,
    meets them in their common type (``common_type``), as a plain comparison
    does: CASE, COALESCE, IF and GREATEST no longer take the type of their
    first typed branch, and BETWEEN, IN, join keys and UNION ALL no longer
    compare or mix values in two units. Literal answers; the numeric ones
    also from sqlite3."""

    @pytest.fixture(scope="class")
    def engines(self):
        platform, admin, db = _twin_tables({
            "t1": (Schema.of(("id", DataType.INT64), ("k", DataType.INT64),
                             ("f", DataType.FLOAT64), ("d", DataType.DATE),
                             ("t", DataType.TIMESTAMP)),
                   {"id": [1, 2, 3], "k": [1, None, 2], "f": [0.5, 1.5, 2.5],
                    "d": [19000, 20000, 19500],
                    "t": [19000 * DAY, 20000 * DAY, 19500 * DAY]}),
            "t2": (Schema.of(("t2", DataType.TIMESTAMP), ("f2", DataType.FLOAT64)),
                   {"t2": [19000 * DAY, 5 * DAY], "f2": [1.0, 2.5]}),
        })
        yield platform, admin, db
        db.close()

    @pytest.mark.parametrize("expr, sqlite_expr, expected", [
        ("CASE WHEN k > 0 THEN k ELSE f END", None, [1.0, 1.5, 2.0]),
        ("COALESCE(k, f)", None, [1.0, 1.5, 2.0]),
        ("IF(k > 1, k, f)", "iif(k > 1, k, f)", [0.5, 1.5, 2.0]),
        ("GREATEST(k, f)", "MAX(k, f)", [1.0, None, 2.5]),
    ])
    def test_numeric_branches_meet_in_float64(self, engines, expr, sqlite_expr, expected):
        platform, admin, db = engines
        result = platform.home_engine.execute(f"SELECT {expr} AS v FROM lj.t1 ORDER BY id", admin)
        assert result.schema.field("v").dtype is DataType.FLOAT64
        assert result.column("v") == expected
        sql = f"SELECT {sqlite_expr or expr} AS v FROM t1 ORDER BY id"
        assert [v for (v,) in db.execute(sql).fetchall()] == expected

    def test_date_and_timestamp_branches_meet_in_timestamp(self, engines):
        platform, admin, _ = engines
        sql = "SELECT CASE WHEN k > 0 THEN d ELSE t END AS v FROM lj.t1 ORDER BY id"
        result = platform.home_engine.execute(sql, admin)
        assert result.schema.field("v").dtype is DataType.TIMESTAMP
        assert result.column("v") == [19000 * DAY, 20000 * DAY, 19500 * DAY]

    @pytest.mark.parametrize("query, expected", [
        ("SELECT COUNT(*) FROM lj.t1 WHERE d BETWEEN TIMESTAMP '2021-01-01 00:00:00'"
         " AND TIMESTAMP '2030-01-01 00:00:00'", 3),
        ("SELECT COUNT(*) FROM lj.t1 WHERE t BETWEEN DATE '2022-01-01' AND DATE '2022-12-31'", 1),
        ("SELECT COUNT(*) FROM lj.t1 WHERE t IN (DATE '2022-01-08')", 1),
        ("SELECT COUNT(*) FROM lj.t1 WHERE d IN (TIMESTAMP '2022-01-08 00:00:00')", 1),
        ("SELECT COUNT(*) FROM lj.t1 JOIN lj.t2 ON d = t2", 1),
        ("SELECT COUNT(*) FROM lj.t1 WHERE d IN (SELECT t2 FROM lj.t2)", 1),
        ("SELECT COUNT(*) FROM lj.t1 WHERE d NOT IN (SELECT t2 FROM lj.t2)", 2),
    ])
    def test_dates_meet_timestamps(self, engines, query, expected):
        platform, admin, _ = engines
        assert platform.home_engine.execute(query, admin).rows() == [(expected,)]

    def test_union_all_arms_meet(self, engines):
        platform, admin, db = engines
        sql = "SELECT SUM(v) AS s FROM (SELECT k AS v FROM lj.t1 UNION ALL SELECT f AS v FROM lj.t1)"
        assert platform.home_engine.execute(sql, admin).rows() == [(7.5,)]
        assert db.execute(sql.replace("lj.", "")).fetchall() == [(7.5,)]
        union = platform.home_engine.execute(
            "SELECT NULL AS v FROM lj.t1 UNION ALL SELECT d AS v FROM lj.t1", admin)
        assert union.schema.field("v").dtype is DataType.DATE
        assert sorted(union.column("v"), key=str) == [19000, 19500, 20000, None, None, None]

    def test_arms_that_do_not_meet_are_an_error(self, engines):
        platform, admin, _ = engines
        with pytest.raises(AnalysisError, match="incompatible types INT64 and STRING"):
            platform.home_engine.execute("SELECT k FROM lj.t1 UNION ALL SELECT 'x' FROM lj.t1", admin)
