"""The engine hands the Read API the tree it already holds.

``create_read_session`` takes a row restriction as SQL text (the wire
format) or as the expression tree an in-process engine holds. Pinned here:

* the tree ``_scan_restriction`` builds prints to text that parses back to
  the same tree, and a session created from the tree is the session created
  from that text — restriction, constraints, pruned files, rows, handle;
* the door checks a tree exactly as it checks text, before any IO, and the
  principal's row policy and mask bind a tree session as they bind a text one;
* a text caller's handle is, byte for byte, what it always was;
* joins and ``IN (SELECT ...)`` on keys of every type answer as they do with
  dynamic partition pruning off — BYTES keys and key sets with nothing in
  common included, on the home engine and through a connector's
  ``serialize()`` / ``attach``.
"""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Role
from repro.data import DataType, Schema
from repro.engine.operators import ExecContext, _scan_restriction
from repro.errors import AccessDeniedError, AnalysisError
from repro.external.sparksim import SparkSim
from repro.metastore.constraints import ColumnConstraint, ConstraintSet
from repro.security.policies import (
    ColumnAcl,
    DataMaskingRule,
    MaskingKind,
    RowAccessPolicy,
)
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse_expression, parse_statement
from repro.sql.printer import to_sql

from tests.helpers import make_platform, setup_lake_table

SCHEMA = Schema.of(
    ("i", DataType.INT64),
    ("f", DataType.FLOAT64),
    ("s", DataType.STRING),
    ("b", DataType.BOOL),
    ("d", DataType.DATE),
    ("t", DataType.TIMESTAMP),
)
TEXTS = ["us", "eu", "it's", "''", "a b", "é", ""]
FILES, ROWS_PER_FILE = 6, 10


def typed_files() -> list[dict]:
    """Disjoint ``i`` / ``d`` / ``t`` ranges per file, so statistics prune."""
    files = []
    for n in range(FILES):
        ids = list(range(n * ROWS_PER_FILE, (n + 1) * ROWS_PER_FILE))
        files.append({
            "i": ids,
            "f": [v / 2 for v in ids],
            "s": [TEXTS[v % len(TEXTS)] for v in ids],
            "b": [v % 2 == 0 for v in ids],
            "d": ids,
            "t": [v * 1_000_000 for v in ids],
        })
    return files


@pytest.fixture(scope="module")
def lake():
    platform, admin = make_platform()
    table, _ = setup_lake_table(platform, admin, SCHEMA, typed_files(), table="typed")
    return platform, admin, table


# --------------------------------------------------------------------------
# (i) tree == parse(print(tree)), and the session does not see which it got
# --------------------------------------------------------------------------

_VALUES = {
    "i": st.integers(-5, FILES * ROWS_PER_FILE + 5),
    "f": st.one_of(
        st.integers(-4, 64).map(lambda v: v / 2),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    "s": st.one_of(st.sampled_from(TEXTS), st.text(max_size=4)),
    "b": st.booleans(),
    "d": st.integers(-5, FILES * ROWS_PER_FILE + 5),
    "t": st.integers(-5, FILES * ROWS_PER_FILE + 5).map(lambda v: v * 1_000_000),
}
columns = st.sampled_from(sorted(_VALUES))


@st.composite
def pushed_filters(draw):
    """A conjunct the optimizer could push into the scan, qualified as it is
    in a join's schema."""
    name = draw(columns)
    column = ast.ColumnRef(draw(st.sampled_from([(name,), ("q", name)])))
    value = draw(_VALUES[name])
    literal = ast.Literal(value)
    if name == "d" and draw(st.booleans()):
        literal = ast.Literal(f"1970-01-{1 + value % 28:02d}", "DATE")
    shape = draw(st.sampled_from(["cmp", "between", "in", "null", "not"]))
    if shape == "cmp" or name == "b":
        return ast.BinaryOp(draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="])), column, literal)
    if shape == "between":
        return ast.Between(column, literal, ast.Literal(draw(_VALUES[name])))
    if shape == "in":
        items = draw(st.lists(_VALUES[name], min_size=1, max_size=4))
        return ast.InList(column, tuple(map(ast.Literal, items)), draw(st.booleans()))
    if shape == "null":
        return ast.IsNull(column, draw(st.booleans()))
    return ast.UnaryOp("NOT", ast.BinaryOp("=", column, literal))


@st.composite
def dpp_constraints(draw):
    """What dynamic partition pruning leaves on a probe scan: IN-sets of
    build-side keys, as the python values ``to_pylist`` yields."""
    constraints = ConstraintSet()
    for name in draw(st.lists(columns, max_size=3)):  # a repeat intersects
        values = draw(st.frozensets(_VALUES[name], min_size=1, max_size=12))
        constraints.add(name, ColumnConstraint(in_set=values))
    return constraints


def built_restriction(filters, constraints):
    node = SimpleNamespace(pushed_filters=filters)
    ctx = ExecContext(engine=None, principal=None, stats=None)
    if not constraints.is_empty:
        ctx.dpp_constraints[id(node)] = constraints
    return _scan_restriction(node, ctx)


def rows_of(platform, session) -> list[tuple]:
    return sorted(
        (row for i in range(len(session.streams))
         for batch in platform.read_api.read_rows(session, i) for row in batch.iter_rows()),
        key=repr,
    )


def handle_of(session) -> dict:
    wire = json.loads(session.serialize())
    # Two sessions differ in their id and, on the sim clock, their birth.
    return {k: v for k, v in wire.items() if k not in ("session_id", "created_ms", "expires_ms")}


def files_of(session) -> list[list[str]]:
    return [[entry.file_path for entry in stream.files] for stream in session.streams]


@settings(deadline=None, max_examples=60)
@given(st.lists(pushed_filters(), max_size=3), dpp_constraints())
def test_a_tree_session_is_the_text_session(lake, filters, constraints):
    platform, admin, table = lake
    tree = built_restriction(filters, constraints)
    if tree is None:
        return
    text = to_sql(tree)
    assert parse_expression(text) == tree

    from_tree = platform.read_api.create_read_session(admin, table, row_restriction=tree)
    from_text = platform.read_api.create_read_session(admin, table, row_restriction=text)
    assert from_tree.restriction == from_text.restriction == tree
    assert from_tree.constraints == from_text.constraints
    assert files_of(from_tree) == files_of(from_text)
    assert from_tree.row_restriction == from_text.row_restriction == text
    assert handle_of(from_tree) == handle_of(from_text)
    assert rows_of(platform, from_tree) == rows_of(platform, from_text)
    # Same work, apart from what the first of the two reads left in the cache.
    for counter in ("files_total", "files_after_pruning", "row_groups_pruned",
                    "rows_scanned", "rows_returned"):
        assert getattr(from_tree.stats, counter) == getattr(from_text.stats, counter)


def test_the_built_tree_is_the_conjunction_in_order(lake):
    filters = [parse_expression("q.i >= 20"), parse_expression("s != 'eu'")]
    constraints = ConstraintSet()
    constraints.add("D", ColumnConstraint(in_set=frozenset({31, 5, 23})))
    tree = built_restriction(filters, constraints)
    assert to_sql(tree) == "(((i >= 20) AND (s != 'eu')) AND (d IN (5, 23, 31)))"
    platform, admin, table = lake
    session = platform.read_api.create_read_session(admin, table, row_restriction=tree)
    assert session.stats.files_after_pruning == 2  # i >= 20 and d in {23, 31}
    assert [row[0] for row in rows_of(platform, session)] == [23, 31]
    assert built_restriction([], ConstraintSet()) is None


def test_key_sets_with_nothing_in_common_restrict_to_no_row(lake):
    constraints = ConstraintSet()
    constraints.add("i", ColumnConstraint(in_set=frozenset({1, 2})))
    constraints.add("i", ColumnConstraint(in_set=frozenset({3})))
    tree = built_restriction([], constraints)
    assert parse_expression(to_sql(tree)) == tree
    platform, admin, table = lake
    session = platform.read_api.create_read_session(admin, table, row_restriction=tree)
    assert rows_of(platform, session) == []


def test_the_printer_writes_no_literal_it_could_not_read_back():
    for value in (b"it's", math.nan, math.inf, -math.inf, object()):
        with pytest.raises(AnalysisError, match="no SQL literal"):
            to_sql(ast.InList(ast.ColumnRef(("x",)), (ast.Literal(value),)))
    for value in (-5, -0.5, 1e-07, 1e22, 5e-324, True, None, "it's", ""):
        tree = ast.BinaryOp("=", ast.ColumnRef(("x",)), ast.Literal(value))
        assert parse_expression(to_sql(tree)) == tree


# --------------------------------------------------------------------------
# (ii) the door checks a tree as it checks text
# --------------------------------------------------------------------------


def governed_lake():
    platform, admin = make_platform()
    table, _ = setup_lake_table(platform, admin, SCHEMA, typed_files(), table="typed")
    reader = platform.create_user("reader", [Role.DATA_VIEWER])
    table.policies.add_row_policy(RowAccessPolicy("p", "i >= 10", frozenset({reader})))
    table.policies.add_masking_rule(DataMaskingRule("s", MaskingKind.HASH, frozenset({reader})))
    table.policies.add_column_acl(ColumnAcl("f", frozenset()))
    return platform, table, reader


_SUBQUERY = parse_statement("SELECT i FROM ds.typed WHERE i IN (SELECT i FROM ds.typed)").where


@pytest.mark.parametrize(
    "text, tree, columns, error, message",
    [
        ("nope = 1", None, ["i"], AnalysisError, "column 'nope' not found"),
        ("i > 1", None, ["i", "f"], AccessDeniedError, "column-level access denied on: f"),
        ("ML_SCORE(i) > 1", None, ["i"], AnalysisError, "unknown function"),
        (None, _SUBQUERY, ["i"], AnalysisError, "only supported as a top-level WHERE"),
        (None, ast.Star(), ["i"], AnalysisError, "cannot bind expression"),
        (None, ast.InList(ast.ColumnRef(("i",)), (ast.ColumnRef(("d",)),)), ["i"],
         AnalysisError, "IN list items must be literals"),
    ],
)
def test_a_bad_tree_fails_like_bad_text_before_any_io(text, tree, columns, error, message):
    platform, table, reader = governed_lake()
    forms = [text, parse_expression(text)] if text is not None else [tree]
    failures = []
    for form in forms:
        before = platform.ctx.metering.op_counts.copy()
        with pytest.raises(error, match=message) as caught:
            platform.read_api.create_read_session(
                reader, table, columns=columns, row_restriction=form
            )
        assert platform.ctx.metering.op_counts == before
        failures.append(str(caught.value))
    assert len(set(failures)) == 1


def test_row_policy_and_mask_bind_a_tree_session():
    platform, table, reader = governed_lake()
    sessions = [
        platform.read_api.create_read_session(
            reader, table, columns=["i", "s"], row_restriction=form
        )
        for form in ("i < 14", parse_expression("i < 14"))
    ]
    from_text, from_tree = (rows_of(platform, session) for session in sessions)
    assert from_tree == from_text
    assert [row[0] for row in from_tree] == [10, 11, 12, 13]  # the policy's i >= 10
    assert all(len(row[1]) == 64 and row[1] not in TEXTS for row in from_tree)  # hashed


# --------------------------------------------------------------------------
# (iv) text stays the wire format
# --------------------------------------------------------------------------


def test_a_text_callers_handle_is_byte_for_byte_what_it_was(lake):
    platform, admin, table = lake
    text = "i  >= 20 and s in ('us','it''s')  -- as the caller wrote it"
    session = platform.read_api.create_read_session(
        admin, table, columns=["i", "s"], row_restriction=text, max_streams=2
    )
    assert session.serialize() == (
        '{"columns": ["i", "s"], "created_ms": %r, "expires_ms": %r, "principal": "user:admin", '
        '"row_restriction": %s, "session_id": "%s", "streams": [{"stream_id": 0, "units": 2}, '
        '{"stream_id": 1, "units": 2}], "table": "%s", "v": 1}'
        % (session.created_ms, session.expires_ms, json.dumps(text), session.session_id,
           table.table_id)
    ).encode("utf-8")
    unrestricted = platform.read_api.create_read_session(admin, table)
    assert json.loads(unrestricted.serialize())["row_restriction"] is None


def test_reuse_keys_a_tree_and_its_text_alike(lake):
    platform, admin, table = lake
    tree = parse_expression("(i >= 30)")
    first = platform.read_api.create_read_session(admin, table, row_restriction=tree, reuse=True)
    again = platform.read_api.create_read_session(
        admin, table, row_restriction=to_sql(tree), reuse=True
    )
    assert not first.stats.served_from_session_cache
    assert again.stats.served_from_session_cache
    assert files_of(again) == files_of(first)


# --------------------------------------------------------------------------
# Joins on keys of every type, against the run without pruning
# --------------------------------------------------------------------------

_KEYS = {
    DataType.BYTES: [b"it's", b'say "hi"', b"\x00\xff", b"plain"],
    DataType.STRING: ["it's", "''", 'say "hi"', "plain"],
    DataType.DATE: [0, 365, 19000, -1],
    DataType.TIMESTAMP: [0, 1_600_000_000_000_000, 86_400_000_000, -1],
    DataType.BOOL: [True, False, True, False],
    DataType.FLOAT64: [0.5, -2.0, 1e-07, 1e22],
    DataType.INT64: [7, -3, 0, 2**40],
}


@pytest.mark.parametrize("dtype", sorted(_KEYS, key=lambda d: d.value))
@pytest.mark.parametrize("connector", [False, True], ids=["home", "connector"])
def test_joins_answer_as_without_pruning(dtype, connector):
    platform, admin = make_platform()
    keys = _KEYS[dtype]
    fact_schema = Schema.of(("k", dtype), ("v", DataType.INT64))
    dim_schema = Schema.of(("dk", dtype), ("n", DataType.INT64))
    # One fact file per key (plus a NULL-keyed row each), so key statistics prune.
    fact_files = [{"k": [key, key, None], "v": [3 * n, 3 * n + 1, 3 * n + 2]}
                  for n, key in enumerate(keys)]
    setup_lake_table(platform, admin, fact_schema, fact_files, table="fact")
    setup_lake_table(platform, admin, dim_schema, [{"dk": [keys[0], None], "n": [1, 2]}],
                     table="dim")
    engine = SparkSim(platform) if connector else platform.home_engine
    statements = [
        "SELECT f.v, d.n FROM ds.dim d JOIN ds.fact f ON f.k = d.dk ORDER BY f.v",
        "SELECT v FROM ds.fact WHERE k IN (SELECT dk FROM ds.dim) ORDER BY v",
    ]
    pruned = [engine.execute(sql, admin) for sql in statements]
    engine.enable_dpp = False
    plain = [engine.execute(sql, admin) for sql in statements]
    for with_dpp, without in zip(pruned, plain):
        assert with_dpp.rows() == without.rows() and len(with_dpp.rows()) >= 2
        assert without.stats.dpp_applied == 0
        if dtype is DataType.BYTES:  # no SQL literal: pruning stands down
            assert with_dpp.stats.dpp_applied == 0
        else:
            assert with_dpp.stats.dpp_applied == 1
            if dtype is not DataType.BOOL:  # two files hold TRUE
                assert with_dpp.stats.files_pruned > without.stats.files_pruned


def test_two_joins_with_no_key_in_common_return_no_row():
    platform, admin = make_platform()
    fact = Schema.of(("fk", DataType.INT64), ("v", DataType.INT64))
    setup_lake_table(platform, admin, fact, [{"fk": list(range(50)), "v": list(range(50))}],
                     table="fact")
    for name, keys in (("d1", [1, 2, 3]), ("d2", [7, 8, 9])):
        schema = Schema.of((f"k{name[1]}", DataType.INT64), ("n", DataType.INT64))
        setup_lake_table(platform, admin, schema, [{f"k{name[1]}": keys, "n": keys}], table=name)
    sql = (
        "SELECT f.v FROM ds.d1 a JOIN ds.fact f ON f.fk = a.k1 "
        "WHERE f.fk IN (SELECT k2 FROM ds.d2)"
    )
    for engine in (platform.home_engine, SparkSim(platform)):
        result = engine.execute(sql, admin)
        assert result.rows() == [] and result.stats.dpp_applied == 2
