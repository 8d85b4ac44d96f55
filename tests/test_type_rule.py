"""One rule for how two SQL types meet, read by every construct that mixes them.

``common_type`` (``repro.data.types``) is the one table: INT64 and FLOAT64
meet in FLOAT64, DATE and TIMESTAMP in TIMESTAMP, INT64 and DATE in DATE,
INT64 and TIMESTAMP in TIMESTAMP, and a bare NULL takes the other side's
type. The matrix below runs every pair from {INT64, FLOAT64, DATE,
TIMESTAMP, NULL} through every construct that mixes two types — comparison,
BETWEEN, IN list, CASE, COALESCE, IFNULL, IF, GREATEST, LEAST, UNION ALL,
equi-join and IN (subquery) — over a managed and a cached BigLake table,
read by the home engine and by SparkSim's connector. For each case:

* a value construct's result type is the pair's common type (two bare NULLs
  stay the untyped NULL's STRING);
* its rows equal those of the construct's plain form: the same construct
  with explicit CASTs to the common type, or the comparisons it stands for
  (``x BETWEEN a AND b`` is ``x >= a AND x <= b``, ``x IN (a, b)`` is
  ``x = a OR x = b``, a join or semi-join on ``a = b`` is one on
  ``a <= b AND a >= b``, which no key path reads);
* numeric pairs give sqlite3's rows too;
* a pair with no common type is an ``AnalysisError``.

A join key is a column, so joins skip the bare NULL. The Hypothesis test
checks the expression constructs the same way over drawn batches, without
a platform.
"""

from __future__ import annotations

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataType, MetadataCacheMode, Schema, batch_from_pydict
from repro.data.batch import RecordBatch
from repro.data.column import Column
from repro.data.types import common_type
from repro.errors import AnalysisError
from repro.external import SparkSim
from repro.sql.expressions import Binder, evaluate, evaluate_predicate
from repro.sql.parser import parse_expression

from tests.helpers import make_platform, setup_lake_table

INT, FLOAT, DATE, TS = DataType.INT64, DataType.FLOAT64, DataType.DATE, DataType.TIMESTAMP
TYPES = [INT, FLOAT, DATE, TS, None]  # None: a bare NULL
DAY = 86_400_000_000  # micros

SCHEMA = Schema.of(("id", INT), ("k", INT), ("f", FLOAT), ("d", DATE), ("t", TS))
FILES = [
    {"id": [1, 2], "k": [1, None], "f": [0.5, 1.5], "d": [19000, 20000],
     "t": [19000 * DAY, 19500 * DAY + 1]},
    {"id": [3, 4], "k": [2, 19000], "f": [2.0, None], "d": [None, 2], "t": [2, None]},
]
COLUMN = {INT: "k", FLOAT: "f", DATE: "d", TS: "t", None: "NULL"}
# Two literals per type: IN lists and BETWEEN bounds.
HIGH = {INT: "2", FLOAT: "1.5", DATE: "DATE '2022-01-08'",
        TS: "TIMESTAMP '2022-01-08 00:00:00'", None: "NULL"}
LOW = {INT: "1", FLOAT: "0.5", DATE: "DATE '1970-01-01'",
       TS: "TIMESTAMP '1970-01-01 00:00:00'", None: "NULL"}


def meet(a: DataType | None, b: DataType | None) -> DataType | None:
    """The pair's type under the rule; None for two bare NULLs."""
    return b if a is None else a if b is None else common_type(a, b)


def cast(expr: str, dtype: DataType | None) -> str:
    return expr if dtype is None else f"CAST({expr} AS {dtype.value})"


def qualified(dtype: DataType | None, alias: str) -> str:
    return COLUMN[dtype] if dtype is None else f"{alias}.{COLUMN[dtype]}"


# Value constructs over x (type a) and y (type b) under the condition {c}:
# the construct, and its plain form over X and Y, x and y cast to the pair's
# common type.
VALUE_FORMS = {
    "CASE": ("CASE WHEN {c} THEN {x} ELSE {y} END", "CASE WHEN {c} THEN {X} ELSE {Y} END"),
    "COALESCE": ("COALESCE({x}, {y})", "CASE WHEN {x} IS NOT NULL THEN {X} ELSE {Y} END"),
    "IFNULL": ("IFNULL({x}, {y})", "CASE WHEN {x} IS NOT NULL THEN {X} ELSE {Y} END"),
    "IF": ("IF({c}, {x}, {y})", "CASE WHEN {c} THEN {X} ELSE {Y} END"),
    "GREATEST": ("GREATEST({x}, {y})",
                 "CASE WHEN {x} IS NULL OR {y} IS NULL THEN NULL WHEN {X} >= {Y} THEN {X} ELSE {Y} END"),
    "LEAST": ("LEAST({x}, {y})",
              "CASE WHEN {x} IS NULL OR {y} IS NULL THEN NULL WHEN {X} <= {Y} THEN {X} ELSE {Y} END"),
}
# Predicates over x and y, or x and the literals {lo} and {hi} of y's type.
PREDICATE_FORMS = {
    "comparison": ("{x} < {y}", "{X} < {Y}"),
    "BETWEEN": ("{x} BETWEEN {lo} AND {hi}", "{x} >= {lo} AND {x} <= {hi}"),
    "IN list": ("{x} IN ({hi}, {lo})", "{x} = {hi} OR {x} = {lo}"),
}


def _fill(form: str, a, b, dtype, c: str) -> str:
    x, y = COLUMN[a], COLUMN[b]
    return form.format(x=x, y=y, X=cast(x, dtype), Y=cast(y, dtype), c=c, lo=LOW[b], hi=HIGH[b])


def _query(name: str, a, b, dtype) -> tuple[str, str]:
    """(the construct over ``{tbl}``, its plain form)."""
    if name in VALUE_FORMS:
        return tuple(
            f"SELECT id, {_fill(form, a, b, dtype, 'id > 2')} AS v FROM {{tbl}}"
            for form in VALUE_FORMS[name]
        )
    if name in PREDICATE_FORMS:
        return tuple(
            f"SELECT id FROM {{tbl}} WHERE {_fill(form, a, b, dtype, '')}"
            for form in PREDICATE_FORMS[name]
        )
    x, y = COLUMN[a], COLUMN[b]
    if name == "UNION ALL":
        arm = "SELECT id, {} AS v FROM {{tbl}}"
        return (
            f"{arm.format(x)} UNION ALL {arm.format(y)}",
            f"{arm.format(cast(x, dtype))} UNION ALL {arm.format(cast(y, dtype))}",
        )
    lx, ry = qualified(a, "l"), qualified(b, "r")
    pair = "FROM {tbl} AS l JOIN {tbl} AS r ON "
    if name == "equi-join":
        return f"SELECT l.id, r.id {pair}{lx} = {ry}", f"SELECT l.id, r.id {pair}{lx} <= {ry} AND {lx} >= {ry}"
    return (
        f"SELECT id FROM {{tbl}} WHERE {x} IN (SELECT {y} AS y FROM {{tbl}})",
        f"SELECT id FROM {{tbl}} WHERE id IN (SELECT l.id {pair}{lx} <= {ry} AND {lx} >= {ry})",
    )


CONSTRUCTS = [*PREDICATE_FORMS, *VALUE_FORMS, "UNION ALL", "equi-join", "IN (subquery)"]
VALUE_CONSTRUCTS = {*VALUE_FORMS, "UNION ALL"}
SQLITE_DIALECT = {"IF(": "iif(", "GREATEST(": "MAX(", "LEAST(": "MIN("}
CASES = [
    (name, a, b)
    for name in CONSTRUCTS
    for a in TYPES
    for b in TYPES
    if not (name == "equi-join" and None in (a, b))
]


def _case_id(case) -> str:
    name, a, b = case
    return f"{name}-{a.value if a else 'NULL'}-{b.value if b else 'NULL'}"


@pytest.fixture(scope="module")
def lake():
    platform, admin = make_platform()
    setup_lake_table(platform, admin, SCHEMA, FILES, dataset="tt", table="biglake",
                     cache_mode=MetadataCacheMode.AUTOMATIC)
    table = platform.tables.create_managed_table("tt", "managed", SCHEMA)
    for rows in FILES:
        platform.managed.append(table.table_id, batch_from_pydict(SCHEMA, rows))
    engines = {"home": platform.home_engine, "connector": SparkSim(platform, mode="connector")}
    db = sqlite3.connect(":memory:")
    db.execute("CREATE TABLE m (id INTEGER, k INTEGER, f REAL, d INTEGER, t INTEGER)")
    for rows in FILES:
        db.executemany("INSERT INTO m VALUES (?, ?, ?, ?, ?)", zip(*(rows[n] for n in SCHEMA.names())))
    yield platform, admin, engines, db
    db.close()


def _canonical(rows) -> list:
    return sorted(rows, key=lambda row: [(v is None, 0 if v is None else v) for v in row])


@pytest.mark.parametrize("case", CASES, ids=map(_case_id, CASES))
def test_every_construct_meets_the_pair_in_its_common_type(lake, case):
    platform, admin, engines, db = lake
    name, a, b = case
    dtype = meet(a, b)
    compatible = dtype is not None or (a is None and b is None)
    sql, plain = _query(name, a, b, dtype)
    for table in ("tt.managed", "tt.biglake"):
        for engine in engines.values():
            if not compatible:
                with pytest.raises(AnalysisError, match="incompatible types"):
                    engine.execute(sql.format(tbl=table), admin)
                continue
            got = engine.execute(sql.format(tbl=table), admin)
            want = engine.execute(plain.format(tbl=table), admin)
            assert _canonical(got.rows()) == _canonical(want.rows()), (table, sql)
            if name in VALUE_CONSTRUCTS:
                assert got.schema.field("v").dtype is (dtype or DataType.STRING)
                assert want.schema.field("v").dtype is got.schema.field("v").dtype
    if compatible and {a, b} <= {INT, FLOAT, None}:
        text = sql.format(tbl="m")
        for ours, theirs in SQLITE_DIALECT.items():
            text = text.replace(ours, theirs)
        assert _canonical(db.execute(text).fetchall()) == _canonical(got.rows())


@pytest.mark.parametrize("typed, dtype", [
    ("id > 2", DataType.BOOL), ("CAST('x' AS BYTES)", DataType.BYTES),
    ("CAST('2022-01-08' AS DATE)", DataType.DATE), ("'x'", DataType.STRING),
])
def test_a_bare_null_union_arm_takes_any_type(lake, typed, dtype):
    platform, admin, _, _ = lake
    sql = f"SELECT NULL AS v FROM tt.managed UNION ALL SELECT {typed} AS v FROM tt.managed"
    result = platform.home_engine.execute(sql, admin)
    assert result.schema.field("v").dtype is dtype
    assert result.column("v").count(None) == 4 and result.num_rows == 8
    distinct = sql.replace("SELECT NULL", "SELECT DISTINCT NULL")
    assert platform.home_engine.execute(distinct, admin).schema.field("v").dtype is dtype


def test_comparison_operands_are_cast_to_the_common_type():
    schema = Schema.of(("k", INT), ("f", FLOAT), ("d", DATE), ("t", TS))
    for a in TYPES:
        for b in TYPES:
            dtype = meet(a, b)
            if dtype is None:
                continue
            bound = Binder(schema).bind(parse_expression(f"{COLUMN[a]} = {COLUMN[b]}"))
            assert bound.left.dtype is bound.right.dtype is dtype


class TestDynamicPruningOnACastKey:
    """A join of DATE against TIMESTAMP keys casts one side; dynamic
    partition pruning must then inject nothing in the wrong unit, so the
    answer is the same with it on and off."""

    @pytest.fixture(scope="class")
    def joined(self):
        platform, admin = make_platform()
        setup_lake_table(platform, admin, SCHEMA, FILES, dataset="tt", table="fact")
        dim = Schema.of(("dd", DATE), ("tt", TS))
        setup_lake_table(platform, admin, dim, [{"dd": [19000, 5], "tt": [19000 * DAY, 5 * DAY]}],
                         dataset="tt", table="dim")
        return platform, admin

    @pytest.mark.parametrize("on, expected", [("d = tt", [(1,)]), ("t = dd", [(1,)])])
    def test_same_rows_with_and_without_dpp(self, joined, on, expected):
        platform, admin = joined
        engine = platform.home_engine
        sql = f"SELECT id FROM tt.fact JOIN tt.dim ON {on}"
        try:
            engine.enable_dpp = False
            without = engine.execute(sql, admin).rows()
            engine.enable_dpp = True
            with_dpp = engine.execute(sql, admin).rows()
        finally:
            engine.enable_dpp = True
        assert without == with_dpp == expected


# -- the same rule over drawn batches ----------------------------------------------

BATCH_SCHEMA = Schema.of(("k", INT), ("f", FLOAT), ("d", DATE), ("t", TS), ("c", DataType.BOOL))
VALUES = {
    "k": st.sampled_from([-1, 0, 1, 2, 19000]),
    "f": st.sampled_from([-1.0, 0.5, 1.0, 2.0, 19000.0]),
    "d": st.sampled_from([-1, 0, 1, 2, 19000]),
    "t": st.sampled_from([-1, 0, 1, 2, DAY, 2 * DAY, 19000 * DAY, 19000 * DAY + 1]),
    "c": st.booleans(),
}
# One literal of each type for an IN list.
LITERAL = {INT: "2", FLOAT: "2.0", DATE: "DATE '1970-01-03'",
           TS: "TIMESTAMP '1970-01-03 00:00:00'", None: "NULL"}


@st.composite
def batches(draw):
    n = draw(st.integers(1, 6))
    return RecordBatch(BATCH_SCHEMA, [
        Column.from_pylist(f.dtype, draw(st.lists(st.none() | VALUES[f.name], min_size=n, max_size=n)))
        for f in BATCH_SCHEMA
    ])


@settings(deadline=None)
@given(
    batch=batches(),
    name=st.sampled_from(sorted({*VALUE_FORMS, *PREDICATE_FORMS})),
    a=st.sampled_from(TYPES),
    b=st.sampled_from(TYPES),
)
def test_expressions_meet_like_their_plain_forms(batch, name, a, b):
    dtype = meet(a, b)
    binder = Binder(BATCH_SCHEMA)
    construct, plain = VALUE_FORMS.get(name) or PREDICATE_FORMS[name]
    x, y = COLUMN[a], COLUMN[b]
    fill = dict(x=x, y=y, X=cast(x, dtype), Y=cast(y, dtype), c="c", lo=LITERAL[b], hi=y)
    if name == "IN list":
        construct, plain = "{x} IN ({lo})", "{x} = {lo}"
    if dtype is None and None not in (a, b):
        with pytest.raises(AnalysisError, match="incompatible types"):
            binder.bind(parse_expression(construct.format(**fill)))
        return
    got, want = (binder.bind(parse_expression(form.format(**fill))) for form in (construct, plain))
    if name in VALUE_FORMS:
        assert got.dtype is (dtype or DataType.STRING)
        assert evaluate(got, batch).to_pylist() == evaluate(want, batch).to_pylist()
    else:
        assert evaluate_predicate(got, batch).tolist() == evaluate_predicate(want, batch).tolist()
