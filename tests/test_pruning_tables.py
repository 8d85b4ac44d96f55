"""Pruning through whole tables: two minimal reproducers with their answers
written out, and a metamorphic probe.

* NaN: files ``[1.0, NaN]``, ``[5.0]`` and ``[7.0]``. Bounds that held the
  NaN once pruned the first file for ``f = 1`` and ``f IN (1)``, and a
  compacted baseline pruned it for ``f >= 1`` and ``f <= 2`` too.
* ints above 2**53: the engine compares an INT64 with a FLOAT64 as two
  float64s, so ``i = 9007199254740992.0`` holds for ``i = 2**53 + 1``;
  pruning once compared them exactly and dropped that file.
* DATE against TIMESTAMP: the engine compares the two as TIMESTAMPs (their
  common type), while pruning once compared a day number with micros and
  dropped both files holding ``d > TIMESTAMP '2020-01-01 00:00:00'`` and
  ``t < DATE '2030-01-01'``.

The probe: ``WHERE p`` returns what ``WHERE (p) OR (c IS NULL AND c IS NOT
NULL)`` returns — the same predicate, which no pruner reads — over drawn
1–5-file BigLake and BLMT tables holding NULLs, ±inf, −0.0, NaN, ints
above 2**53, and dates and timestamps compared with literals of either
type, the BLMT one before and after ``compact_baseline``.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import DataType, MetadataCacheMode, Role, Schema, batch_from_pydict
from repro.external import SparkSim

from tests.helpers import make_platform, setup_lake_table

SCHEMA = Schema.of(
    ("f", DataType.FLOAT64), ("i", DataType.INT64), ("s", DataType.STRING),
    ("d", DataType.DATE), ("t", DataType.TIMESTAMP),
)
NAN = math.nan
BIG = 2**53
DAY = 86_400_000_000  # micros
FILES = [
    {"f": [1.0, NAN], "i": [1, 2], "s": ["a", "b"], "d": [19000, None], "t": [19000 * DAY, None]},
    {"f": [5.0], "i": [BIG + 1], "s": ["c"], "d": [20000], "t": [20000 * DAY]},
    {"f": [7.0], "i": [3], "s": ["d"], "d": [None], "t": [None]},
]

#: predicate -> rows, by the engine's NaN rule: every comparison with NaN is
#: false except ``!=``, and NOT flips it.
EXPECTED = {
    "f >= 1": 3,
    "f <= 2": 1,
    "f = 1": 1,
    "f IN (1)": 1,
    "f BETWEEN 0 AND 2": 1,
    "f != 1": 3,
    "NOT (f < 3)": 3,
    "i = 9007199254740992.0": 1,
    "i <= 9007199254740992.0": 4,
    "i IN (9007199254740992.0)": 1,
    # Days 19000 and 20000 are 2022-01-08 and 2024-10-04.
    "d > TIMESTAMP '2020-01-01 00:00:00'": 2,
    "t < DATE '2030-01-01'": 2,
    "d IN (TIMESTAMP '2022-01-08 00:00:00')": 1,
    "t IN (DATE '2024-10-04')": 1,
    "t BETWEEN DATE '2022-01-01' AND DATE '2022-12-31'": 1,
    "d BETWEEN TIMESTAMP '2022-01-08 00:00:01' AND TIMESTAMP '2030-01-01 00:00:00'": 1,
}

KINDS = ["biglake_cached", "biglake_uncached", "blmt_tail", "blmt_compacted", "managed"]


def _blmt(platform, admin, name, files, compact):
    store = platform.stores.store_for(platform.config.home_region.location)
    if not store.has_bucket("cust"):
        store.create_bucket("cust")
        conn = platform.connections.create_connection("ds.cust")
        platform.connections.grant_lake_access(conn, "cust", writable=True)
        platform.iam.grant("connections/ds.cust", Role.CONNECTION_USER, admin)
    table = platform.tables.create_blmt(
        admin, "ds", name, SCHEMA, "cust", f"tables/{name}", "ds.cust"
    )
    for rows in files:
        platform.tables.blmt.insert(table, [batch_from_pydict(SCHEMA, rows)])
    if compact:
        platform.bigmeta.compact_baseline(table.table_id)
    return table


def _create(platform, admin, kind, name, files):
    """A ``kind`` table called ``ds.<name>`` holding one file per dict."""
    if kind.startswith("biglake"):
        mode = MetadataCacheMode.AUTOMATIC if kind == "biglake_cached" else MetadataCacheMode.DISABLED
        setup_lake_table(platform, admin, SCHEMA, files, table=name, cache_mode=mode)
    elif kind.startswith("blmt"):
        _blmt(platform, admin, name, files, compact=kind == "blmt_compacted")
    else:
        if not platform.catalog.has_dataset("ds"):
            platform.catalog.create_dataset("ds")
        table = platform.tables.create_managed_table("ds", name, SCHEMA)
        for rows in files:
            platform.managed.append(table.table_id, batch_from_pydict(SCHEMA, rows))


@pytest.fixture(scope="module")
def reproducer():
    platform, admin = make_platform()
    for kind in KINDS:
        _create(platform, admin, kind, kind, FILES)
    engines = {
        "home": platform.home_engine,
        "connector": SparkSim(platform, mode="connector"),
    }
    return engines, admin


@pytest.mark.parametrize("where", sorted(EXPECTED))
@pytest.mark.parametrize("engine", ["home", "connector"])
@pytest.mark.parametrize("kind", KINDS)
def test_reproducer_rows(reproducer, kind, engine, where):
    engines, admin = reproducer
    result = engines[engine].execute(f"SELECT f FROM ds.{kind} WHERE {where}", admin)
    assert result.num_rows == EXPECTED[where]


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_min_and_max_propagate_nan(reproducer):
    """Chunk bounds leave NaN out; MIN and MAX do not."""
    engines, admin = reproducer
    (low, high), = engines["home"].execute(
        "SELECT MIN(f), MAX(f) FROM ds.managed", admin
    ).rows()
    assert math.isnan(low) and math.isnan(high)


# -- the metamorphic probe ------------------------------------------------------------

VALUES = {
    "f": st.sampled_from([0.0, -0.0, 1.0, 1.5, -2.5, float(BIG), math.inf, -math.inf, NAN]),
    "i": st.sampled_from([-1, 0, 1, 2, BIG, BIG + 1, -BIG - 1]),
    "s": st.sampled_from(["", "a", "ab", "b"]),
    "d": st.sampled_from([-1, 0, 1, 19000, 19001, 20000]),
    "t": st.sampled_from([-1, 0, 1, DAY, DAY + 1, 19000 * DAY, 19000 * DAY + 1, 20000 * DAY]),
}
LITERALS = {
    "f": st.sampled_from(["0", "1", "-0.0", "1.5", "-2.5", "9007199254740993", "9007199254740992.0"]),
    "i": st.sampled_from(["0", "1", "2", "1.5", "9007199254740993", "9007199254740992.0", "-9007199254740993"]),
    "s": st.sampled_from(["''", "'a'", "'ab'", "'b'"]),
    "d": st.sampled_from([
        "0", "1", "DATE '1970-01-02'", "DATE '2022-01-08'", "TIMESTAMP '1970-01-02 00:00:00'",
        "TIMESTAMP '2022-01-08 00:00:00'", "TIMESTAMP '2022-01-08 00:00:01'",
    ]),
    "t": st.sampled_from([
        "0", "86400000001", "DATE '1970-01-02'", "DATE '2022-01-08'",
        "TIMESTAMP '1970-01-02 00:00:00'", "TIMESTAMP '2022-01-08 00:00:01'",
    ]),
}


@st.composite
def _files(draw):
    """1–5 files of 0–3 rows each, every value possibly NULL."""
    files = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(0, 3))
        files.append({
            name: draw(st.lists(st.none() | values, min_size=n, max_size=n))
            for name, values in VALUES.items()
        })
    return files


@st.composite
def _atoms(draw):
    column = draw(st.sampled_from(sorted(VALUES)))
    literal = LITERALS[column]
    shape = draw(st.sampled_from(["cmp", "in", "between"]))
    if shape == "cmp":
        op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
        return column, f"{column} {op} {draw(literal)}"
    if shape == "in":
        items = draw(st.lists(literal, min_size=1, max_size=3))
        return column, f"{column} IN ({', '.join(items)})"
    return column, f"{column} BETWEEN {draw(literal)} AND {draw(literal)}"


@settings(deadline=None)
@given(files=_files(), atoms=st.lists(_atoms(), min_size=1, max_size=2))
def test_where_p_equals_its_unprunable_twin(files, atoms):
    platform, admin = make_platform()
    where = " AND ".join(text for _, text in atoms)
    column = atoms[0][0]
    twin = f"({where}) OR ({column} IS NULL AND {column} IS NOT NULL)"

    def answers(table: str, predicate: str) -> list[str]:
        sql = f"SELECT f, i, s, d, t FROM ds.{table} WHERE {predicate}"
        return sorted(map(repr, platform.home_engine.execute(sql, admin).rows()))

    _create(platform, admin, "biglake_cached", "biglake", files)
    _create(platform, admin, "blmt_tail", "blmt", files)
    for table in ("biglake", "blmt"):
        assert answers(table, where) == answers(table, twin), (table, where, files)
    platform.bigmeta.compact_baseline(platform.catalog.resolve(("ds", "blmt")).table_id)
    assert answers("blmt", where) == answers("blmt", twin), ("compacted", where, files)
