"""The warm read path on dictionary codes, against the code it replaced.

* ``evaluate``: a comparison, BETWEEN, IN, IS NULL or LIKE over one
  dictionary column — and NOT / AND / OR of such over the same column — runs
  once per dictionary entry and is gathered by code; a literal side of a
  comparison is one row numpy broadcasts. The oracle is the decode-first
  evaluator kept verbatim in ``tests/reference_expressions.py``: the same
  values (the placeholders under a NULL too), the same validity, the same
  exception.
* ``Superluminal.process``: one selection and one gather, against the
  two-filter pipeline in ``tests/reference_superluminal.py`` under no, a
  deny-all, one and an OR of two row policies and every mask kind — and the
  security invariant it keeps: the restriction never sees a hidden row.
* ``ReadApi._columnar_scan`` counts the chunk tier once per file: the
  registry still ties out with the tier's own counters and the sessions'
  ``cache_hit_bytes`` after cold, warm and abandoned scans.
* A fully drained session leaves the registry.

``python -m pytest tests/test_encoded_predicates.py --hypothesis-profile=oracles``
runs the differential tests long (CI does).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LakehousePlatform, Role
from repro.data.batch import RecordBatch, batch_from_pydict
from repro.data.column import Column, DictionaryColumn
from repro.data.types import DataType, Field, Schema
from repro.errors import ExecutionError, StorageApiError
from repro.formats import pqs
from repro.security.policies import EffectiveAccess, MaskingKind, RowAccessPolicy
from repro.sql import ast_nodes as ast
from repro.sql.expressions import Binder, evaluate, evaluate_predicate
from repro.sql.parser import parse_expression
from repro.storageapi.fileutil import write_data_file
from repro.storageapi.streams import drain_session
from repro.storageapi.superluminal import Superluminal

from tests.reference_expressions import reference_evaluate, reference_evaluate_predicate
from tests.reference_superluminal import ReferenceSuperluminal

_FLOATS = [0.0, -0.0, 1.5, -2.5, 2.0**53, math.nan, math.inf, -math.inf]
_INTS = [0, 1, -1, 2, 2**53 + 1, 2**63 - 1, -(2**63)]
_MIDNIGHT = 86_400_000_000

VALUES = {
    DataType.INT64: st.one_of(st.integers(-3, 3), st.sampled_from(_INTS)),
    DataType.FLOAT64: st.one_of(st.integers(-3, 3).map(float), st.sampled_from(_FLOATS)),
    DataType.BOOL: st.booleans(),
    DataType.STRING: st.text(alphabet="ab%é", max_size=3),
    DataType.BYTES: st.binary(max_size=2),
    DataType.DATE: st.integers(-3, 3),
    DataType.TIMESTAMP: st.one_of(
        st.integers(-3, 3), st.integers(-3, 3).map(lambda d: d * _MIDNIGHT)),
}

_NULL = st.just(ast.Literal(None))
_NUMBERS = st.one_of(
    VALUES[DataType.INT64], VALUES[DataType.FLOAT64], st.sampled_from([2**63, 2**70]))
_TEMPORAL = st.one_of(
    st.integers(-3, 3).map(ast.Literal),
    st.sampled_from(["1969-12-30", "1970-01-01", "1970-01-03"]).map(
        lambda s: ast.Literal(s, "DATE")),
    st.sampled_from(["1970-01-01 00:00:00", "1970-01-02 12:00:00"]).map(
        lambda s: ast.Literal(s, "TIMESTAMP")),
)
LITERALS = {
    DataType.INT64: st.one_of(_NUMBERS.map(ast.Literal), _NULL),
    DataType.FLOAT64: st.one_of(_NUMBERS.map(ast.Literal), _NULL),
    DataType.BOOL: st.one_of(st.booleans().map(ast.Literal), _NULL),
    DataType.STRING: st.one_of(VALUES[DataType.STRING].map(ast.Literal), _NULL),
    DataType.BYTES: st.one_of(VALUES[DataType.BYTES].map(ast.Literal), _NULL),
    DataType.DATE: st.one_of(_TEMPORAL, _NULL),
    DataType.TIMESTAMP: st.one_of(_TEMPORAL, _NULL),
}
COMPARISONS = ["=", "!=", "<", "<=", ">", ">="]
PATTERNS = ["a%", "%b", "_", "%", "a_é%", "", "é"]


@st.composite
def columns(draw, dtype: DataType, n: int):
    """``n`` rows of ``dtype``: flat, dictionary-encoded, a gather from a
    longer encoded column (entries no row uses, possibly more entries than
    rows), or raw codes — any negative code a null — over a possibly empty
    dictionary."""
    kind = draw(st.sampled_from(["flat", "encoded", "gathered", "raw"]))
    items = st.one_of(st.none(), VALUES[dtype])
    if kind == "raw":
        entries = draw(st.lists(VALUES[dtype], max_size=5))
        codes = draw(st.lists(st.integers(-3, len(entries) - 1), min_size=n, max_size=n))
        dictionary = Column(dtype, entries)  # always fully valid
        return DictionaryColumn(dtype, np.asarray(codes, dtype=np.int32), dictionary)
    if kind == "gathered":
        longer = draw(st.lists(items, min_size=max(n, 1), max_size=n + 6))
        at = draw(st.lists(st.integers(0, len(longer) - 1), min_size=n, max_size=n))
        encoded = DictionaryColumn.encode(Column.from_pylist(dtype, longer))
        return encoded.take(np.asarray(at, dtype=np.intp))
    flat = Column.from_pylist(dtype, draw(st.lists(items, min_size=n, max_size=n)))
    return flat if kind == "flat" else DictionaryColumn.encode(flat)


@st.composite
def batches(draw, schema: Schema | None = None):
    n = draw(st.integers(0, 10))
    if schema is None:
        width = draw(st.sampled_from([1, 1, 2, 3]))
        dtypes = draw(st.lists(st.sampled_from(list(DataType)), min_size=width, max_size=width))
        schema = Schema(tuple(Field(f"c{j}", dtype) for j, dtype in enumerate(dtypes)))
    return RecordBatch(schema, [draw(columns(f.dtype, n)) for f in schema])


@st.composite
def predicates(draw, schema: Schema, depth: int = 2):
    kinds = ["cmp", "cmp", "between", "in", "isnull", "like"]
    kind = draw(st.sampled_from(kinds + (["not", "and", "or"] if depth else [])))
    if kind == "not":
        return ast.UnaryOp("NOT", draw(predicates(schema, depth - 1)))
    if kind in ("and", "or"):
        left, right = draw(predicates(schema, depth - 1)), draw(predicates(schema, depth - 1))
        return ast.BinaryOp(kind.upper(), left, right)
    f = draw(st.sampled_from(schema.fields))
    column, literal = ast.ColumnRef((f.name,)), LITERALS[f.dtype]
    negated = draw(st.booleans())
    if kind == "like" and f.dtype.is_variable_width:  # a text pattern raises on BYTES
        return ast.Like(column, draw(st.sampled_from(PATTERNS)), negated)
    if kind == "isnull":
        return ast.IsNull(column, negated)
    if kind == "in":
        return ast.InList(column, tuple(draw(st.lists(literal, max_size=4))), negated)
    if kind == "between":
        return ast.Between(column, draw(literal), draw(literal), negated)
    op, value = draw(st.sampled_from(COMPARISONS)), draw(literal)
    left, right = (column, value) if draw(st.booleans()) else (value, column)
    return ast.BinaryOp(op, left, right)


def outcome(fn):
    """(result, None), or (None, the exception's type)."""
    try:
        return fn(), None
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return None, type(exc)


def typed(values: list) -> list:
    return [(type(v), repr(v)) for v in values]


# --------------------------------------------------------------------------
# evaluate: codes and scalars against decode first
# --------------------------------------------------------------------------


@given(st.data())
@settings(deadline=None)
def test_predicates_are_what_decoding_first_computes(data):
    batch = data.draw(batches())
    bound = Binder(batch.schema).bind(data.draw(predicates(batch.schema)))
    got, got_error = outcome(lambda: evaluate(bound, batch))
    want, want_error = outcome(lambda: reference_evaluate(bound, batch))
    assert got_error is want_error
    if want is None:
        return
    assert got.dtype is want.dtype is DataType.BOOL
    assert got.is_valid().tolist() == want.is_valid().tolist()
    # Every value, the placeholders under a NULL included.
    assert got.values.tolist() == want.values.tolist()
    assert (evaluate_predicate(bound, batch).tolist()
            == reference_evaluate_predicate(bound, batch).tolist())


def _strings(*values) -> RecordBatch:
    """``s``, dictionary-encoded, beside ``k`` and ``b``, a BYTES
    dictionary column of NULLs over entries no row uses."""
    n = len(values)
    column = DictionaryColumn.encode(Column.from_pylist(DataType.STRING, list(values)))
    blobs = DictionaryColumn(
        DataType.BYTES, np.full(n, -1, dtype=np.int32), Column(DataType.BYTES, [b"a"]))
    schema = Schema.of(("s", DataType.STRING), ("k", DataType.INT64), ("b", DataType.BYTES))
    return RecordBatch(schema, [column, Column.from_pylist(DataType.INT64, list(range(n))), blobs])


@pytest.mark.parametrize("sql, want", [
    ("s = 'a'", [False, True, False, False, False, True]),
    ("s BETWEEN 'a' AND 'b'", [True, True, False, True, False, True]),
    ("s IN ('a', 'c')", [False, True, False, False, True, True]),
    ("s IS NULL", [False, False, True, False, False, False]),
    ("s LIKE 'a%'", [False, True, False, False, False, True]),
    ("NOT (s < 'b') OR s IS NULL", [True, False, True, True, True, False]),
])
def test_a_dictionary_predicate_never_decodes(monkeypatch, sql, want):
    batch = _strings("b", "a", None, "b", "c", "a")
    bound = Binder(batch.schema).bind(parse_expression(sql))
    assert bound.codes_column == 0

    def decode(self):
        raise AssertionError("decoded")

    monkeypatch.setattr(DictionaryColumn, "decode", decode)
    assert evaluate_predicate(bound, batch).tolist() == want


@pytest.mark.parametrize("sql", [
    "CAST(s AS INT64) > 0",  # raises on text that is not a number
    "UPPER(s) = 'A'",  # a function: nothing says it cannot raise
    "s = CONCAT('a', '')",  # a call on the literal side too
    "s = 'a' AND k > 0",  # two columns
    "s < s",  # no literal side
    "b LIKE 'a%'",  # a text pattern raises on BYTES
])
def test_a_predicate_that_might_raise_or_reads_two_columns_reads_rows(sql):
    batch = _strings("1", "2")
    bound = Binder(batch.schema).bind(parse_expression(sql))
    assert bound.codes_column is None
    if sql.startswith("b "):  # no row has a value, so nothing raises
        assert evaluate(bound, batch).to_pylist() == [None, None]


def test_a_literal_is_one_row_not_a_column_of_the_batch_length(monkeypatch):
    schema = Schema.of(("x", DataType.FLOAT64), ("k", DataType.INT64))
    batch = batch_from_pydict(schema, {"x": [0.5, 1.5, None, 2.5], "k": [1, 2, 3, 4]})
    # The INT64 literal is cast to FLOAT64 once, at bind.
    bound = Binder(schema).bind(parse_expression("x < 2 AND k >= 2"))
    repeats = []
    original = Column.repeat
    monkeypatch.setattr(Column, "repeat", staticmethod(
        lambda *args: repeats.append(args) or original(*args)))
    assert evaluate_predicate(bound, batch).tolist() == [False, True, False, False]
    assert repeats == []


# --------------------------------------------------------------------------
# Superluminal: one selection, one gather
# --------------------------------------------------------------------------

TABLE = Schema.of(
    ("k", DataType.INT64), ("s", DataType.STRING),
    ("x", DataType.FLOAT64), ("d", DataType.DATE),
)
POLICIES = ["k > 0", "s LIKE 'a%'", "x IS NULL OR x < 1.5", "d BETWEEN -1 AND 2", "k IN (1, 2, 3)"]


@st.composite
def accesses(draw) -> EffectiveAccess:
    shape = draw(st.sampled_from(["none", "deny-all", "one", "or-of-two"]))
    count = {"none": 0, "deny-all": 0, "one": 1, "or-of-two": 2}[shape]
    filters = draw(st.lists(st.sampled_from(POLICIES), min_size=count, max_size=count, unique=True))
    masks = draw(st.dictionaries(
        st.sampled_from(TABLE.names()),
        st.sampled_from([MaskingKind.NULLIFY, MaskingKind.HASH, MaskingKind.LAST_FOUR]),
        max_size=2))
    return EffectiveAccess(
        row_filters=filters, row_policies_exist=shape != "none", masked_columns=masks)


@given(st.data())
@settings(deadline=None)
def test_one_gather_is_the_two_filter_pipeline(data):
    access = data.draw(accesses())
    restriction = data.draw(st.none() | predicates(TABLE, depth=1))
    projected = data.draw(st.none() | st.lists(
        st.sampled_from(TABLE.names()), min_size=1, max_size=4, unique=True))
    new = Superluminal(TABLE, access, projected, restriction)
    old = ReferenceSuperluminal(TABLE, access, projected, restriction)
    for batch in data.draw(st.lists(batches(TABLE), min_size=1, max_size=2)):
        got, got_error = outcome(lambda: new.process(batch))
        want, want_error = outcome(lambda: old.process(batch))
        assert got_error is want_error
        if want is None:
            continue
        assert got.schema == want.schema
        for g, w in zip(got.columns, want.columns):
            assert typed(g.to_pylist()) == typed(w.to_pylist())
    assert new.stats == old.stats


def _lake(files: list[dict], schema: Schema, row_group_rows: int = 65536):
    """A BigLake table ``ds.t`` over one pqs file per column dict."""
    platform = LakehousePlatform()
    admin = platform.admin_user()
    store = platform.stores.store_for(platform.config.home_region.location)
    store.create_bucket("lake")
    conn = platform.connections.create_connection("ds.conn")
    platform.connections.grant_lake_access(conn, "lake")
    platform.iam.grant("connections/ds.conn", Role.CONNECTION_USER, admin)
    platform.catalog.create_dataset("ds")
    for n, rows in enumerate(files):
        write_data_file(
            store, "lake", f"t/part-{n:04d}.pqs", schema,
            [batch_from_pydict(schema, rows)], row_group_rows=row_group_rows,
        )
    table = platform.tables.create_biglake_table(admin, "ds", "t", schema, "lake", "t", "ds.conn")
    return platform, admin, table, store


def test_a_restriction_never_sees_a_row_the_policy_hides():
    """The one text that is not a number sits in the one row the reader's
    policy hides, in a dictionary-encoded file and in a plain one:
    ``CAST(s AS INT64)`` would raise on it, so evaluating the restriction
    before the policy — or over the whole batch — fails the read."""
    schema = Schema.of(("id", DataType.INT64), ("s", DataType.STRING))
    repeated = {"id": list(range(12)), "s": [str(i % 3) for i in range(12)]}
    distinct = {"id": list(range(12, 24)), "s": [str(i) for i in range(12, 24)]}
    repeated["s"][7] = distinct["s"][19 - 12] = "oops"
    platform, admin, table, store = _lake([repeated, distinct], schema)
    encodings = [
        pqs.read_footer(store.get_object("lake", f"t/part-{n:04d}.pqs"))
        .row_groups[0].column("s").encoding
        for n in range(2)
    ]
    assert encodings[0] != pqs.ENCODING_PLAIN and encodings[1] == pqs.ENCODING_PLAIN
    reader = platform.create_user("reader", [Role.DATA_VIEWER])
    platform.iam.grant("connections/ds.conn", Role.CONNECTION_USER, reader)
    table.policies.add_row_policy(
        RowAccessPolicy("hide", "id != 7 AND id != 19", frozenset([reader])))
    table.policies.add_row_policy(RowAccessPolicy("all", "id >= 0", frozenset([admin])))
    read_api, restriction = platform.read_api, "CAST(s AS INT64) > 0"
    want = [i for i in range(24) if i not in (7, 19) and (i % 3 if i < 12 else i) > 0]

    session = read_api.create_read_session(
        reader, table, max_streams=2, row_restriction=restriction)
    got = [
        row[0] for stream in range(len(session.streams))
        for batch in read_api.read_rows(session, stream) for row in batch.iter_rows()
    ]
    assert sorted(got) == want
    drained = read_api.create_read_session(
        reader, table, max_streams=2, row_restriction=restriction)
    assert drain_session(read_api, drained.serialize()).rows == len(want)
    # The admin's policy hides nothing: the restriction meets the text.
    exposed = read_api.create_read_session(admin, table, row_restriction=restriction)
    with pytest.raises(ExecutionError, match="cannot CAST 'oops' to INT64"):
        for stream in range(len(exposed.streams)):
            list(read_api.read_rows(exposed, stream))


# --------------------------------------------------------------------------
# The scan counts per file
# --------------------------------------------------------------------------


def _chunk_metrics(platform) -> dict:
    metrics = platform.ctx.metrics
    return {
        "hits": metrics.counter("repro_cache_hits_total").get(tier="chunk"),
        "misses": metrics.counter("repro_cache_misses_total").get(tier="chunk"),
        "bytes": metrics.counter("repro_cache_bytes_total").get(tier="chunk"),
        "readapi_bytes": metrics.counter("readapi_cache_hit_bytes_total").get(),
        "resident": metrics.gauge("repro_cache_resident_bytes").get(tier="chunk"),
    }


def test_per_file_counts_tie_out_after_cold_warm_and_abandoned_scans(monkeypatch):
    schema = Schema.of(("id", DataType.INT64), ("v", DataType.FLOAT64))
    files = [{"id": list(range(b, b + 40)), "v": [i / 4 for i in range(40)]} for b in (0, 40)]
    platform, admin, table, _ = _lake(files, schema, row_group_rows=10)
    read_api, tier = platform.read_api, platform.data_cache.chunks
    # What a gauge set at every lookup would read: the resident bytes then.
    resident_at_lookup = []
    get = tier.get
    monkeypatch.setattr(tier, "get", lambda key: (
        get(key), resident_at_lookup.append(tier.resident_bytes))[0])
    sessions = []

    def scan(consume):
        session = read_api.create_read_session(admin, table, max_streams=1, ranged_reads=True)
        sessions.append(session)
        consume(read_api.read_rows(session, 0))
        assert _chunk_metrics(platform) == {
            "hits": tier.stats.hits,
            "misses": tier.stats.misses,
            "bytes": tier.stats.hit_bytes,
            "readapi_bytes": sum(s.stats.cache_hit_bytes for s in sessions),
            "resident": resident_at_lookup[-1],
        }

    def abandon(batches):
        next(batches)  # one row group of a four-row-group file, then walk away
        batches.close()

    scan(list)  # cold: every chunk misses, then is admitted
    assert tier.stats.hits == 0 and resident_at_lookup[-1] < tier.resident_bytes
    scan(list)  # warm: every chunk hits
    scan(abandon)
    scan(lambda batches: next(batches))  # dropped unclosed: collected, then counted
    # 2 files x 4 row groups x 2 columns; each early stop read one row group.
    assert (tier.stats.misses, tier.stats.hits) == (16, 16 + 2 + 2)


# --------------------------------------------------------------------------
# A fully drained session leaves the registry
# --------------------------------------------------------------------------


def test_a_drained_session_leaves_the_registry_and_its_holders_keep_it():
    schema = Schema.of(("id", DataType.INT64),)
    platform, admin, table, _ = _lake([{"id": [i, i + 10]} for i in range(4)], schema)
    read_api = platform.read_api
    session = read_api.create_read_session(admin, table, max_streams=2)
    blob = session.serialize()
    held = read_api.attach(blob)
    list(read_api.read_rows(held, 0))
    assert read_api.attach(blob) is session  # one stream left: still live

    report = drain_session(read_api, blob)
    assert report.rows == 4  # stream 1's; stream 0 was read above
    assert session.session_id not in read_api._sessions
    with pytest.raises(StorageApiError, match="unknown session"):
        read_api.attach(blob)
    # Whoever holds the object still has it, drained and counted.
    assert held.stats.rows_returned == 8 and all(s.exhausted for s in held.streams)
    assert list(read_api.read_rows(held, 1)) == []
