"""Rows leave the columnar world through one kernel — and it is the same rows.

``Column.to_pylist`` is ``ndarray.tolist`` plus a null patch; row views,
masks, the drain digest and every per-value expression loop walk its lists.
Two things are pinned here (DESIGN.md §13, "row boundary"):

* **Same values, same python types** as the per-element loops it replaced,
  which live verbatim in ``tests/reference_rows.py`` — for every dtype and
  null pattern, for flat and dictionary-encoded input, and for the null-free
  predicate fast path against the Kleene code it shortcuts.
* **The boundary is gone, not moved** — counting wrappers (the
  ``test_query_fast_path`` idiom): a warm governed drain and the seventeen
  suite statements never call ``Column.__getitem__``, and the drain's
  restriction never asks a null-free column for a validity mask.
"""

from __future__ import annotations

import operator
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Role
from repro.bench import build_tpcds_platform, build_tpch_platform
from repro.data.batch import RecordBatch
from repro.data.column import Column, DictionaryColumn
from repro.data.types import DataType, Field, Schema
from repro.engine.engine import QueryResult, QueryStats
from repro.errors import AnalysisError
from repro.security.policies import (
    DataMaskingRule,
    MaskingKind,
    RowAccessPolicy,
    apply_mask_value,
)
from repro.sql import expressions
from repro.sql.expressions import (
    DEFAULT_FUNCTIONS,
    BoundBinary,
    BoundCast,
    BoundColumn,
    BoundLike,
    evaluate,
    evaluate_predicate,
)
from repro.storageapi import streams
from repro.storageapi.superluminal import mask_column

from tests import reference_rows as reference

PYTHON_TYPES = {int, float, bool, str, bytes, type(None)}
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

_ints = st.one_of(
    st.integers(INT64_MIN, INT64_MAX), st.sampled_from([INT64_MIN, INT64_MAX, 0, -1])
)
VALUES = {
    DataType.INT64: _ints,
    DataType.FLOAT64: st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0]),
    ),
    DataType.BOOL: st.booleans(),
    DataType.STRING: st.text(max_size=6),
    DataType.BYTES: st.binary(max_size=6),
    DataType.TIMESTAMP: _ints,
    DataType.DATE: st.integers(-100_000, 100_000),
}
DTYPES = st.sampled_from(list(DataType))


@st.composite
def items_of(draw, dtype: DataType, size: int | None = None) -> list:
    """Python values of ``dtype`` with no, some or only nulls (or no rows)."""
    nulls = draw(st.sampled_from(["none", "some", "all"]))
    length = st.integers(0, 24) if size is None else st.just(size)
    n = draw(length)
    if nulls == "all":
        return [None] * n
    value = VALUES[dtype] if nulls == "none" else st.one_of(st.none(), VALUES[dtype])
    return draw(st.lists(value, min_size=n, max_size=n))


@st.composite
def columns(draw, dtype: DataType | None = None, size: int | None = None) -> Column:
    dtype = dtype or draw(DTYPES)
    return Column.from_pylist(dtype, draw(items_of(dtype, size)))


def typed(values: list) -> list:
    """Values with their python type, NaN and -0.0 told apart by repr."""
    assert {type(v) for v in values} <= PYTHON_TYPES, values
    return [(type(v), repr(v)) for v in values]


def assert_same_column(got: Column, want: Column) -> None:
    assert got.dtype is want.dtype
    assert (got.validity is None) == (want.validity is None)
    assert np.array_equal(got.is_valid(), want.is_valid())
    assert typed(reference.to_pylist(got)) == typed(reference.to_pylist(want))


def encoded_variants(column: Column, draw) -> list[DictionaryColumn]:
    """``column`` dictionary-encoded, and a filtered copy whose dictionary
    may outnumber its rows."""
    encoded = reference.dictionary_encode(column)
    keep = np.array(draw(st.lists(
        st.booleans(), min_size=len(column), max_size=len(column))), dtype=bool)
    return [encoded, encoded.filter(keep)]


# --------------------------------------------------------------------------
# (A) the kernel: column -> python
# --------------------------------------------------------------------------


@given(columns())
@settings(max_examples=300, deadline=None)
def test_to_pylist_and_iter_match_getitem(column):
    want = typed(reference.to_pylist(column))
    assert typed(column.to_pylist()) == want
    assert typed(list(column)) == want
    assert [column[i] is None for i in range(len(column))] == [t is type(None) for t, _ in want]


@given(st.lists(st.one_of(st.none(), st.text(alphabet="abé", max_size=3)), max_size=12),
       st.lists(st.one_of(st.none(), st.binary(max_size=3)), max_size=12))
@settings(max_examples=100, deadline=None)
def test_object_arrays_of_numpy_scalars_unwrap(texts, blobs):
    """A STRING column built from a ``<U`` array holds ``np.str_``; the
    kernel unwraps it as ``__getitem__`` does, nulls or not."""
    for dtype, items, kind, empty in (
        (DataType.STRING, texts, "U4", ""), (DataType.BYTES, blobs, "S4", b"")
    ):
        filled = np.array([empty if v is None else v for v in items], dtype=kind)
        column = Column(dtype, filled, np.array([v is not None for v in items], dtype=bool))
        assert all(isinstance(v, np.generic) for v in column.values)
        assert typed(column.to_pylist()) == typed(reference.to_pylist(column))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_dictionary_to_pylist_matches_decode(data):
    dtype = data.draw(DTYPES)
    dictionary = Column.from_pylist(
        dtype, data.draw(st.lists(VALUES[dtype], max_size=6)))
    # -1 is the null; any other negative code in file bytes reads as one too.
    codes = data.draw(st.lists(st.integers(-3, len(dictionary) - 1), max_size=24))
    column = DictionaryColumn(dtype, np.asarray(codes, dtype=np.int32), dictionary)
    assert typed(column.to_pylist()) == typed(reference.to_pylist(column.decode()))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_row_views_match_row_by_row(data):
    """``iter_rows`` / ``to_pydict`` over mixed flat and dictionary columns
    are ``batch.row(i)`` for every ``i``."""
    n = data.draw(st.integers(0, 16))
    width = data.draw(st.integers(1, 5))
    cols, fields = [], []
    for j in range(width):
        column = data.draw(columns(size=n))
        if data.draw(st.booleans()):
            column = reference.dictionary_encode(column)
        cols.append(column)
        fields.append(Field(f"c{j}", column.dtype))
    batch = RecordBatch(Schema(tuple(fields)), cols)
    want = [batch.row(i) for i in range(n)]
    assert [typed(list(r)) for r in batch.iter_rows()] == [typed(list(r)) for r in want]
    assert [typed(list(r)) for r in reference.iter_rows(batch)] == [typed(list(r)) for r in want]
    pydict = batch.to_pydict()
    assert list(pydict) == [f.name for f in fields]
    for j, f in enumerate(fields):
        assert typed(pydict[f.name]) == typed([row[j] for row in want])


@given(columns())
@settings(max_examples=200, deadline=None)
def test_dictionary_encode_keeps_codes_and_first_occurrence_order(column):
    got, want = DictionaryColumn.encode(column), reference.dictionary_encode(column)
    assert got.codes.dtype == want.codes.dtype == np.int32
    assert got.codes.tolist() == want.codes.tolist()
    assert_same_column(got.dictionary, want.dictionary)


# --------------------------------------------------------------------------
# (B) the loops that walk its lists
# --------------------------------------------------------------------------


@given(st.data(), st.sampled_from(list(MaskingKind)))
@settings(max_examples=300, deadline=None)
def test_mask_column_is_the_scalar_oracle(data, kind):
    """Flat or dictionary-encoded, every kind × dtype masks to what
    ``apply_mask_value`` says value by value; where the parent looped, also
    to exactly the column the loop built."""
    column = data.draw(columns())
    want = [apply_mask_value(kind, v) for v in reference.to_pylist(column)]
    flat = mask_column(column, kind)
    assert typed(reference.to_pylist(flat)) == typed(want)
    if kind in (MaskingKind.HASH, MaskingKind.LAST_FOUR):
        assert_same_column(flat, reference.mask_column(column, kind))
    for encoded in encoded_variants(column, data.draw):
        decoded = encoded.decode()
        assert_same_column(mask_column(encoded, kind), mask_column(decoded, kind))
        assert typed(reference.to_pylist(mask_column(encoded, kind))) == typed(
            [apply_mask_value(kind, v) for v in reference.to_pylist(decoded)])


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_rows_crc_is_the_reference_digest_whatever_the_batching(data):
    n = data.draw(st.integers(0, 20))
    cols = [data.draw(columns(size=n)) for _ in range(data.draw(st.integers(1, 4)))]
    schema = Schema(tuple(Field(f"c{j}", c.dtype) for j, c in enumerate(cols)))
    whole = RecordBatch(schema, cols)
    want = reference.rows_crc([whole])
    assert streams.rows_crc([whole]) == want
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=3)))
    parts = [whole.slice(a, b) for a, b in zip([0] + cuts, cuts + [n])]
    encoded = [
        RecordBatch(schema, [reference.dictionary_encode(c) for c in part.columns])
        for part in parts
    ]
    # One dictionary per column shared by every part, whose entries may
    # outnumber a part's rows — beside parts with dictionaries of their own.
    whole_encoded = [reference.dictionary_encode(c) for c in cols]
    shared = [
        RecordBatch(schema, [
            DictionaryColumn(c.dtype, c.codes[a:b], c.dictionary) for c in whole_encoded])
        for a, b in zip([0] + cuts, cuts + [n])
    ]
    mixed = [data.draw(st.sampled_from(pair)) for pair in zip(shared, encoded)]
    for batches in (parts, parts[::-1], data.draw(st.permutations(parts))):
        assert streams.rows_crc(batches) == want
    # Encoding folds -0.0 into 0.0, so an encoded batch is its own input.
    for batches in (encoded, shared, mixed):
        assert streams.rows_crc(batches) == reference.rows_crc(batches)
    assert streams.rows_crc(shared) == reference.rows_crc([
        RecordBatch(schema, whole_encoded)])
    # Codes below -1 read as NULL; a dictionary may be empty.
    raw = data.draw(st.lists(st.integers(-3, 1), min_size=n, max_size=n))
    entries = Column.from_pylist(DataType.INT64, [7, 8][: data.draw(st.integers(0, 2))])
    codes = np.minimum(np.asarray(raw, dtype=np.int32), len(entries) - 1)
    odd = RecordBatch(Schema.of(("x", DataType.INT64)), [
        DictionaryColumn(DataType.INT64, codes, entries)])
    assert streams.rows_crc([odd]) == reference.rows_crc([odd])
    assert streams.rows_crc([]) == reference.rows_crc([]) == 0


# Values a mask or the digest must tell apart: signed zeros, NaNs with
# different payloads, infinities, ints that float64 cannot hold, and text.
_NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
_EDGES = {
    DataType.FLOAT64: [-0.0, 0.0, float("nan"), _NAN_PAYLOAD, float("inf"), float("-inf")],
    DataType.INT64: [2**53, 2**53 + 1, -(2**53) - 1, INT64_MAX, INT64_MIN],
    DataType.STRING: ["", "abcd", "abcde", "é"],
    DataType.BYTES: [b"", b"\x00", b"abcdef"],
}


def _with_edges(dtype: DataType):
    """Values of ``dtype``, with its edge values drawn often."""
    if dtype not in _EDGES:
        return VALUES[dtype]
    return st.one_of(VALUES[dtype], st.sampled_from(_EDGES[dtype]))


@st.composite
def mask_sources(draw):
    """A flat column, or a dictionary column whose dictionary may be empty
    and whose codes may be any negative number (a NULL) — with nulls, the
    edge values above and repeats."""
    dtype = draw(st.sampled_from([*_EDGES, DataType.DATE, DataType.BOOL]))
    value = _with_edges(dtype)
    if draw(st.booleans()):
        items = draw(st.lists(st.one_of(st.none(), value), max_size=16))
        return Column.from_pylist(dtype, items)
    dictionary = Column.from_pylist(dtype, draw(st.lists(value, max_size=6)))
    codes = draw(st.lists(st.integers(-3, len(dictionary) - 1), max_size=16))
    return DictionaryColumn(dtype, np.asarray(codes, dtype=np.int32), dictionary)


def _position_sets(n: int):
    """No rows, every row, or any positions in any order, repeats allowed."""
    some = st.lists(st.integers(0, n - 1), max_size=2 * n) if n else st.just([])
    return st.one_of(st.just([]), st.just(list(range(n))), some)


@given(st.data())
@settings(deadline=None)
def test_memoised_masks_are_the_loop_at_every_position_set(data):
    """One column object masked again and again, by both text masks, at
    drawn position sets: every call is the reference loop over the column
    gathered at those positions, whatever the memo already holds."""
    column = data.draw(mask_sources())
    steps = st.tuples(
        st.sampled_from([MaskingKind.HASH, MaskingKind.LAST_FOUR]), _position_sets(len(column)))
    for kind, positions in data.draw(st.lists(steps, min_size=1, max_size=6)):
        positions = np.asarray(positions, dtype=np.int64)
        gathered = column.take(positions)
        if isinstance(gathered, DictionaryColumn):
            gathered = gathered.decode()
        assert_same_column(
            mask_column(column, kind, positions), reference.mask_column(gathered, kind))


@given(st.data())
@settings(deadline=None)
def test_column_texts_run_once_per_position_asked(data):
    """``Column.texts`` calls its function once per non-null position some
    call asked for — never for one nobody asked for, never twice — and
    once for the null's text; position -1 reads as a null."""
    column = data.draw(columns())
    calls = []

    def text(value):
        calls.append(value)
        return repr(value)

    values = reference.to_pylist(column)
    asked: set[int] = set()
    position_sets = st.lists(st.one_of(_position_sets(len(column)), st.just([-1])), max_size=5)
    for positions in data.draw(position_sets):
        got = column.texts(text, np.asarray(positions, dtype=np.int64))
        assert got.tolist() == [repr(None if i < 0 else values[i]) for i in positions]
        asked.update(i for i in positions if i >= 0 and values[i] is not None)
        assert sorted(repr(v) for v in calls if v is not None) == sorted(
            repr(values[i]) for i in asked)
        assert calls.count(None) == 1


@given(st.data())
@settings(deadline=None)
def test_rows_crc_is_the_reference_with_each_position_plain_or_encoded(data):
    """A column position dictionary-encoded in some batches and plain in
    others — the drain's shape when files encode a column differently —
    with nulls, ±0.0, NaN payloads, ±inf and empty and one-column batches,
    and batches of two widths in one call."""
    batches = []
    for _ in range(data.draw(st.integers(0, 2))):
        dtypes = data.draw(st.lists(DTYPES, min_size=1, max_size=4))
        schema = Schema(tuple(Field(f"c{j}", t) for j, t in enumerate(dtypes)))
        for _ in range(data.draw(st.integers(1, 4))):
            n = data.draw(st.integers(0, 8))
            cols = []
            for dtype in dtypes:
                value = st.one_of(st.none(), _with_edges(dtype))
                items = data.draw(st.lists(value, min_size=n, max_size=n))
                column = Column.from_pylist(dtype, items)
                if data.draw(st.booleans()):
                    column = reference.dictionary_encode(column)
                cols.append(column)
            batches.append(RecordBatch(schema, cols))
    want = reference.rows_crc(batches)
    assert streams.rows_crc(batches) == want
    assert streams.rows_crc(batches[::-1]) == want
    # Warm memos: the same column objects digest the same again.
    assert streams.rows_crc(batches) == want


_MAPPED = [
    (DataType.STRING, str.upper, DataType.STRING),
    (DataType.STRING, len, DataType.INT64),
    (DataType.BYTES, len, DataType.INT64),
    (DataType.STRING, lambda s: s.startswith("a"), DataType.BOOL),
    (DataType.DATE, lambda days: days // 365, DataType.INT64),
    (DataType.INT64, float, DataType.FLOAT64),
]


@given(st.data(), st.sampled_from(_MAPPED))
@settings(max_examples=150, deadline=None)
def test_map_values_matches_the_loop(data, case):
    src, fn, out = case
    column = data.draw(columns(src))
    assert_same_column(
        expressions._map_values(column, fn, out), reference.map_values(column, fn, out))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_string_builders_match_the_loops(data):
    """CONCAT, ``||`` and CAST(… AS STRING) over every dtype: the text of a
    python value is the text of the numpy scalar the loops formatted."""
    n = data.draw(st.integers(0, 12))
    args = [data.draw(columns(size=n)) for _ in range(data.draw(st.integers(1, 3)))]
    schema = Schema(tuple(Field(f"c{j}", c.dtype) for j, c in enumerate(args)))
    batch = RecordBatch(schema, args)
    refs = [BoundColumn(j, f"c{j}", c.dtype) for j, c in enumerate(args)]

    assert_same_column(DEFAULT_FUNCTIONS.lookup("CONCAT").impl(args), reference.concat(args))
    piped = evaluate(BoundBinary("||", refs[0], refs[-1], DataType.STRING), batch)
    assert_same_column(piped, reference.pipe_concat(args[0], args[-1]))
    if args[0].dtype is not DataType.STRING:  # same-type casts return the operand
        cast = evaluate(BoundCast(refs[0], DataType.STRING), batch)
        assert_same_column(cast, reference.cast_to_string(args[0]))


@given(columns(DataType.STRING), st.sampled_from(["a%", "%b", "_", "%", "a_c%", ""]),
       st.booleans())
@settings(max_examples=150, deadline=None)
def test_like_matches_the_loop(column, pattern, negated):
    batch = RecordBatch(Schema((Field("s", DataType.STRING),)), [column])
    got = evaluate(BoundLike(BoundColumn(0, "s", DataType.STRING), pattern, negated), batch)
    want = reference.like(column, expressions._like_to_regex(pattern), negated)
    assert_same_column(got, want)
    assert np.array_equal(got.values, want.values)


def test_result_column_converts_that_column_only(monkeypatch):
    """``QueryResult.column`` over several batches, nulls and a dictionary
    column: the list ``to_pydict`` gives, without converting the others."""
    schema = Schema((Field("k", DataType.INT64), Field("s", DataType.STRING),
                     Field("x", DataType.FLOAT64)))
    parts = [
        ([1, None, 3], ["a", "b", None], [0.5, -0.0, None]),
        ([], [], []),
        ([4, 5], [None, "a"], [float("inf"), 2.0]),
    ]
    batches = [
        RecordBatch(schema, [
            Column.from_pylist(DataType.INT64, k),
            DictionaryColumn.encode(Column.from_pylist(DataType.STRING, s)),
            Column.from_pylist(DataType.FLOAT64, x),
        ])
        for k, s, x in parts
    ]
    result = QueryResult(schema, batches, QueryStats())
    whole = result.to_pydict()
    assert typed(whole["s"]) == typed(["a", "b", None, None, "a"])
    converted = []
    original = Column.to_pylist
    monkeypatch.setattr(
        Column, "to_pylist", lambda self: converted.append(self.dtype) or original(self))
    for name in ("k", "s", "x", "S"):
        converted.clear()
        assert typed(result.column(name)) == typed(whole[name.lower()])
        assert set(converted) == {schema.field(name).dtype}
    assert QueryResult(schema, [], QueryStats()).column("x") == []
    with pytest.raises(AnalysisError):
        result.column("missing")


# --------------------------------------------------------------------------
# (C) nulls that are not there: the fast path against the Kleene code
# --------------------------------------------------------------------------

_COMPARISONS = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
_LOGIC = {"AND": operator.and_, "OR": operator.or_}
_FAST_CASES = (
    [(op, DataType.BOOL) for op in _LOGIC]
    + [(op, dtype) for op in _COMPARISONS
       for dtype in (DataType.INT64, DataType.FLOAT64, DataType.BOOL, DataType.DATE)]
    + [("=", DataType.STRING), ("!=", DataType.STRING)]
)


def _explicitly_valid(column: Column) -> Column:
    """The same null-free column carrying an all-true validity array — set
    past the constructor, which would collapse it to ``None``."""
    twin = Column(column.dtype, column.values)
    twin.validity = np.ones(len(column), dtype=bool)
    return twin


@given(st.data(), st.sampled_from(_FAST_CASES))
@settings(max_examples=400, deadline=None)
def test_null_free_fast_path_is_the_general_path(data, case):
    op, dtype = case
    n = data.draw(st.integers(0, 16))
    values = st.lists(VALUES[dtype], min_size=n, max_size=n)
    left = Column.from_pylist(dtype, data.draw(values))
    right = Column.from_pylist(dtype, data.draw(values))
    assert left.validity is None and right.validity is None
    schema = Schema((Field("l", dtype), Field("r", dtype)))
    expr = BoundBinary(
        op, BoundColumn(0, "l", dtype), BoundColumn(1, "r", dtype), DataType.BOOL)

    fast = RecordBatch(schema, [left, right])
    general = RecordBatch(schema, [_explicitly_valid(left), _explicitly_valid(right)])
    got, want = evaluate(expr, fast), evaluate(expr, general)
    assert got.dtype is want.dtype is DataType.BOOL
    assert got.validity is None and want.validity is None
    assert got.values.dtype == want.values.dtype == np.bool_
    assert got.values.tolist() == want.values.tolist()
    mask = evaluate_predicate(expr, fast)
    assert mask.dtype == np.bool_
    assert mask.tolist() == evaluate_predicate(expr, general).tolist()
    # And both are what python says, row by row.
    apply = _LOGIC.get(op) or _COMPARISONS[op]
    assert mask.tolist() == [
        bool(apply(a, b)) for a, b in zip(left.to_pylist(), right.to_pylist())]


def test_predicate_mask_keeps_null_as_false():
    """The validity shortcut is taken only when there is no validity."""
    column = Column.from_pylist(DataType.BOOL, [True, None, False, True])
    batch = RecordBatch(Schema((Field("b", DataType.BOOL),)), [column])
    mask = evaluate_predicate(BoundColumn(0, "b", DataType.BOOL), batch)
    assert mask.tolist() == [True, False, False, True]
    null_free = RecordBatch(batch.schema, [Column.from_pylist(DataType.BOOL, [True, False])])
    assert evaluate_predicate(BoundColumn(0, "b", DataType.BOOL), null_free).tolist() == [True, False]


# --------------------------------------------------------------------------
# The boundary is gone, not moved: counted
# --------------------------------------------------------------------------

SCALE = 0.2  # the ledger's --smoke scale
RESTRICTION = (
    "l_shipdate >= DATE '1995-03-01' AND l_shipdate < DATE '1995-09-01' "
    "AND l_discount BETWEEN 0.02 AND 0.06"
)


@pytest.fixture
def getitem_calls(monkeypatch):
    """Every ``Column.__getitem__`` — the one per-element door out of numpy."""
    seen = {"calls": 0}
    original = Column.__getitem__

    def getitem(self, i):
        seen["calls"] += 1
        return original(self, i)

    monkeypatch.setattr(Column, "__getitem__", getitem)
    return seen


@pytest.fixture(scope="module")
def governed_drain():
    """The ledger's ``readsession_drain`` shape: an analyst under a row
    policy and a HASH mask, eight streams over 32 files, drained through
    the serialized handle with rebalancing."""
    platform, _, _, _ = build_tpch_platform(scale=SCALE, lineitem_files=32)
    analyst = platform.create_user("analyst", [Role.DATA_VIEWER, Role.JOB_USER])
    platform.iam.grant("connections/tpch.lake", Role.CONNECTION_USER, analyst)
    table = platform.catalog.get_table("tpch", "lineitem")
    grantees = frozenset([analyst])
    table.policies.add_row_policy(RowAccessPolicy("analyst", "l_quantity < 25", grantees))
    table.policies.add_masking_rule(
        DataMaskingRule("l_extendedprice", MaskingKind.HASH, grantees))

    def drain():
        session = platform.read_api.create_read_session(
            analyst, table, max_streams=8, row_restriction=RESTRICTION)
        return streams.drain_session(platform.read_api, session.serialize(), rebalance=True)

    return drain


def test_warm_governed_drain_never_indexes_a_column(governed_drain, getitem_calls):
    cold = governed_drain()
    cold_calls, getitem_calls["calls"] = getitem_calls["calls"], 0
    warm = governed_drain()
    assert warm.rows > 0 and (warm.rows, warm.crc) == (cold.rows, cold.crc)
    assert getitem_calls["calls"] == 0
    assert cold_calls == 0


def test_drain_restriction_asks_null_free_columns_for_no_mask(governed_drain, monkeypatch):
    callers = []
    original = Column.is_valid

    def is_valid(self):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(self)

    monkeypatch.setattr(Column, "is_valid", is_valid)
    report = governed_drain()
    assert report.rows > 0
    assert "_eval_binary" not in callers and "evaluate_predicate" not in callers


def test_suite_statements_never_index_a_column(getitem_calls):
    """``engine.execute(sql).rows()`` for the seventeen TPC-H-lite and
    TPC-DS-lite statements: scans, joins, GROUP BY, ORDER BY and the row
    view all go through the list kernel."""
    statements = 0
    for build in (build_tpch_platform, build_tpcds_platform):
        _, admin, engine, queries = build(scale=SCALE)
        for _, sql in sorted(queries.items()):
            assert engine.execute(sql, admin).rows()
            statements += 1
    assert statements == 17
    assert getitem_calls["calls"] == 0
