"""A read session compiles its scan once, and still fails closed.

Two things pinned, as tests rather than prose (DESIGN.md §13):

* **Compile once** — counting wrappers around ``parse_expression`` and
  ``Superluminal.__init__`` (the ``test_query_fast_path`` idiom): an
  8-stream session over 32 files under a row policy parses its restriction
  once and each row filter once, compiles one pipeline per (session,
  access), parses nothing while reading or attaching — and returns the rows
  and ``SessionStats`` of a session forced to recompile for every stream.
* **Fail closed** — what is reused is the compile, never the authorization.
  A row policy, a mask, a column ACL on a projected column or a revoked
  ``TABLES_GET_DATA`` landing after ``create_read_session`` — before the
  first ``read_rows``, between two of them, or behind a serialized handle —
  binds the very next read exactly as it binds a freshly created session.
"""

from __future__ import annotations

import json

import pytest

from repro import Role
from repro.errors import AccessDeniedError
from repro.security.policies import (
    ColumnAcl,
    DataMaskingRule,
    MaskingKind,
    RowAccessPolicy,
)
from repro.storageapi import read_api as read_api_module
from repro.storageapi import streams
from repro.storageapi import superluminal as superluminal_module
from repro.storageapi.superluminal import Superluminal

from tests.helpers import make_platform, setup_sales_lake

RESTRICTION = "order_id >= 40 AND region IN ('us', 'eu')"
POLICY = "amount > 3"
COLUMNS = ["order_id", "region", "amount"]


def build(files: int):
    platform, admin = make_platform()
    table, _ = setup_sales_lake(platform, admin, files=files, rows_per_file=20)
    reader = platform.create_user("reader", [Role.DATA_VIEWER])
    return platform, table, reader


def open_session(platform, table, reader, **kwargs):
    kwargs.setdefault("max_streams", 8)
    return platform.read_api.create_read_session(
        reader, table, columns=COLUMNS, row_restriction=RESTRICTION, **kwargs
    )


def rows_of(batches) -> list[tuple]:
    return [row for batch in batches for row in batch.iter_rows()]


# --------------------------------------------------------------------------
# Compile once
# --------------------------------------------------------------------------


@pytest.fixture
def calls(monkeypatch):
    """Every text handed to ``parse_expression`` from the Read API or
    Superluminal, and every ``Superluminal.__init__``."""
    seen = {"parsed": [], "compiles": 0}
    original_parse = read_api_module.parse_expression
    original_init = Superluminal.__init__

    def parse(sql):
        seen["parsed"].append(sql)
        return original_parse(sql)

    def init(self, *args, **kwargs):
        seen["compiles"] += 1
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(read_api_module, "parse_expression", parse)
    monkeypatch.setattr(superluminal_module, "parse_expression", parse)
    monkeypatch.setattr(Superluminal, "__init__", init)
    return seen


def build_governed():
    """32 files, and the reader under a row policy — the same every call."""
    platform, table, reader = build(files=32)
    table.policies.add_row_policy(RowAccessPolicy("p", POLICY, frozenset({reader})))
    return platform, table, reader


class TestCompileOnce:
    @pytest.fixture
    def governed(self):
        return build_governed()

    def test_one_parse_and_one_compile_serve_eight_streams(self, governed, calls):
        platform, table, reader = governed
        session = open_session(platform, table, reader)
        assert len(session.streams) == 8 and session.stats.files_after_pruning > 8
        assert calls == {"parsed": [RESTRICTION, POLICY], "compiles": 1}

        per_stream = [
            rows_of(platform.read_api.read_rows(session, i)) for i in range(8)
        ]
        assert sum(map(len, per_stream)) > 0
        assert calls == {"parsed": [RESTRICTION, POLICY], "compiles": 1}

        # The reference: the same session on a twin platform (so its data
        # cache is as cold), made to recompile for every stream.
        calls["parsed"].clear()
        calls["compiles"] = 0
        twin, twin_table, twin_reader = build_governed()
        reference = open_session(twin, twin_table, twin_reader)
        expected = []
        for i in range(8):
            reference.access = None  # != any resolved access: recompile
            expected.append(rows_of(twin.read_api.read_rows(reference, i)))
        assert calls == {"parsed": [RESTRICTION] + [POLICY] * 9, "compiles": 9}
        assert per_stream == expected
        assert session.stats == reference.stats

    def test_attach_and_drain_parse_and_compile_nothing(self, governed, calls):
        platform, table, reader = governed
        blob = open_session(platform, table, reader).serialize()
        before = {"parsed": list(calls["parsed"]), "compiles": calls["compiles"]}
        attached = platform.read_api.attach(blob)
        report = streams.drain_session(platform.read_api, blob, rebalance=True)
        assert report.rows > 0 and attached.stats.rows_returned == report.rows
        assert calls == before

    def test_streams_share_the_compile_but_not_the_counters(self, governed):
        platform, table, reader = governed
        session = open_session(platform, table, reader)
        first = platform.read_api._enforcement(session)
        second = platform.read_api._enforcement(session)
        assert first is not second and first.stats is not second.stats
        assert first._user_filter is second._user_filter is session.pipeline._user_filter
        assert session.pipeline.stats.rows_in == 0
        rows_of(platform.read_api.read_rows(session, 0))
        assert session.pipeline.stats.rows_in == 0  # streams count on their own view

    def test_changed_access_recompiles_once_without_reparsing_the_text(self, governed, calls):
        platform, table, reader = governed
        session = open_session(platform, table, reader)
        rows_of(platform.read_api.read_rows(session, 0))
        table.policies.add_masking_rule(
            DataMaskingRule("region", MaskingKind.HASH, frozenset({reader})))
        for i in range(1, 8):
            rows_of(platform.read_api.read_rows(session, i))
        assert calls == {"parsed": [RESTRICTION, POLICY, POLICY], "compiles": 2}

    def test_the_handle_carries_text_not_a_tree(self, governed):
        platform, table, reader = governed
        session = open_session(platform, table, reader)
        wire = json.loads(session.serialize())
        assert wire["row_restriction"] == RESTRICTION
        assert set(wire) == {
            "v", "session_id", "table", "principal", "columns", "row_restriction",
            "created_ms", "expires_ms", "streams",
        }


def test_denied_column_fails_at_create_before_any_io():
    platform, table, reader = build(files=4)
    table.policies.add_column_acl(ColumnAcl("amount", frozenset()))
    gets = platform.ctx.metering.op_counts.copy()
    with pytest.raises(AccessDeniedError, match="column-level access denied"):
        open_session(platform, table, reader)
    assert platform.ctx.metering.op_counts == gets


# --------------------------------------------------------------------------
# Fail closed
# --------------------------------------------------------------------------


def _row_policy(platform, table, reader):
    table.policies.add_row_policy(RowAccessPolicy("late", "amount > 10", frozenset({reader})))


def _row_policy_for_someone_else(platform, table, reader):
    other = platform.create_user("other", [Role.DATA_VIEWER])
    table.policies.add_row_policy(RowAccessPolicy("late", "amount > 10", frozenset({other})))


def _mask(platform, table, reader):
    table.policies.add_masking_rule(
        DataMaskingRule("region", MaskingKind.HASH, frozenset({reader})))


def _column_acl(platform, table, reader):
    table.policies.add_column_acl(ColumnAcl("amount", frozenset()))


def _revoke(platform, table, reader):
    platform.iam.revoke(f"projects/{platform.config.project}", Role.DATA_VIEWER, reader)


MUTATIONS = [_row_policy, _row_policy_for_someone_else, _mask, _column_acl, _revoke]
DENIED = (_column_acl, _revoke)


def outcome(read):
    """("rows", sorted rows) or ("denied",) — what a consumer observes."""
    try:
        return ("rows", sorted(read()))
    except AccessDeniedError:
        return ("denied",)


@pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda f: f.__name__.strip("_"))
class TestFailClosed:
    def fresh_outcome(self, platform, table, reader, skip_units: int = 0):
        """What a session created *after* the change returns (its first
        ``skip_units`` files read and dropped, to line up with a resumed
        stream)."""
        def read():
            session = open_session(platform, table, reader, max_streams=1)
            if skip_units:
                list(platform.read_api.read_rows(session, 0, max_units=skip_units))
            return rows_of(platform.read_api.read_rows(session, 0))
        return outcome(read)

    def test_between_create_and_the_first_read(self, mutate):
        platform, table, reader = build(files=4)
        session = open_session(platform, table, reader, max_streams=1)
        before = outcome(lambda: rows_of(
            platform.read_api.read_rows(open_session(platform, table, reader, max_streams=1), 0)))
        mutate(platform, table, reader)
        got = outcome(lambda: rows_of(platform.read_api.read_rows(session, 0)))
        assert got == self.fresh_outcome(platform, table, reader)
        assert got != before
        assert (got == ("denied",)) == (mutate in DENIED)

    def test_between_two_reads_of_one_stream(self, mutate):
        platform, table, reader = build(files=4)
        session = open_session(platform, table, reader, max_streams=1)
        first = rows_of(platform.read_api.read_rows(session, 0, max_units=1))
        assert first and session.streams[0].offset == 1
        mutate(platform, table, reader)
        got = outcome(lambda: rows_of(platform.read_api.read_rows(session, 0)))
        assert got == self.fresh_outcome(platform, table, reader, skip_units=1)
        assert (got == ("denied",)) == (mutate in DENIED)

    def test_through_a_serialized_handle(self, mutate):
        platform, table, reader = build(files=4)
        blob = open_session(platform, table, reader, max_streams=1).serialize()
        mutate(platform, table, reader)
        attached = platform.read_api.attach(blob)
        got = outcome(lambda: rows_of(platform.read_api.read_rows(attached, 0)))
        assert got == self.fresh_outcome(platform, table, reader)

    def test_through_a_multi_consumer_drain(self, mutate):
        platform, table, reader = build(files=4)
        blob = open_session(platform, table, reader, max_streams=2).serialize()
        mutate(platform, table, reader)

        def drained(handle):
            report = streams.drain_session(platform.read_api, handle, rebalance=True)
            return [(report.rows, report.crc)]

        got = outcome(lambda: drained(blob))
        fresh = outcome(
            lambda: drained(open_session(platform, table, reader, max_streams=2).serialize()))
        assert got == fresh


# --------------------------------------------------------------------------
# Needed columns come from the compiled pipeline
# --------------------------------------------------------------------------


def test_needed_columns_are_the_projection_plus_both_filters():
    platform, table, reader = build(files=4)
    table.policies.add_row_policy(RowAccessPolicy("p", "year = 2023", frozenset({reader})))
    session = platform.read_api.create_read_session(
        reader, table, columns=["order_id"], row_restriction="ds.sales.amount > 3")
    assert session.pipeline.needed_columns == {"order_id", "amount", "year"}


def test_a_file_table_column_named_data_is_read_warm_as_cold():
    """The needed-column set once dropped any column called ``data`` (an
    object-table special case applied to every table), so a warm chunk-tier
    read of such a column returned NULLs."""
    from repro.data import DataType, Schema, batch_from_pydict
    from repro.storageapi.fileutil import write_data_file

    platform, admin = make_platform()
    _, store = setup_sales_lake(platform, admin)
    schema = Schema.of(("id", DataType.INT64), ("data", DataType.STRING))
    write_data_file(
        store, "lake", "blobs/part-0.pqs", schema,
        [batch_from_pydict(schema, {"id": [1, 2], "data": ["x", "y"]})],
    )
    platform.tables.create_biglake_table(
        admin, "ds", "blobs", schema, "lake", "blobs", "ds.lakeconn")
    sql = "SELECT id, data FROM ds.blobs ORDER BY id"
    cold = platform.home_engine.execute(sql, admin).rows()
    warm = platform.home_engine.execute(sql, admin).rows()
    assert cold == warm == [(1, "x"), (2, "y")]
