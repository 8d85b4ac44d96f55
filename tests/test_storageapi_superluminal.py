"""Tests for Superluminal: the Read API's enforcement pipeline."""

import pytest

from repro import Role
from repro.bench import build_tpch_platform
from repro.cache import CacheConfig
from repro.data import DataType, Schema, batch_from_pydict
from repro.errors import AccessDeniedError
from repro.security import (
    ColumnAcl,
    DataMaskingRule,
    MaskingKind,
    Principal,
    RowAccessPolicy,
    TablePolicySet,
    apply_mask_value,
)
from repro.sql.dates import parse_date_to_days
from repro.sql.parser import parse_expression
from repro.storageapi.superluminal import Superluminal, mask_column
from repro.data.column import Column
from repro.workloads import tpch_lite

ALICE = Principal.user("alice")
BOB = Principal.user("bob")
EVE = Principal.user("eve")

SCHEMA = Schema.of(
    ("id", DataType.INT64),
    ("region", DataType.STRING),
    ("ssn", DataType.STRING),
    ("amount", DataType.FLOAT64),
)


@pytest.fixture
def batch():
    return batch_from_pydict(
        SCHEMA,
        {
            "id": [1, 2, 3, 4],
            "region": ["us", "eu", "us", "apac"],
            "ssn": ["111223333", "444556666", "777889999", None],
            "amount": [10.0, 20.0, 30.0, 40.0],
        },
    )


@pytest.fixture
def policies():
    ps = TablePolicySet()
    ps.add_row_policy(RowAccessPolicy("us_only", "region = 'us'", frozenset({BOB})))
    ps.add_row_policy(RowAccessPolicy("all_rows", "1 = 1", frozenset({ALICE})))
    ps.add_column_acl(ColumnAcl("ssn", frozenset({ALICE})))
    ps.add_masking_rule(DataMaskingRule("ssn", MaskingKind.LAST_FOUR, frozenset({BOB})))
    return ps


class TestRowFiltering:
    def test_no_policies_passes_everything(self, batch):
        sl = Superluminal(SCHEMA, TablePolicySet().resolve(ALICE))
        assert sl.process(batch).num_rows == 4

    def test_row_policy_filters(self, batch, policies):
        sl = Superluminal(SCHEMA, policies.resolve(BOB), columns=["id", "region"])
        out = sl.process(batch)
        assert out.column("region").to_pylist() == ["us", "us"]

    def test_unlisted_principal_sees_nothing(self, batch, policies):
        sl = Superluminal(SCHEMA, policies.resolve(EVE), columns=["id"])
        out = sl.process(batch)
        assert out.num_rows == 0

    def test_user_restriction_composes_with_policy(self, batch, policies):
        sl = Superluminal(
            SCHEMA, policies.resolve(BOB), columns=["id"],
            row_restriction=parse_expression("amount > 15"),
        )
        out = sl.process(batch)
        assert out.column("id").to_pylist() == [3]

    def test_multiple_policies_union(self, batch):
        ps = TablePolicySet()
        ps.add_row_policy(RowAccessPolicy("us", "region = 'us'", frozenset({ALICE})))
        ps.add_row_policy(RowAccessPolicy("eu", "region = 'eu'", frozenset({ALICE})))
        sl = Superluminal(SCHEMA, ps.resolve(ALICE), columns=["region"])
        out = sl.process(batch)
        assert sorted(out.column("region").to_pylist()) == ["eu", "us", "us"]

    def test_stats_track_rows(self, batch, policies):
        sl = Superluminal(SCHEMA, policies.resolve(BOB), columns=["id"])
        sl.process(batch)
        assert sl.stats.rows_in == 4
        assert sl.stats.rows_out == 2


class TestColumnControls:
    def test_denied_column_fails_at_compile_time(self, policies):
        with pytest.raises(AccessDeniedError):
            Superluminal(SCHEMA, policies.resolve(EVE), columns=["ssn"])

    def test_default_projection_excludes_denied(self, batch, policies):
        sl = Superluminal(SCHEMA, policies.resolve(EVE))
        out = sl.process(batch)
        assert "ssn" not in out.schema.names()

    def test_masked_reader_sees_masked_values(self, batch, policies):
        sl = Superluminal(SCHEMA, policies.resolve(BOB), columns=["ssn", "region"])
        out = sl.process(batch)
        assert out.column("ssn").to_pylist() == ["XXXXX3333", "XXXXX9999"]

    def test_acl_holder_sees_raw(self, batch, policies):
        sl = Superluminal(SCHEMA, policies.resolve(ALICE), columns=["ssn"])
        out = sl.process(batch)
        assert out.column("ssn").to_pylist()[0] == "111223333"


class TestVectorizedMasking:
    @pytest.mark.parametrize("kind", list(MaskingKind))
    def test_matches_scalar_semantics(self, kind):
        col = Column.from_pylist(DataType.STRING, ["hello", None, "ab", "12345"])
        out = mask_column(col, kind)
        expected = [apply_mask_value(kind, v) for v in col.to_pylist()]
        assert out.to_pylist() == expected

    def test_hash_mask_int_column(self):
        col = Column.from_pylist(DataType.INT64, [42, None])
        out = mask_column(col, MaskingKind.HASH)
        assert out.to_pylist()[0] == apply_mask_value(MaskingKind.HASH, 42)
        assert out.to_pylist()[1] is None

    def test_default_mask_float(self):
        col = Column.from_pylist(DataType.FLOAT64, [1.5, 2.5])
        out = mask_column(col, MaskingKind.DEFAULT_VALUE)
        assert out.to_pylist() == [0.0, 0.0]


class TestMasksOverWarmChunks:
    """Mask texts are memoised on the cached chunk they are read from, and
    the memo holds no principal: an admin, a HASH analyst and a LAST_FOUR
    analyst alternate drains over the same warm ``lineitem`` chunks, and
    each row each one gets is the generated row with that principal's own
    mask applied by ``apply_mask_value``. A rule added between sessions
    applies from the next session on, and a platform with the data cache
    disabled returns the same rows."""

    SCALE = 0.2
    # (first ship day, last ship day, lowest discount, highest discount)
    WINDOWS = [
        ("1995-03-01", "1995-09-01", 0.02, 0.06),
        ("1995-06-01", "1996-06-01", 0.00, 0.04),
    ]

    @pytest.fixture(scope="class")
    def lineitem(self):
        data = tpch_lite.generate(scale=self.SCALE)["lineitem"]
        return data.schema.names(), list(data.iter_rows())

    def _platform(self, cache_enabled):
        platform, admin, _, _ = build_tpch_platform(
            scale=self.SCALE, lineitem_files=8,
            data_cache=None if cache_enabled else CacheConfig(enabled=False))
        users = {"admin": admin}
        for name in ("hash", "last_four", "late"):
            users[name] = platform.create_user(name, [Role.DATA_VIEWER, Role.JOB_USER])
            platform.iam.grant("connections/tpch.lake", Role.CONNECTION_USER, users[name])
        table = platform.catalog.get_table("tpch", "lineitem")
        for name, kind in (("hash", MaskingKind.HASH), ("last_four", MaskingKind.LAST_FOUR)):
            table.policies.add_masking_rule(
                DataMaskingRule("l_extendedprice", kind, frozenset([users[name]])))
        return platform, table, users

    @staticmethod
    def _drain(platform, principal, table, window):
        first, last, low, high = window
        restriction = (
            f"l_shipdate >= DATE '{first}' AND l_shipdate < DATE '{last}' "
            f"AND l_discount BETWEEN {low:.2f} AND {high:.2f}")
        read_api = platform.read_api
        session = read_api.create_read_session(
            principal, table, max_streams=4, row_restriction=restriction)
        attached = read_api.attach(session.serialize())
        return sorted(
            repr(row)
            for stream in range(len(attached.streams))
            for batch in read_api.read_rows(attached, stream)
            for row in batch.iter_rows()
        )

    @staticmethod
    def _expected(lineitem, window, kind):
        names, rows = lineitem
        first, last, low, high = window
        ship, discount, price = (names.index(c) for c in (
            "l_shipdate", "l_discount", "l_extendedprice"))
        out = []
        for row in rows:
            if not (parse_date_to_days(first) <= row[ship] < parse_date_to_days(last)
                    and low <= row[discount] <= high):
                continue
            row = list(row)
            if kind is not None:
                row[price] = apply_mask_value(kind, row[price])
            out.append(repr(tuple(row)))
        return sorted(out)

    def test_each_principal_sees_its_own_mask(self, lineitem):
        masks = {"admin": None, "hash": MaskingKind.HASH,
                 "last_four": MaskingKind.LAST_FOUR, "late": None}
        seen = {}
        for cache_enabled in (True, False):
            platform, table, users = self._platform(cache_enabled)
            drains = seen[cache_enabled] = []
            for session_round in range(2):
                for name, principal in users.items():
                    kind = masks[name]
                    if name == "late" and session_round:
                        kind = MaskingKind.HASH
                    for window in self.WINDOWS:
                        rows = self._drain(platform, principal, table, window)
                        assert rows and rows == self._expected(lineitem, window, kind)
                        drains.append(rows)
                if not session_round:
                    table.policies.add_masking_rule(DataMaskingRule(
                        "l_extendedprice", MaskingKind.HASH, frozenset([users["late"]])))
            hits = platform.data_cache.chunks.stats.hits
            assert hits > 0 if cache_enabled else hits == 0
        assert seen[True] == seen[False]
