"""Tests for Superluminal: the Read API's enforcement pipeline."""

import pytest

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
from repro.sql.parser import parse_expression
from repro.storageapi.superluminal import Superluminal, mask_column
from repro.data.column import Column

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
