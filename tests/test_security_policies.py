"""Tests for fine-grained policies: row access, column ACLs, masking."""

import pytest

from repro.security import (
    ColumnAcl,
    DataMaskingRule,
    MaskingKind,
    Principal,
    RowAccessPolicy,
    TablePolicySet,
    apply_mask_value,
)

ALICE = Principal.user("alice")
BOB = Principal.user("bob")
EVE = Principal.user("eve")


@pytest.fixture
def policies():
    ps = TablePolicySet()
    ps.add_row_policy(
        RowAccessPolicy("us_only", "region = 'us'", frozenset({ALICE}))
    )
    ps.add_row_policy(
        RowAccessPolicy("eu_only", "region = 'eu'", frozenset({ALICE, BOB}))
    )
    ps.add_column_acl(ColumnAcl("ssn", frozenset({ALICE})))
    ps.add_masking_rule(DataMaskingRule("ssn", MaskingKind.LAST_FOUR, frozenset({BOB})))
    return ps


class TestRowPolicies:
    def test_union_of_applicable_policies(self, policies):
        access = policies.resolve(ALICE)
        assert set(access.row_filters) == {"region = 'us'", "region = 'eu'"}

    def test_single_policy(self, policies):
        access = policies.resolve(BOB)
        assert access.row_filters == ("region = 'eu'",)

    def test_unlisted_principal_sees_no_rows(self, policies):
        access = policies.resolve(EVE)
        assert access.sees_no_rows

    def test_no_policies_means_all_rows(self):
        access = TablePolicySet().resolve(EVE)
        assert not access.row_policies_exist
        assert not access.sees_no_rows

    def test_duplicate_policy_name_rejected(self, policies):
        with pytest.raises(ValueError):
            policies.add_row_policy(
                RowAccessPolicy("us_only", "1 = 1", frozenset({EVE}))
            )


class TestColumnControls:
    def test_acl_holder_sees_column(self, policies):
        access = policies.resolve(ALICE)
        assert "ssn" not in access.denied_columns
        assert "ssn" not in access.masked_columns

    def test_masked_reader_gets_mask_not_denial(self, policies):
        access = policies.resolve(BOB)
        assert access.masked_columns == {"ssn": MaskingKind.LAST_FOUR}
        assert "ssn" not in access.denied_columns

    def test_outsider_denied(self, policies):
        access = policies.resolve(EVE)
        assert "ssn" in access.denied_columns


class TestMaskFunctions:
    def test_hash_is_deterministic(self):
        a = apply_mask_value(MaskingKind.HASH, "secret")
        b = apply_mask_value(MaskingKind.HASH, "secret")
        assert a == b and a != "secret" and len(a) == 64

    def test_nullify(self):
        assert apply_mask_value(MaskingKind.NULLIFY, "x") is None

    def test_default_values_by_type(self):
        assert apply_mask_value(MaskingKind.DEFAULT_VALUE, "x") == ""
        assert apply_mask_value(MaskingKind.DEFAULT_VALUE, 42) == 0
        assert apply_mask_value(MaskingKind.DEFAULT_VALUE, 1.5) == 0.0
        assert apply_mask_value(MaskingKind.DEFAULT_VALUE, True) is False

    def test_last_four(self):
        assert apply_mask_value(MaskingKind.LAST_FOUR, "123456789") == "XXXXX6789"
        assert apply_mask_value(MaskingKind.LAST_FOUR, "abc") == "XXX"

    def test_null_passes_through(self):
        assert apply_mask_value(MaskingKind.HASH, None) is None
