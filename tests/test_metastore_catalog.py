"""Tests for the catalog and constraint primitives."""

import pytest

from repro.data import DataType, Schema
from repro.errors import AlreadyExistsError, CatalogError, NotFoundError
from repro.metastore import (
    Catalog,
    ColumnConstraint,
    ColumnStats,
    ConstraintSet,
    StorageDescriptor,
    TableInfo,
    TableKind,
)
from repro.metastore.constraints import StatsTable, can_match

SCHEMA = Schema.of(("id", DataType.INT64))


def biglake_table(name="t", connection="us.lake"):
    return TableInfo(
        project="repro-project",
        dataset="ds",
        name=name,
        kind=TableKind.BIGLAKE,
        schema=SCHEMA,
        storage=StorageDescriptor(bucket="lake", prefix=f"tables/{name}"),
        connection_name=connection,
    )


class TestCatalog:
    def test_create_and_resolve(self):
        catalog = Catalog()
        catalog.create_dataset("ds")
        catalog.create_table(biglake_table())
        table = catalog.resolve(("ds", "t"))
        assert table.table_id == "repro-project.ds.t"
        assert table.resource_name == "projects/repro-project/datasets/ds/tables/t"

    def test_resolve_with_project(self):
        catalog = Catalog()
        catalog.create_dataset("ds")
        catalog.create_table(biglake_table())
        assert catalog.resolve(("repro-project", "ds", "t")).name == "t"

    def test_resolve_wrong_project(self):
        catalog = Catalog()
        catalog.create_dataset("ds")
        catalog.create_table(biglake_table())
        with pytest.raises(NotFoundError):
            catalog.resolve(("other", "ds", "t"))

    def test_resolve_bad_arity(self):
        with pytest.raises(CatalogError):
            Catalog().resolve(("only-one",))

    def test_duplicate_table_rejected(self):
        catalog = Catalog()
        catalog.create_dataset("ds")
        catalog.create_table(biglake_table())
        with pytest.raises(AlreadyExistsError):
            catalog.create_table(biglake_table())

    def test_replace_allowed(self):
        catalog = Catalog()
        catalog.create_dataset("ds")
        catalog.create_table(biglake_table())
        catalog.create_table(biglake_table(), replace=True)

    def test_biglake_requires_connection(self):
        catalog = Catalog()
        catalog.create_dataset("ds")
        table = biglake_table(connection=None)
        with pytest.raises(CatalogError):
            catalog.create_table(table)

    def test_managed_table_needs_no_connection(self):
        catalog = Catalog()
        catalog.create_dataset("ds")
        catalog.create_table(
            TableInfo(
                project="repro-project", dataset="ds", name="m",
                kind=TableKind.MANAGED, schema=SCHEMA,
            )
        )

    def test_drop(self):
        catalog = Catalog()
        catalog.create_dataset("ds")
        catalog.create_table(biglake_table())
        catalog.drop_table("ds", "t")
        with pytest.raises(NotFoundError):
            catalog.get_table("ds", "t")


def _file(lo, hi):
    """A ten-row unit whose column ``x`` spans ``[lo, hi]`` without nulls."""
    return (10, (), (("x", ColumnStats(lo, hi, 0)),))


def _partition(value):
    """A ten-row unit whose partition column ``x`` holds ``value``."""
    return (10, (("x", value),), ())


#: case -> (constraint on ``x``, units, keep-mask :func:`can_match` returns).
EVALUATOR_CASES = {
    "admits_range_overlap": (
        ColumnConstraint(lo=10, hi=20),
        [_file(15, 30), _file(21, 30), _file(0, 9)],
        [True, False, False],
    ),
    "unknown_bounds_admitted": (ColumnConstraint(lo=10), [_file(None, None)], [True]),
    "in_set_range_check": (
        ColumnConstraint(in_set=frozenset({5})),
        [_file(0, 10), _file(6, 10)],
        [True, False],
    ),
    "admits_value": (
        ColumnConstraint(lo=1, hi=3, in_set=frozenset({2, 9})),
        [_partition(2), _partition(9), _partition(None)],  # 9 is outside the range
        [True, False, False],
    ),
}


class TestConstraints:
    def test_merge_and_tightens_range(self):
        a = ColumnConstraint(lo=0, hi=100)
        b = ColumnConstraint(lo=10, hi=50)
        merged = a.merge_and(b)
        assert (merged.lo, merged.hi) == (10, 50)

    def test_merge_and_intersects_sets(self):
        a = ColumnConstraint(in_set=frozenset({1, 2, 3}))
        b = ColumnConstraint(in_set=frozenset({2, 3, 4}))
        assert a.merge_and(b).in_set == frozenset({2, 3})

    @pytest.mark.parametrize("case", sorted(EVALUATOR_CASES))
    def test_can_match(self, case):
        constraint, units, expected = EVALUATOR_CASES[case]
        cs = ConstraintSet()
        cs.add("x", constraint)
        assert can_match(cs, StatsTable.build(units)) == expected

    def test_constraint_set_merges_same_column(self):
        cs = ConstraintSet()
        cs.add("X", ColumnConstraint(lo=0))
        cs.add("x", ColumnConstraint(hi=10))
        constraint = cs.get("x")
        assert (constraint.lo, constraint.hi) == (0, 10)
