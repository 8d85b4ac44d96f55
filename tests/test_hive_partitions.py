"""Hive-partitioned BigLake tables (``prefix/year=…/region=…/file``): the
partition values come from the object key, coerced by the schema dtype, and
prune files before any footer is read. One lake, three engines, both
metadata-cache modes, one answer."""

import pytest

from repro import Role
from repro.external import SparkSim
from repro.metastore.catalog import MetadataCacheMode
from repro.storageapi.fileutil import partition_values
from repro.tableformats.hive_layout import partition_prefix

from tests.helpers import SALES_SCHEMA, make_platform, setup_lake_table

PARTITIONS = [
    {"year": year, "region": region}
    for year in (2022, 2023)
    for region in ("eu", "us")
]
ROWS_PER_FILE = 5

YEAR_SQL = "SELECT order_id, region, amount, year FROM ds.sales WHERE year = 2023"
REGION_SQL = "SELECT order_id FROM ds.sales WHERE region = 'us' AND year >= 2023"


def partitioned_lake(cache_mode):
    """``sales/year=Y/region=R/part-0.pqs`` for 2 years x 2 regions: an
    INT64 and a STRING partition column."""
    platform, admin = make_platform()
    files = [
        {
            "order_id": list(range(i * ROWS_PER_FILE, (i + 1) * ROWS_PER_FILE)),
            "region": [partition["region"]] * ROWS_PER_FILE,
            "amount": [float(j) for j in range(ROWS_PER_FILE)],
            "year": [partition["year"]] * ROWS_PER_FILE,
        }
        for i, partition in enumerate(PARTITIONS)
    ]
    table, store = setup_lake_table(
        platform, admin, SALES_SCHEMA, files, cache_mode=cache_mode,
        keys=[partition_prefix("", p) + "part-0.pqs" for p in PARTITIONS],
        partition_columns=["year", "region"],
    )
    # The direct reader forwards the user's own credentials to the bucket.
    platform.iam.grant("buckets/lake", Role.STORAGE_OBJECT_VIEWER, admin)
    return platform, admin, table, store


def engines(platform):
    return {
        "home": platform.home_engine,
        "connector": SparkSim(platform, mode="connector"),
        "direct": SparkSim(platform, mode="direct"),
    }


@pytest.mark.parametrize(
    "cache_mode", [MetadataCacheMode.AUTOMATIC, MetadataCacheMode.DISABLED]
)
class TestPartitionedLake:
    @pytest.mark.parametrize("engine", ["home", "connector", "direct"])
    def test_int_partition_predicate(self, cache_mode, engine):
        """The reproducer: ``WHERE year = 2023`` through the direct reader
        compared the key's raw ``'2023'`` with the int and raised TypeError."""
        platform, admin, _, _ = partitioned_lake(cache_mode)
        result = engines(platform)[engine].execute(YEAR_SQL, admin)
        assert sorted(result.rows()) == [
            (order_id, region, float(order_id % ROWS_PER_FILE), 2023)
            for order_id, region in zip(range(10, 20), ["eu"] * 5 + ["us"] * 5)
        ]
        assert result.stats.files_total == 4
        assert result.stats.files_pruned == 2

    def test_engines_agree_on_string_and_range_predicates(self, cache_mode):
        platform, admin, _, _ = partitioned_lake(cache_mode)
        answers = {
            name: engine.execute(REGION_SQL, admin)
            for name, engine in engines(platform).items()
        }
        for name, result in answers.items():
            assert sorted(result.rows()) == [(i,) for i in range(15, 20)], name
            assert result.stats.files_pruned == 3, name


def test_listing_reads_no_footer_of_a_pruned_partition():
    """With the metadata cache off the Read API lists the bucket and decides
    from the key alone: a pruned partition costs no ranged GET."""
    platform, admin, _, store = partitioned_lake(MetadataCacheMode.DISABLED)
    touched: list[str] = []
    get_range = store.get_range

    def spy(bucket, key, *args, **kwargs):
        touched.append(key)
        return get_range(bucket, key, *args, **kwargs)

    store.get_range = spy
    platform.home_engine.execute(YEAR_SQL, admin)
    assert touched and all("year=2023" in key for key in touched)


def test_partition_values_are_coerced_by_schema_dtype():
    _, _, table, _ = partitioned_lake(MetadataCacheMode.DISABLED)
    assert partition_values(table, "sales/year=2023/region=us/part-0.pqs") == {
        "year": 2023, "region": "us",
    }
    assert partition_values(table, "sales/part-0.pqs") == {}
