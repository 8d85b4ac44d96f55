"""Shared setup helpers for integration-level tests."""

from __future__ import annotations

from repro import LakehousePlatform, Role
from repro.data import DataType, Schema, batch_from_pydict
from repro.faults import FaultSpec
from repro.metastore.catalog import MetadataCacheMode
from repro.storageapi.fileutil import write_data_file

SALES_SCHEMA = Schema.of(
    ("order_id", DataType.INT64),
    ("region", DataType.STRING),
    ("amount", DataType.FLOAT64),
    ("year", DataType.INT64),
)


def fail_store_ops(store, op_prefix: str, count: int = 1) -> None:
    """Make the next ``count`` operations of ``store`` whose name starts with
    ``op_prefix`` ("put", "get", "list") fail with a plain, non-transient
    ``StorageError``: a crash, which retry policies pass straight through."""
    store.ctx.faults.add(FaultSpec(
        op=f"objectstore.{op_prefix}",
        error="StorageError",
        count=count,
        match=(("store", store.name),),
    ))


def make_platform():
    """A platform with an admin user."""
    platform = LakehousePlatform()
    admin = platform.admin_user()
    return platform, admin


def setup_lake_table(
    platform,
    admin,
    schema: Schema,
    files: list[dict],
    bucket: str = "lake",
    dataset: str = "ds",
    table: str = "sales",
    cache_mode: MetadataCacheMode = MetadataCacheMode.AUTOMATIC,
    keys: list[str] | None = None,
    partition_columns: list[str] | None = None,
):
    """Write ``files`` (one column dict each) as a lake under ``table/`` and
    register a BigLake table over it; bucket, connection and dataset are
    created on first use. ``keys`` names each file under ``table/`` (default
    ``part-NNNN.pqs``) — a hive layout goes with ``partition_columns``."""
    store = platform.stores.store_for(platform.config.home_region.location)
    if not store.has_bucket(bucket):
        store.create_bucket(bucket)
    connection_name = f"{dataset}.lakeconn"
    if not platform.connections.has_connection(connection_name):
        conn = platform.connections.create_connection(connection_name)
        platform.connections.grant_lake_access(conn, bucket)
    platform.iam.grant(f"connections/{connection_name}", Role.CONNECTION_USER, admin)
    if not platform.catalog.has_dataset(dataset):
        platform.catalog.create_dataset(dataset)
    for i, rows in enumerate(files):
        name = keys[i] if keys else f"part-{i:04d}.pqs"
        write_data_file(
            store, bucket, f"{table}/{name}", schema, [batch_from_pydict(schema, rows)]
        )
    info = platform.tables.create_biglake_table(
        admin, dataset, table, schema, bucket, table, connection_name,
        partition_columns=partition_columns, cache_mode=cache_mode,
    )
    return info, store


def setup_sales_lake(
    platform,
    admin,
    bucket: str = "lake",
    dataset: str = "ds",
    table: str = "sales",
    cache_mode: MetadataCacheMode = MetadataCacheMode.AUTOMATIC,
    files: int = 4,
    rows_per_file: int = 50,
):
    """Write a small partition-friendly sales lake and register a BigLake
    table over it. Files are written with disjoint order_id ranges and one
    year per file half, so statistics can prune."""
    regions = ["us", "eu", "apac"]
    columns = []
    for i in range(files):
        year = 2022 if i < files // 2 else 2023
        base = i * rows_per_file
        columns.append({
            "order_id": list(range(base, base + rows_per_file)),
            "region": [regions[j % 3] for j in range(rows_per_file)],
            "amount": [float(j + 1) for j in range(rows_per_file)],
            "year": [year] * rows_per_file,
        })
    return setup_lake_table(
        platform, admin, SALES_SCHEMA, columns, bucket, dataset, table, cache_mode
    )
