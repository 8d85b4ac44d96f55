"""The logical catalog: projects, datasets, and table definitions.

§3's key idea: for BigLake tables, the catalog entry — not self-describing
files — is the source of truth for schema and governance, which is what
makes fine-grained security enforceable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from repro.data.types import Schema
from repro.errors import AlreadyExistsError, CatalogError, NotFoundError
from repro.security.policies import TablePolicySet


class TableKind(enum.Enum):
    """Every table flavor the paper discusses."""

    MANAGED = "managed"  # BigQuery native storage
    EXTERNAL = "external"  # legacy read-only external table (pre-BigLake)
    BIGLAKE = "biglake"  # BigLake table over object storage (§3)
    BLMT = "blmt"  # BigLake managed table (§3.5)
    OBJECT = "object"  # Object table over unstructured data (§4.1)
    MATERIALIZED_VIEW = "materialized_view"


class MetadataCacheMode(enum.Enum):
    """Metadata-cache behaviour for BigLake/Object tables (§3.3)."""

    DISABLED = "disabled"
    MANUAL = "manual"
    AUTOMATIC = "automatic"


@dataclass
class MetadataCacheConfig:
    mode: MetadataCacheMode = MetadataCacheMode.DISABLED
    # Results may be served from cache while younger than this bound.
    max_staleness_ms: float = 3_600_000.0


@dataclass
class StorageDescriptor:
    """Where a table's bytes live."""

    bucket: str
    prefix: str
    file_format: str = "pqs"
    # ``cloud/region`` of the bucket; queries must run in a colocated engine.
    location: str = "gcp/us-central1"


@dataclass
class TableInfo:
    """One catalog entry."""

    project: str
    dataset: str
    name: str
    kind: TableKind
    schema: Schema
    storage: StorageDescriptor | None = None
    connection_name: str | None = None
    partition_columns: list[str] = field(default_factory=list)
    clustering_columns: list[str] = field(default_factory=list)
    policies: TablePolicySet = field(default_factory=TablePolicySet)
    cache_config: MetadataCacheConfig = field(default_factory=MetadataCacheConfig)
    options: dict[str, Any] = field(default_factory=dict)
    version: int = 0  # bumped by every data commit

    # An entry's project, dataset and name never change, and every governed
    # read keys on its id and IAM path: both are derived once.
    @cached_property
    def table_id(self) -> str:
        return f"{self.project}.{self.dataset}.{self.name}"

    @cached_property
    def resource_name(self) -> str:
        """IAM resource path."""
        return f"projects/{self.project}/datasets/{self.dataset}/tables/{self.name}"

    @property
    def location(self) -> str:
        if self.storage is not None:
            return self.storage.location
        return self.options.get("location", "gcp/us-central1")


@dataclass
class Dataset:
    project: str
    name: str
    location: str = "gcp/us-central1"
    tables: dict[str, TableInfo] = field(default_factory=dict)
    # name -> version of the last dropped table of that name, which a
    # re-created table continues (see Catalog.create_table).
    dropped_versions: dict[str, int] = field(default_factory=dict)

    @property
    def resource_name(self) -> str:
        return f"projects/{self.project}/datasets/{self.name}"


class Catalog:
    """Project-scoped dataset/table registry with cross-region visibility.

    One logical catalog spans all regions (the paper's "BigQuery
    cross-region metadata availability", §5.6.1) while table *data* remains
    regional; the control plane reads table locations from here to route
    queries.
    """

    def __init__(self, project: str = "repro-project") -> None:
        self.project = project
        self._datasets: dict[str, Dataset] = {}

    def create_dataset(self, name: str, location: str = "gcp/us-central1") -> Dataset:
        if name in self._datasets:
            raise AlreadyExistsError(f"dataset {name!r} already exists")
        ds = Dataset(project=self.project, name=name, location=location)
        self._datasets[name] = ds
        return ds

    def dataset(self, name: str) -> Dataset:
        try:
            return self._datasets[name]
        except KeyError:
            raise NotFoundError(f"dataset {name!r} not found") from None

    def has_dataset(self, name: str) -> bool:
        return name in self._datasets

    def dataset_names(self) -> list[str]:
        return sorted(self._datasets)

    def create_table(self, table: TableInfo, replace: bool = False) -> TableInfo:
        ds = self.dataset(table.dataset)
        if table.name in ds.tables and not replace:
            raise AlreadyExistsError(f"table {table.table_id} already exists")
        if table.kind in (TableKind.BIGLAKE, TableKind.BLMT, TableKind.OBJECT):
            if table.connection_name is None:
                raise CatalogError(
                    f"{table.kind.value} table {table.table_id} requires a connection "
                    "(delegated access, §3.1)"
                )
            if table.storage is None:
                raise CatalogError(f"{table.kind.value} table requires a storage descriptor")
        replaced = ds.tables.get(table.name)
        last = (
            replaced.version if replaced is not None
            else ds.dropped_versions.pop(table.name, None)
        )
        if last is not None:
            # Same table_id, different contents: continue the replaced (or
            # dropped) entry's version line so nothing cached against it is
            # addressed — a re-created table never climbs back to a version
            # an old cache key recorded.
            table.version = last + 1
        ds.tables[table.name] = table
        return table

    def get_table(self, dataset: str, name: str) -> TableInfo:
        ds = self.dataset(dataset)
        try:
            return ds.tables[name]
        except KeyError:
            raise NotFoundError(f"table {dataset}.{name} not found") from None

    def resolve(self, path: tuple[str, ...]) -> TableInfo:
        """Resolve a dotted SQL name: ``dataset.table`` or
        ``project.dataset.table``."""
        if len(path) == 2:
            return self.get_table(path[0], path[1])
        if len(path) == 3:
            if path[0] != self.project:
                raise NotFoundError(f"unknown project {path[0]!r}")
            return self.get_table(path[1], path[2])
        raise CatalogError(f"cannot resolve table name {'.'.join(path)!r}")

    def drop_table(self, dataset: str, name: str) -> None:
        ds = self.dataset(dataset)
        if name not in ds.tables:
            raise NotFoundError(f"table {dataset}.{name} not found")
        ds.dropped_versions[name] = ds.tables.pop(name).version

    def list_tables(self, dataset: str) -> list[TableInfo]:
        return list(self.dataset(dataset).tables.values())
