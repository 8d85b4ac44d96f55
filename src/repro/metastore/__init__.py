"""Catalog and metadata services.

* :mod:`repro.metastore.catalog` — the logical catalog (projects, datasets,
  tables of every kind the paper introduces: managed, BigLake external,
  BLMT, Object tables, materialized views).
* :mod:`repro.metastore.bigmeta` — Big Metadata (§3.3/§3.5): a columnar
  file-level metadata cache with a stateful transaction log (in-memory tail
  + periodically compacted columnar baselines), supporting snapshot reads,
  multi-table transactions, and high commit rates.
* :mod:`repro.metastore.constraints` — plain column-range constraints and
  the one pruning evaluator over files, row groups and partitions
  (engine-independent).
"""

from repro.metastore.catalog import (
    Catalog,
    Dataset,
    StorageDescriptor,
    TableInfo,
    TableKind,
    MetadataCacheConfig,
)
from repro.metastore.constraints import ColumnConstraint, ConstraintSet
from repro.metastore.bigmeta import (
    BigMetadataService,
    ColumnStats,
    FileEntry,
    MetaTransaction,
    TableMetadata,
)

__all__ = [
    "Catalog",
    "Dataset",
    "StorageDescriptor",
    "TableInfo",
    "TableKind",
    "MetadataCacheConfig",
    "ColumnConstraint",
    "ConstraintSet",
    "BigMetadataService",
    "ColumnStats",
    "FileEntry",
    "MetaTransaction",
    "TableMetadata",
]
