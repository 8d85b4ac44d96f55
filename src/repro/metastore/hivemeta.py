"""Hive-Metastore-granularity baseline (§3.3).

The Hive Metastore tracks metadata at *partition* granularity: each
partition maps to a filesystem prefix, and nothing finer is known. Query
engines must LIST the object store under every surviving partition prefix
and read file footers to get statistics — the overhead Big Metadata's
file-granularity cache eliminates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import NotFoundError
from repro.metastore.constraints import ConstraintSet
from repro.simtime import SimContext


@dataclass(frozen=True)
class HivePartition:
    """One partition: its column values and its storage prefix."""

    values: tuple[tuple[str, Any], ...]
    prefix: str  # key prefix within the table's bucket


@dataclass
class _HiveTable:
    table_id: str
    partition_columns: list[str]
    partitions: list[HivePartition] = field(default_factory=list)


class HiveMetastore:
    """Partition-prefix-only metadata service."""

    def __init__(self, ctx: SimContext) -> None:
        self.ctx = ctx
        self._tables: dict[str, _HiveTable] = {}

    def register_table(self, table_id: str, partition_columns: list[str]) -> None:
        self._tables.setdefault(
            table_id, _HiveTable(table_id=table_id, partition_columns=list(partition_columns))
        )

    def add_partition(self, table_id: str, values: dict[str, Any], prefix: str) -> None:
        table = self._table(table_id)
        partition = HivePartition(values=tuple(sorted(values.items())), prefix=prefix)
        if partition not in table.partitions:
            table.partitions.append(partition)

    def partitions(self, table_id: str) -> list[HivePartition]:
        self.ctx.charge("hivemeta.list_partitions", self.ctx.costs.hive_partition_lookup_ms)
        return list(self._table(table_id).partitions)

    def prune_partitions(
        self, table_id: str, constraints: ConstraintSet
    ) -> list[HivePartition]:
        """Partition-level pruning: only constraints on partition columns
        help; everything else requires reading data files."""
        self.ctx.charge("hivemeta.prune", self.ctx.costs.hive_partition_lookup_ms)
        table = self._table(table_id)
        if constraints.is_empty:
            return list(table.partitions)
        survivors = []
        partition_cols = {c.lower() for c in table.partition_columns}
        for partition in table.partitions:
            values = {k.lower(): v for k, v in partition.values}
            keep = True
            for column, constraint in constraints:
                if column in partition_cols and column in values:
                    if not constraint.admits_value(values[column]):
                        keep = False
                        break
            if keep:
                survivors.append(partition)
        return survivors

    def _table(self, table_id: str) -> _HiveTable:
        try:
            return self._tables[table_id]
        except KeyError:
            raise NotFoundError(f"hive metastore has no table {table_id!r}") from None
