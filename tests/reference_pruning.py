"""The five pruning evaluators that ``metastore/constraints.can_match``
replaced, kept verbatim (only lifted out of their modules; a method of
``ColumnConstraint`` is a function of it here) as the oracles of
tests/test_pruning.py:

* :func:`admits_range` / :func:`admits_value` / :func:`is_trivial` —
  ``ColumnConstraint``'s own checks of a file's ``[min, max]`` and of a
  partition value;
* :func:`_entry_matches` — ``BigMetadataService``'s per-entry check (tail
  replay, the listing path, SparkSim direct);
* :class:`ColumnarBaselineIndex` — the compacted baseline's numeric-only
  vectorized mask, which ``_prune_columnar`` re-checked per entry;
* :func:`_matches` — ``IcebergTable``'s manifest check, blind to null
  counts;
* :func:`_may_match` / :func:`surviving_row_groups` — the footer row-group
  check, blind to IN-sets;
* :func:`_partition_admits` — the listing path's check before any footer
  GET.

Not collected by pytest (no ``test_`` prefix).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.formats import pqs
from repro.metastore.bigmeta import FileEntry
from repro.metastore.constraints import ColumnConstraint, ConstraintSet
from repro.tableformats.iceberg import DataFileInfo


def admits_range(self: ColumnConstraint, file_min: Any, file_max: Any) -> bool:
    """Could any value in ``[file_min, file_max]`` satisfy the constraint?

    ``None`` bounds mean "unknown" and must be admitted (pruning is only
    sound when statistics prove emptiness).
    """
    if self.lo is not None and file_max is not None and file_max < self.lo:
        return False
    if self.hi is not None and file_min is not None and file_min > self.hi:
        return False
    if self.in_set is not None and file_min is not None and file_max is not None:
        if not any(file_min <= v <= file_max for v in self.in_set):
            return False
    return True


def admits_value(self: ColumnConstraint, value: Any) -> bool:
    """Does a concrete (partition) value satisfy the constraint?"""
    if value is None:
        return False
    if self.lo is not None and value < self.lo:
        return False
    if self.hi is not None and value > self.hi:
        return False
    if self.in_set is not None and value not in self.in_set:
        return False
    return True


def is_trivial(self: ColumnConstraint) -> bool:
    return self.lo is None and self.hi is None and self.in_set is None


def _entry_matches(entry: FileEntry, constraints: ConstraintSet) -> bool:
    partition = {k.lower(): v for k, v in entry.partition_values}
    for column, constraint in constraints:
        if column in partition:
            if not admits_value(constraint, partition[column]):
                return False
            continue
        stats = entry.stats_for(column)
        if stats is None:
            continue  # no statistics: cannot prune
        if stats.min_value is None and stats.max_value is None:
            # All-null file for this column cannot satisfy a constraint.
            if stats.null_count >= entry.row_count and not is_trivial(constraint):
                return False
            continue
        if not admits_range(constraint, stats.min_value, stats.max_value):
            return False
    return True


class ColumnarBaselineIndex:
    """Vectorized pruning over a compacted baseline.

    The paper stores baselines in *columnar* form for read efficiency;
    here the numeric per-file min/max statistics are transposed into numpy
    arrays at compaction time, so a pruning pass over N files is a handful
    of vectorized comparisons instead of N python-object walks. Non-numeric
    columns (strings, partition values) fall back to the per-entry check.
    """

    def __init__(self, entries: list[FileEntry]) -> None:
        self.entries = entries
        self._numeric: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        if not entries:
            return
        columns: set[str] = set()
        for entry in entries:
            for name, stats in entry.column_stats:
                if _is_numeric_stat(stats.min_value) and _is_numeric_stat(stats.max_value):
                    columns.add(name.lower())
        n = len(entries)
        for column in columns:
            mins = np.full(n, -np.inf)
            maxs = np.full(n, np.inf)
            known = np.zeros(n, dtype=bool)
            for i, entry in enumerate(entries):
                stats = entry.stats_for(column)
                if stats is None:
                    continue
                if _is_numeric_stat(stats.min_value) and _is_numeric_stat(stats.max_value):
                    mins[i] = float(stats.min_value)
                    maxs[i] = float(stats.max_value)
                    known[i] = True
            self._numeric[column] = (mins, maxs, known)

    def candidate_mask(self, constraints: ConstraintSet) -> np.ndarray:
        """Files that *may* satisfy the numeric constraints (vectorized)."""
        mask = np.ones(len(self.entries), dtype=bool)
        for column, constraint in constraints:
            indexed = self._numeric.get(column)
            if indexed is None:
                continue
            mins, maxs, known = indexed
            admitted = np.ones(len(self.entries), dtype=bool)
            if constraint.lo is not None and _is_numeric_stat(constraint.lo):
                admitted &= maxs >= float(constraint.lo)
            if constraint.hi is not None and _is_numeric_stat(constraint.hi):
                admitted &= mins <= float(constraint.hi)
            if constraint.in_set is not None:
                values = [v for v in constraint.in_set if _is_numeric_stat(v)]
                if len(values) == len(constraint.in_set) and values:
                    hits = np.zeros(len(self.entries), dtype=bool)
                    for v in values:
                        hits |= (mins <= float(v)) & (maxs >= float(v))
                    admitted &= hits
            # Files without statistics for this column stay candidates.
            mask &= admitted | ~known
        return mask


def _is_numeric_stat(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _matches(info: DataFileInfo, constraints: ConstraintSet) -> bool:
    partition = {k.lower(): v for k, v in info.partition}
    bounds = {c.lower(): b for c, b in info.bounds}
    for column, constraint in constraints:
        if column in partition:
            if not admits_value(constraint, partition[column]):
                return False
            continue
        if column in bounds:
            lo, hi, _nulls = bounds[column]
            if not admits_range(constraint, lo, hi):
                return False
    return True


def _may_match(rg: pqs.RowGroupMeta, column: str, lo: Any, hi: Any) -> bool:
    chunk = rg.column(column)
    if chunk.min_value is None and chunk.max_value is None:
        # An all-null group cannot match a range predicate.
        return not (chunk.null_count == rg.num_rows and (lo is not None or hi is not None))
    if lo is not None and chunk.max_value is not None and chunk.max_value < lo:
        return False
    if hi is not None and chunk.min_value is not None and chunk.min_value > hi:
        return False
    return True


def surviving_row_groups(footer: pqs.FileFooter, constraints) -> list[int]:
    """Indices of the row groups that may hold a row satisfying every
    ``(column, constraint)`` of ``constraints`` (a
    :class:`~repro.metastore.constraints.ConstraintSet`), by footer min/max
    stats. Constraints on columns the file does not have prune nothing."""
    bounds = [
        (footer.schema.field(column).name, constraint.lo, constraint.hi)
        for column, constraint in constraints
        if footer.schema.has_field(column)
    ]
    return [
        i for i, rg in enumerate(footer.row_groups)
        if all(_may_match(rg, name, lo, hi) for name, lo, hi in bounds)
    ]


def _partition_admits(partition: dict[str, Any], constraints: ConstraintSet) -> bool:
    lowered = {name.lower(): value for name, value in partition.items()}
    return all(
        admits_value(constraint, lowered[column])
        for column, constraint in constraints
        if column in lowered
    )
