"""Column constraints for partition and file pruning.

A :class:`ConstraintSet` is the engine-independent result of analyzing a
conjunctive predicate: per column, an optional inclusive range and an
optional IN-set. Big Metadata, the Hive baseline, file footers, and the
read-session pruner all consume the same structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class ColumnConstraint:
    """Inclusive range and/or IN-set constraint on one column."""

    lo: Any = None
    hi: Any = None
    in_set: frozenset | None = None

    def merge_and(self, other: "ColumnConstraint") -> "ColumnConstraint":
        """Tighten: both constraints must hold."""
        lo = self.lo
        if other.lo is not None and (lo is None or other.lo > lo):
            lo = other.lo
        hi = self.hi
        if other.hi is not None and (hi is None or other.hi < hi):
            hi = other.hi
        if self.in_set is not None and other.in_set is not None:
            in_set = self.in_set & other.in_set
        else:
            in_set = self.in_set if self.in_set is not None else other.in_set
        return ColumnConstraint(lo=lo, hi=hi, in_set=in_set)

    def admits_range(self, file_min: Any, file_max: Any) -> bool:
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

    def admits_value(self, value: Any) -> bool:
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

    @property
    def is_trivial(self) -> bool:
        return self.lo is None and self.hi is None and self.in_set is None


@dataclass
class ConstraintSet:
    """Per-column constraints implied by a conjunctive predicate."""

    columns: dict[str, ColumnConstraint] = field(default_factory=dict)

    def add(self, column: str, constraint: ColumnConstraint) -> None:
        key = column.lower()
        existing = self.columns.get(key)
        if existing is None:
            self.columns[key] = constraint
        else:
            self.columns[key] = existing.merge_and(constraint)

    def get(self, column: str) -> ColumnConstraint | None:
        return self.columns.get(column.lower())

    @property
    def is_empty(self) -> bool:
        return not self.columns

    def __iter__(self):
        return iter(self.columns.items())
