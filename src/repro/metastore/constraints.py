"""Column constraints and the one pruning evaluator.

A :class:`ConstraintSet` is the engine-independent result of analyzing a
conjunctive predicate: per column, an optional inclusive range and an
optional IN-set. :func:`can_match` reads it against a :class:`StatsTable`
and answers, for every unit — a file in Big Metadata or an Iceberg
manifest, a row group of a pqs footer, a partition of a hive listing —
whether the unit may hold a matching row.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Container, Iterable


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

    @cached_property
    def probe(self) -> list | None:
        """The IN-set sorted once for bisection, without NULL (it equals
        nothing); None when it cannot prune — there is none, it holds a NaN,
        or its values do not sort together."""
        values = [v for v in self.in_set or () if v is not None]
        if self.in_set is None or any(v != v for v in values):
            return None
        try:
            return sorted(values)
        except TypeError:
            return None


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


@dataclass
class StatsTable:
    """Statistics of a list of units, one column at a time.

    ``columns`` maps a lower-case column name to three lists parallel to
    ``rows``: each unit's lower bound, upper bound and null count, ``None``
    where unknown. ``kinds`` holds each column's bound types.
    """

    rows: list[int]
    columns: dict[str, tuple[list, list, list]]
    kinds: dict[str, set[type]]

    @classmethod
    def build(
        cls, units: Iterable[tuple], columns: Container[str] | None = None
    ) -> "StatsTable":
        """The table of ``units`` — each its row count, its partition values
        as ``(name, value)`` pairs and its column statistics as ``(name,
        stats)`` pairs, ``stats`` having ``min_value``, ``max_value`` and
        ``null_count`` — keeping only the names in ``columns`` (lower-case;
        every name when None). A partition value ``v`` is the bounds ``(v,
        v)`` without nulls and overrides column statistics of the same name;
        a NULL partition value makes every row null."""
        units = list(units)
        table = cls([rows for rows, _, _ in units], {}, {})
        for i, (rows, partition, column_stats) in enumerate(units):
            for name, s in column_stats:
                key = name.lower()
                if columns is None or key in columns:
                    table._set(key, i, s.min_value, s.max_value, s.null_count)
            for name, value in partition:
                key = name.lower()
                if columns is None or key in columns:
                    table._set(key, i, value, value, 0 if value is not None else rows)
        for key, (los, his, _) in table.columns.items():
            table.kinds[key] = set(map(type, los + his))
        return table

    def _set(self, key: str, i: int, lo: Any, hi: Any, nulls: int) -> None:
        stats = self.columns.get(key)
        if stats is None:
            n = len(self.rows)
            stats = self.columns[key] = ([None] * n, [None] * n, [None] * n)
        stats[0][i], stats[1][i], stats[2][i] = lo, hi, nulls


def can_match(constraints: ConstraintSet, table: StatsTable) -> list[bool]:
    """Keep-mask over ``table``'s units: False only where the statistics
    prove that no row of the unit satisfies every constraint.

    Per constrained column: unknown statistics keep the unit; a unit whose
    every row is NULL is pruned (NULL satisfies no comparison); a range
    prunes the units it does not overlap; an IN-set, sorted once, prunes
    the units whose ``[lo, hi]`` holds none of its values. Where ints meet
    floats, all compare as floats, as the engine compares an INT64 with a
    FLOAT64. Each test asks whether the statistics prove emptiness
    (``hi < lo``), which a NaN bound never does. A literal that does not
    compare with the column's statistics prunes nothing.
    """
    keep = [True] * len(table.rows)
    for column, constraint in constraints:
        stats = table.columns.get(column)
        lo, hi, in_set = constraint.lo, constraint.hi, constraint.in_set
        if stats is None or (lo is None and hi is None and in_set is None):
            continue
        los, his, nulls = stats
        try:
            probe = constraint.probe
            kinds = table.kinds[column].union(map(type, (lo, hi, *(in_set or ()))))
            if float in kinds and (int in kinds or bool in kinds):
                los, his = list(map(_as_float, los)), list(map(_as_float, his))
                lo, hi = _as_float(lo), _as_float(hi)
                if in_set is not None:
                    probe = ColumnConstraint(in_set=frozenset(map(_as_float, in_set))).probe
            keep = [
                k and (
                    n is None or n < r
                    if a is None and b is None
                    else (lo is None or b is None or not b < lo)
                    and (hi is None or a is None or not a > hi)
                    and (
                        probe is None or a is None or b is None
                        or bisect_left(probe, a) < bisect_right(probe, b)
                    )
                )
                for k, a, b, n, r in zip(keep, los, his, nulls, table.rows)
            ]
        except (TypeError, OverflowError):
            continue  # the column's statistics do not compare with the literals
    return keep


def _as_float(value: Any) -> Any:
    return float(value) if isinstance(value, int) else value
