"""Logical data types, fields, and schemas.

The type system intentionally mirrors the subset of BigQuery/Arrow types the
paper's workloads need: 64-bit integers and floats, booleans, strings, raw
bytes, microsecond timestamps, and day-precision dates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import AnalysisError


class DataType(enum.Enum):
    """Logical column types supported throughout the library."""

    INT64 = "INT64"
    FLOAT64 = "FLOAT64"
    BOOL = "BOOL"
    STRING = "STRING"
    BYTES = "BYTES"
    TIMESTAMP = "TIMESTAMP"  # microseconds since epoch, stored as int64
    DATE = "DATE"  # days since epoch, stored as int64

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INT64, DataType.FLOAT64)

    @property
    def is_temporal(self) -> bool:
        return self in (DataType.TIMESTAMP, DataType.DATE)

    @property
    def is_variable_width(self) -> bool:
        return self in (DataType.STRING, DataType.BYTES)

    def numpy_dtype(self) -> np.dtype:
        """The numpy physical dtype used to store values of this type."""
        if self in (DataType.INT64, DataType.TIMESTAMP, DataType.DATE):
            return np.dtype(np.int64)
        if self is DataType.FLOAT64:
            return np.dtype(np.float64)
        if self is DataType.BOOL:
            return np.dtype(np.bool_)
        # Variable-width values are stored as python objects.
        return np.dtype(object)


# How two types meet wherever SQL mixes them — comparisons, arithmetic,
# BETWEEN, IN, CASE, COALESCE / IFNULL / IF / GREATEST / LEAST, UNION ALL,
# join keys and pruning: the pairs of differing types that have a common
# type, and that type. A value of the other type is cast to it; no cast on
# this table can fail.
_SUPERTYPES = {
    frozenset((DataType.INT64, DataType.FLOAT64)): DataType.FLOAT64,
    frozenset((DataType.DATE, DataType.TIMESTAMP)): DataType.TIMESTAMP,  # DATE -> midnight
    frozenset((DataType.INT64, DataType.DATE)): DataType.DATE,  # the int is a day number
    frozenset((DataType.INT64, DataType.TIMESTAMP)): DataType.TIMESTAMP,  # ... micros
}


def common_type(a: DataType, b: DataType) -> DataType | None:
    """The type values of ``a`` and ``b`` meet in; None when they do not."""
    return a if a is b else _SUPERTYPES.get(frozenset((a, b)))


@dataclass(frozen=True)
class Field:
    """A named, typed, possibly nullable column slot in a schema."""

    name: str
    dtype: DataType
    nullable: bool = True

    def __str__(self) -> str:
        null = "" if self.nullable else " NOT NULL"
        return f"{self.name} {self.dtype.value}{null}"


@dataclass(frozen=True)
class Schema:
    """An ordered collection of fields with by-name lookup.

    Schemas are immutable; derived schemas (projections, renames) are new
    objects. Field names are case-insensitive for lookup, matching SQL
    identifier semantics, but preserve their declared casing.
    """

    fields: tuple[Field, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False, hash=False, default=None)
    _fingerprint: tuple | None = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "fields", tuple(self.fields))
        index: dict[str, int] = {}
        for i, f in enumerate(self.fields):
            key = f.name.lower()
            if key in index:
                raise AnalysisError(f"duplicate field name in schema: {f.name!r}")
            index[key] = i
        object.__setattr__(self, "_index", index)

    @staticmethod
    def of(*pairs: tuple[str, DataType]) -> "Schema":
        """Convenience constructor: ``Schema.of(("a", DataType.INT64), ...)``."""
        return Schema(tuple(Field(name, dtype) for name, dtype in pairs))

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self):
        return iter(self.fields)

    def names(self) -> list[str]:
        return [f.name for f in self.fields]

    @property
    def fingerprint(self) -> tuple[tuple[str, str], ...]:
        """``(name, type name)`` per field — the shape a cache key records —
        computed on first use and kept, since the schema never changes."""
        fingerprint = self._fingerprint
        if fingerprint is None:
            fingerprint = tuple((f.name, f.dtype.name) for f in self.fields)
            object.__setattr__(self, "_fingerprint", fingerprint)
        return fingerprint

    def has_field(self, name: str) -> bool:
        return name.lower() in self._index

    def index_of(self, name: str) -> int:
        """Position of field ``name``; raises :class:`AnalysisError` if absent."""
        try:
            return self._index[name.lower()]
        except KeyError:
            raise AnalysisError(
                f"field {name!r} not found in schema [{', '.join(self.names())}]"
            ) from None

    def field(self, name: str) -> Field:
        return self.fields[self.index_of(name)]

    def select(self, names: list[str]) -> "Schema":
        """A new schema containing only ``names``, in the given order."""
        return Schema(tuple(self.fields[self.index_of(n)] for n in names))

    def rename_all(self, prefix: str) -> "Schema":
        """A new schema with every field renamed to ``prefix.name``."""
        return Schema(
            tuple(Field(f"{prefix}.{f.name}", f.dtype, f.nullable) for f in self.fields)
        )

    def merge(self, other: "Schema") -> "Schema":
        """Concatenate two schemas (used by joins)."""
        return Schema(self.fields + other.fields)

    def to_dict(self) -> list[dict]:
        """JSON-serializable description (used by file footers and catalogs)."""
        return [
            {"name": f.name, "type": f.dtype.value, "nullable": f.nullable}
            for f in self.fields
        ]

    @staticmethod
    def from_dict(data: list[dict]) -> "Schema":
        return Schema(
            tuple(
                Field(d["name"], DataType(d["type"]), d.get("nullable", True))
                for d in data
            )
        )

    def __str__(self) -> str:
        return "Schema(" + ", ".join(str(f) for f in self.fields) + ")"
