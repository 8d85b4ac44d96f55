"""Null-aware column vectors backed by numpy, plus dictionary encoding.

Two concrete representations are used throughout the system:

* :class:`Column` — a flat vector of values with an optional validity mask.
* :class:`DictionaryColumn` — int32 codes into a (small) dictionary of
  distinct values. The vectorized Parquet reader emits these directly so
  filters and aggregations can run on codes without materializing values,
  which is the core of the paper's Superluminal throughput win (§3.4).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.data.types import DataType
from repro.errors import ExecutionError


def _coerce_values(dtype: DataType, values: Sequence[Any] | np.ndarray) -> np.ndarray:
    """Build the physical numpy array for ``values`` of logical ``dtype``.

    ``None`` entries are replaced by a type-appropriate placeholder; callers
    are responsible for passing a matching validity mask.
    """
    np_dtype = dtype.numpy_dtype()
    if isinstance(values, np.ndarray) and values.dtype == np_dtype:
        return values
    if np_dtype == np.dtype(object):
        # fromiter stores each item as it is; np.asarray would turn a list of
        # str into a fixed-width array and strip trailing NULs on the way.
        return np.fromiter(values, dtype=object, count=len(values))
    placeholder: Any = 0
    cleaned = [placeholder if v is None else v for v in values]
    return np.asarray(cleaned, dtype=np_dtype)


class Column:
    """An immutable typed vector with an optional null (validity) mask.

    ``validity`` is a boolean array where ``True`` means "value present";
    ``None`` means every value is present. Values at null positions are
    unspecified placeholders and must not be observed.
    """

    __slots__ = ("dtype", "values", "validity", "_texts")

    def __init__(
        self,
        dtype: DataType,
        values: Sequence[Any] | np.ndarray,
        validity: np.ndarray | None = None,
    ) -> None:
        self.dtype = dtype
        self.values = _coerce_values(dtype, values)
        if validity is not None:
            validity = np.asarray(validity, dtype=bool)
            if len(validity) != len(self.values):
                raise ExecutionError(
                    f"validity length {len(validity)} != values length {len(self.values)}"
                )
            if bool(validity.all()):
                validity = None
        self.validity = validity
        # fn -> [texts, done, missing], filled by texts() when first asked.
        self._texts: dict[Callable[[Any], Any], list] | None = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_pylist(dtype: DataType, items: Sequence[Any]) -> "Column":
        """Build a column from python values, treating ``None`` as null."""
        validity = np.array([v is not None for v in items], dtype=bool)
        return Column(dtype, items, validity if not validity.all() else None)

    @staticmethod
    def nulls(dtype: DataType, count: int) -> "Column":
        """A column of ``count`` nulls."""
        values = np.zeros(count, dtype=dtype.numpy_dtype())
        if dtype.numpy_dtype() == np.dtype(object):
            values = np.empty(count, dtype=object)
        return Column(dtype, values, np.zeros(count, dtype=bool))

    @staticmethod
    def repeat(dtype: DataType, value: Any, count: int) -> "Column":
        """A column repeating one value (or null) ``count`` times."""
        if value is None:
            return Column.nulls(dtype, count)
        if dtype.numpy_dtype() == np.dtype(object):
            values = np.empty(count, dtype=object)
            values[:] = value
        else:
            values = np.full(count, value, dtype=dtype.numpy_dtype())
        return Column(dtype, values)

    # -- basic accessors ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.values)

    def is_valid(self) -> np.ndarray:
        """Boolean presence mask of length ``len(self)``."""
        if self.validity is None:
            return np.ones(len(self), dtype=bool)
        return self.validity

    def null_count(self) -> int:
        if self.validity is None:
            return 0
        return int((~self.validity).sum())

    def __getitem__(self, i: int) -> Any:
        if self.validity is not None and not self.validity[i]:
            return None
        v = self.values[i]
        if isinstance(v, np.generic):
            return v.item()
        return v

    def __iter__(self) -> Iterator[Any]:
        return iter(self.to_pylist())

    def to_pylist(self) -> list[Any]:
        """The column as python values, ``None`` for null: the one kernel
        that takes data out of numpy. Row views, masks, digests and per-value
        expression loops all walk this list — ``tolist`` is one C call that
        yields what ``__getitem__`` yields one boxed scalar at a time."""
        out = self.values.tolist()
        if self.values.dtype == np.dtype(object) and any(
            issubclass(t, np.generic) for t in set(map(type, out))
        ):
            # An object array built from a numpy string array holds np.str_.
            out = [v.item() if isinstance(v, np.generic) else v for v in out]
        if self.validity is not None:
            for i in np.flatnonzero(~self.validity).tolist():
                out[i] = None
        return out

    def texts(self, fn: Callable[[Any], Any], positions: np.ndarray) -> np.ndarray:
        """``fn`` of the python value (``None`` at a null) at each of
        ``positions``, as an object array; position ``-1`` reads as a null,
        as a dictionary code does. Each position's text is computed the
        first time any caller asks for it and kept on this column, per
        ``fn``.

        ``fn`` must be a pure function of the value, and a stable object: it
        is the memo's key. A column is immutable, so its memo cannot go
        stale, and it dies with the column: a cached chunk frees it on
        eviction, and an uncached scan's fresh column starts empty."""
        if self._texts is None:
            self._texts = {}
        memo = self._texts.get(fn)
        if memo is None:
            # One slot per value plus the null's at the end (index -1); the
            # nulls' slots are filled now, the values' when first asked for.
            done = np.ones(len(self) + 1, dtype=bool)
            done[:-1] = False if self.validity is None else ~self.validity
            texts = np.empty(len(self) + 1, dtype=object)
            texts[done] = fn(None)
            memo = self._texts[fn] = [texts, done, len(self) - self.null_count()]
        texts, done, missing = memo
        if missing:
            asked = np.zeros(len(done), dtype=bool)
            asked[positions] = True
            todo = np.flatnonzero(asked & ~done)
            if len(todo):
                values = self.take(todo).to_pylist()
                texts[todo] = np.fromiter(map(fn, values), dtype=object, count=len(values))
                done[todo] = True
                memo[2] = missing - len(todo)
        return texts[positions]

    # -- transformations ---------------------------------------------------

    def filter(self, mask: np.ndarray) -> "Column":
        """Keep rows where ``mask`` is true."""
        validity = self.validity[mask] if self.validity is not None else None
        return Column(self.dtype, self.values[mask], validity)

    def take(self, indices: np.ndarray) -> "Column":
        """Gather rows by position."""
        validity = self.validity[indices] if self.validity is not None else None
        return Column(self.dtype, self.values[indices], validity)

    def slice(self, start: int, stop: int) -> "Column":
        validity = self.validity[start:stop] if self.validity is not None else None
        return Column(self.dtype, self.values[start:stop], validity)

    def min_max(self) -> tuple[Any, Any]:
        """(min, max) over present values, or (None, None) if all null.

        Used to compute the per-file column statistics that Big Metadata
        caches for pruning.
        """
        mask = self.is_valid()
        if not mask.any():
            return None, None
        present = self.values[mask]
        if self.dtype.is_variable_width:
            items = [v for v in present]
            return min(items), max(items)
        return present.min().item(), present.max().item()

    def nbytes(self) -> int:
        """Approximate in-memory footprint, used by memory accounting."""
        if self.dtype.is_variable_width:
            total = 0
            for v in self.values:
                if isinstance(v, (bytes, str)):
                    total += len(v)
                total += 8
            return total
        return int(self.values.nbytes)


class DictionaryColumn:
    """A column stored as int32 codes into a dictionary of distinct values.

    Code ``-1`` marks a null. ``dictionary`` is a plain :class:`Column`
    (always fully valid). Operating directly on codes lets the engine filter
    and group dictionary-encoded scans without decoding — the optimization
    the paper credits for the vectorized reader's CPU-efficiency gain.
    """

    __slots__ = ("dtype", "codes", "dictionary")

    def __init__(self, dtype: DataType, codes: np.ndarray, dictionary: Column) -> None:
        self.dtype = dtype
        self.codes = np.asarray(codes, dtype=np.int32)
        self.dictionary = dictionary

    @staticmethod
    def encode(column: Column) -> "DictionaryColumn":
        """Dictionary-encode a flat column."""
        # A dict keeps insertion order, so codes follow first occurrence.
        value_to_code: dict[Any, int] = {}
        codes = [
            -1 if v is None else value_to_code.setdefault(v, len(value_to_code))
            for v in column.to_pylist()
        ]
        return DictionaryColumn(
            column.dtype,
            np.asarray(codes, dtype=np.int32),
            Column(column.dtype, list(value_to_code)),
        )

    def __len__(self) -> int:
        return len(self.codes)

    def null_count(self) -> int:
        return int((self.codes < 0).sum())

    def decode(self) -> Column:
        """Materialize the flat column."""
        valid = self.codes >= 0
        if len(self.dictionary) == 0:
            return Column.nulls(self.dtype, len(self.codes))
        safe_codes = np.where(valid, self.codes, 0)
        values = self.dictionary.values[safe_codes]
        # numpy fancy-indexing of object arrays keeps object dtype; numeric
        # arrays keep their dtype, so this is representation-preserving.
        validity = None if bool(valid.all()) else valid
        return Column(self.dtype, values, validity)

    def to_pylist(self) -> list[Any]:
        """Python values without decoding first: each distinct value is
        converted once and rows gather it by code."""
        entries = self.dictionary.to_pylist()
        # The entries, then where code -1, the null, lands.
        by_code = np.fromiter([*entries, None], dtype=object, count=len(entries) + 1)
        # Codes come from file bytes: any negative code is a null, as in decode().
        return by_code[np.maximum(self.codes, -1)].tolist()

    def texts(self, fn: Callable[[Any], Any]) -> np.ndarray:
        """``fn`` of each row's python value, as an object array: the texts
        of the shared dictionary's entries (its memo, :meth:`Column.texts`)
        gathered by code."""
        # Codes come from file bytes: any negative code is a null, as in decode().
        return self.dictionary.texts(fn, np.maximum(self.codes, -1))

    def filter(self, mask: np.ndarray) -> "DictionaryColumn":
        return DictionaryColumn(self.dtype, self.codes[mask], self.dictionary)

    def take(self, indices: np.ndarray) -> "DictionaryColumn":
        return DictionaryColumn(self.dtype, self.codes[indices], self.dictionary)

    def nbytes(self) -> int:
        return int(self.codes.nbytes) + self.dictionary.nbytes()
