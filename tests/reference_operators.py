"""Reference operators: what the key kernel of ``repro.engine.operators`` is
compared against.

These are the row-at-a-time join / semi-join / DISTINCT / GROUP BY
implementations the engine ran before ``_column_codes`` became total —
kept verbatim (``_distinct_naive`` takes the output schema where it took
the plan node), because they define the key semantics by construction:
two keys are the same key exactly when their python tuples compare equal
(NULL == NULL for grouping, a NULL key component matches nothing in a
join, every NaN is its own key, 1 == 1.0 == True, 'a' != b'a').

Not collected by pytest (no ``test_`` prefix); imported by the equivalence
tests and by E18-WC's join microbenchmark.
"""

from __future__ import annotations

import numpy as np

from repro.data.batch import RecordBatch, batch_from_rows
from repro.data.column import Column
from repro.data.types import Schema


def _hash_join_indices_naive(
    build_key_cols: list[Column],
    probe_key_cols: list[Column],
    build_valid: np.ndarray,
    probe_valid: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Dict-of-lists build / probe: matches in probe-major order, build
    indices ascending within each probe row."""
    table: dict[tuple, list[int]] = {}
    build_key_lists = [c.to_pylist() for c in build_key_cols]
    for i in range(len(build_valid)):
        if not build_valid[i]:
            continue
        table.setdefault(tuple(lst[i] for lst in build_key_lists), []).append(i)
    probe_key_lists = [c.to_pylist() for c in probe_key_cols]
    probe_indices: list[int] = []
    build_indices: list[int] = []
    for i in range(len(probe_valid)):
        matches = (
            table.get(tuple(lst[i] for lst in probe_key_lists)) if probe_valid[i] else None
        )
        if matches:
            for j in matches:
                probe_indices.append(i)
                build_indices.append(j)
    return (
        np.asarray(probe_indices, dtype=np.int64),
        np.asarray(build_indices, dtype=np.int64),
    )


def _distinct_naive(schema: Schema, batches: list[RecordBatch]) -> list[RecordBatch]:
    """The first row of each distinct value tuple, in first-seen order."""
    seen: set[tuple] = set()
    rows: list[tuple] = []
    for batch in batches:
        for row in batch.iter_rows():
            if row not in seen:
                seen.add(row)
                rows.append(row)
    if not rows:
        return []
    return [batch_from_rows(schema, rows)]


def _group_keys_naive(key_columns: list[Column], n: int) -> tuple[np.ndarray, list[tuple]]:
    """Per-row group ids numbered in first-seen order, and each group's
    key tuple."""
    key_lists = [c.to_pylist() for c in key_columns]
    group_of: dict[tuple, int] = {}
    gid = np.empty(n, dtype=np.int64)
    keys_in_order: list[tuple] = []
    for i in range(n):
        key = tuple(lst[i] for lst in key_lists)
        g = group_of.get(key)
        if g is None:
            g = len(keys_in_order)
            group_of[key] = g
            keys_in_order.append(key)
        gid[i] = g
    return gid, keys_in_order


def _semi_join_keep_naive(
    build_key_cols: list[Column],
    probe_key_cols: list[Column],
    probe_rows: int,
    kind: str,
) -> np.ndarray:
    """Probe rows an IN (SEMI) / NOT IN (ANTI) subquery keeps; a NULL in a
    key matches nothing in either mode."""
    key_set: set[tuple] = set()
    build_lists = [c.to_pylist() for c in build_key_cols]
    for i in range(len(build_lists[0]) if build_lists else 0):
        key = tuple(lst[i] for lst in build_lists)
        if None not in key:
            key_set.add(key)
    probe_lists = [c.to_pylist() for c in probe_key_cols]
    keep = np.zeros(probe_rows, dtype=bool)
    for i in range(probe_rows):
        key = tuple(lst[i] for lst in probe_lists)
        if None in key:
            continue  # NULL keys match nothing in either mode
        matched = key in key_set
        keep[i] = matched if kind == "SEMI" else not matched
    return keep
