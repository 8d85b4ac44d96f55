"""The pruning evaluator against the rows it judges and against the five
evaluators it replaced.

Every unit kind is drawn from the same Hypothesis units — each a few rows of
an INT64, a FLOAT64 and a STRING column plus an INT64 partition value —
written as real pqs files, so the statistics are the writer's:

* soundness, checked row by row: a file, row group, Iceberg data file or
  partition that ``can_match`` prunes holds no row satisfying the
  constraint, compared the way the engine compares (an int and a float as
  two float64s, NaN equal to nothing) — also over bounds that hold NaN, as
  ``Column.min_max`` computes them;
* power: on NaN-free statistics and literals, the evaluator keeps no unit
  that the old evaluator for that unit kind (tests/reference_pruning.py)
  prunes.

The cases Hypothesis draws with ``max_examples`` left to the profile, so
``--hypothesis-profile=oracles`` runs them long.
"""

from __future__ import annotations

import itertools
import math

from hypothesis import assume, given, settings, strategies as st

from repro.data import DataType, Schema, batch_from_pydict
from repro.formats import pqs
from repro.formats.readers import surviving_row_groups
from repro.metastore.bigmeta import (
    BigMetadataService,
    ColumnStats,
    FileEntry,
    entry_stats,
    prune_entries,
)
from repro.metastore.constraints import ColumnConstraint, ConstraintSet, StatsTable, can_match
from repro.objectstore import ObjectStore
from repro.simtime import SimContext
from repro.storageapi.fileutil import entry_from_footer
from repro.tableformats import DataFileInfo, IcebergTable

from tests import reference_pruning as ref
from tests.conftest import GCP_US

SCHEMA = Schema.of(("i", DataType.INT64), ("f", DataType.FLOAT64), ("s", DataType.STRING))
BIG = 2**53

# Small pools, so that drawn bounds, literals and values collide often.
INTS = [-1, 0, 1, 2, BIG, BIG + 1, BIG + 2, -BIG - 1, 2**63 - 1, -(2**63)]
FLOATS = [-math.inf, -2.5, -0.0, 0.0, 1.0, 1.5, 2.0, float(BIG), float(BIG + 2), math.inf, math.nan]
STRINGS = ["", "a", "ab", "b"]

#: column -> (its values, the literals a constraint on it draws).
POOLS = {
    "i": (INTS, INTS + FLOATS),
    "f": (FLOATS, FLOATS + INTS),
    "s": (STRINGS, STRINGS),
    "p": (INTS, INTS + FLOATS),  # the partition column
}
#: column -> (its values, NULL included; the literals), as strategies.
DOMAINS = {
    column: (st.sampled_from([None, *values]), st.sampled_from(literals))
    for column, (values, literals) in POOLS.items()
}


def _one_literal_sets() -> list[ConstraintSet]:
    """Every constraint one literal puts on one column: ``>=``, ``<=`` and
    ``IN`` of one value."""
    sets = []
    for column, (_, literals) in POOLS.items():
        for v in literals:
            for constraint in (
                ColumnConstraint(lo=v),
                ColumnConstraint(hi=v),
                ColumnConstraint(in_set=frozenset({v})),
            ):
                cs = ConstraintSet()
                cs.add(column, constraint)
                sets.append(cs)
    return sets


#: Checked on every drawn table besides the drawn constraints: cheap, and
#: sure to put each literal against each drawn bound.
ONE_LITERAL = _one_literal_sets()


def _row():
    return st.fixed_dictionaries({name: DOMAINS[name][0] for name in ("i", "f", "s")})


#: A unit: its partition value and its rows.
UNITS = st.lists(
    st.tuples(DOMAINS["p"][0], st.lists(_row(), max_size=4)), min_size=1, max_size=5
)


@st.composite
def constraint_sets(draw, in_set_nulls=True):
    """One non-trivial constraint on each of one or two columns."""
    cs = ConstraintSet()
    for column in draw(st.lists(st.sampled_from(sorted(DOMAINS)), min_size=1, max_size=2, unique=True)):
        literal = DOMAINS[column][1]
        items = st.none() | literal if in_set_nulls else literal
        constraint = ColumnConstraint(
            lo=draw(st.none() | literal),
            hi=draw(st.none() | literal),
            in_set=draw(st.none() | st.frozensets(items, max_size=3)),
        )
        assume(not (constraint.lo is None and constraint.hi is None and constraint.in_set is None))
        cs.add(column, constraint)
    return cs


# -- the rows' side: what the engine would answer -------------------------------


def _as_engine(a, b):
    """The pair as the engine compares it: an int and a float as floats."""
    if isinstance(a, str) or isinstance(b, str) or isinstance(a, float) == isinstance(b, float):
        return a, b
    return float(a), float(b)


def _satisfies(value, constraint: ColumnConstraint) -> bool:
    if value is None:
        return False
    if constraint.lo is not None:
        a, b = _as_engine(value, constraint.lo)
        if not a >= b:
            return False
    if constraint.hi is not None:
        a, b = _as_engine(value, constraint.hi)
        if not a <= b:
            return False
    if constraint.in_set is not None:
        return any(v is not None and _equal(value, v) for v in constraint.in_set)
    return True


def _equal(a, b) -> bool:
    a, b = _as_engine(a, b)
    return a == b


def _matching(rows, partition, cs: ConstraintSet) -> list[dict]:
    return [
        row for row in rows
        if all(_satisfies({**row, "p": partition}[column], c) for column, c in cs)
    ]


# -- the units as each kind holds them -------------------------------------------


def _footer(rows) -> pqs.FileFooter:
    batch = batch_from_pydict(SCHEMA, {n: [r[n] for r in rows] for n in SCHEMA.names()})
    return pqs.read_footer(pqs.write_table(SCHEMA, [batch]))


def _entries(units) -> list[FileEntry]:
    return [
        entry_from_footer(f"b/u{k}.pqs", 100, _footer(rows), {"p": partition})
        for k, (partition, rows) in enumerate(units)
    ]


def _entries_with_nan_bounds(units) -> list[FileEntry]:
    """Entries whose bounds propagate NaN, as ``Column.min_max`` does."""
    entries = []
    for k, (partition, rows) in enumerate(units):
        batch = batch_from_pydict(SCHEMA, {n: [r[n] for r in rows] for n in SCHEMA.names()})
        stats = tuple(
            (name, ColumnStats(*batch.column(name).min_max(), batch.column(name).null_count()))
            for name in SCHEMA.names()
        )
        entries.append(FileEntry(
            file_path=f"b/u{k}.pqs", size_bytes=100, row_count=len(rows),
            partition_values=(("p", partition),), column_stats=stats,
        ))
    return entries


def _one_footer(units) -> pqs.FileFooter:
    """One file holding each unit as a row group."""
    groups = [_footer(rows).row_groups[0] for _, rows in units]
    return pqs.FileFooter(SCHEMA, groups, sum(g.num_rows for g in groups))


_prefixes = itertools.count()


def _iceberg_scan(entries: list[FileEntry], cs: ConstraintSet) -> list[str]:
    store = ObjectStore(GCP_US, SimContext())
    store.create_bucket("lake")
    table = IcebergTable.create(store, "lake", f"w/t{next(_prefixes)}", SCHEMA, ["p"])
    table.commit_append([_data_file(e) for e in entries])
    return [info.path for info in table.scan(cs)]


def _data_file(entry: FileEntry) -> DataFileInfo:
    return DataFileInfo(
        path=entry.file_path, file_size=entry.size_bytes, record_count=entry.row_count,
        partition=entry.partition_values,
        bounds=tuple(
            (name, (s.min_value, s.max_value, s.null_count)) for name, s in entry.column_stats
        ),
    )


def _partition_mask(units, cs: ConstraintSet) -> list[bool]:
    """The listing path's check: partition values alone."""
    return can_match(cs, StatsTable.build((0, (("p", p),), ()) for p, _ in units))


def _service_paths(entries: list[FileEntry], cs: ConstraintSet) -> tuple[set, set]:
    """Survivors by tail replay, then by the compacted baseline."""
    service = BigMetadataService(SimContext(), tail_compaction_threshold=10**9)
    service.register_table("t")
    service.commit("t", added=entries)
    replayed = {e.file_path for e in service.prune("t", cs)}
    service.compact_baseline("t")
    return replayed, {e.file_path for e in service.prune("t", cs)}


# -- soundness ----------------------------------------------------------------------


def _cheap_kinds(units, entries) -> dict:
    """unit kind -> its keep-mask for a ConstraintSet, for the kinds that
    need no object store."""
    footer = _one_footer(units)
    nan_bounds = entry_stats(_entries_with_nan_bounds(units))

    def files(cs):
        kept = {e.file_path for e in prune_entries(entries, cs)}
        return [e.file_path in kept for e in entries]

    def row_groups(cs):
        groups = set(surviving_row_groups(footer, cs))
        return [k in groups for k in range(len(units))]

    return {
        "file": files,
        "file, NaN bounds": lambda cs: can_match(cs, nan_bounds),
        "row group": row_groups,
        "partition": lambda cs: _partition_mask(units, cs),
    }


@settings(deadline=None)
@given(units=UNITS, cs=constraint_sets())
def test_a_pruned_unit_holds_no_matching_row(units, cs):
    entries = _entries(units)
    kept = {e.file_path for e in prune_entries(entries, cs)}
    assert _service_paths(entries, cs) == (kept, kept)
    scanned = set(_iceberg_scan(entries, cs))
    masks = [(cs, "Iceberg data file", [e.file_path in scanned for e in entries])]
    kinds = _cheap_kinds(units, entries)
    for constraints in [cs, *ONE_LITERAL]:
        masks.extend((constraints, kind, mask(constraints)) for kind, mask in kinds.items())
    for constraints, kind, mask in masks:
        for (partition, rows), keep in zip(units, mask):
            if not keep:
                assert not _matching(rows, partition, constraints), (kind, constraints, rows)


def test_a_nan_and_null_chunk_has_no_bounds_and_is_kept():
    footer = _footer([{"i": 1, "f": math.nan, "s": None}, {"i": 2, "f": None, "s": None}])
    chunk = footer.row_groups[0].column("f")
    assert (chunk.min_value, chunk.max_value, chunk.null_count) == (None, None, 1)
    cs = ConstraintSet()
    cs.add("f", ColumnConstraint(lo=1.0, hi=1.0, in_set=frozenset({1.0})))
    assert can_match(cs, entry_stats([entry_from_footer("b/x.pqs", 1, footer)])) == [True]


def test_bounds_leave_nan_out():
    footer = _footer([{"i": 1, "f": 1.0, "s": "a"}, {"i": 2, "f": math.nan, "s": "b"}])
    chunk = footer.row_groups[0].column("f")
    assert (chunk.min_value, chunk.max_value) == (1.0, 1.0)


# -- power: no weaker than the evaluators it replaced -------------------------------


def _nan_free(units, cs: ConstraintSet) -> bool:
    """No NaN anywhere, and an int meets a float only where both compare
    exactly as floats (the old evaluators compared them exactly)."""
    for column, constraint in cs:
        literals = [constraint.lo, constraint.hi, *(constraint.in_set or ())]
        if column == "p":
            values = [p for p, _ in units]
        else:
            values = [row[column] for _, rows in units for row in rows]
        numbers = [v for v in literals + values if isinstance(v, (int, float))]
        if any(v != v for v in numbers):
            return False
        mixed = {type(v) for v in numbers} >= {int, float}
        if mixed and any(isinstance(v, int) and abs(v) > BIG for v in numbers):
            return False
    return not any(
        row["f"] is not None and math.isnan(row["f"]) for _, rows in units for row in rows
    )


@settings(deadline=None)
@given(units=UNITS, cs=constraint_sets(in_set_nulls=False))
def test_keeps_nothing_an_old_evaluator_pruned(units, cs):
    entries = _entries(units)
    if _nan_free(units, cs):
        old_iceberg = {e.file_path for e in entries if ref._matches(_data_file(e), cs)}
        assert set(_iceberg_scan(entries, cs)) <= old_iceberg
    footer = _one_footer(units)
    kinds = _cheap_kinds(units, entries)
    for constraints in [cs, *ONE_LITERAL]:
        if not _nan_free(units, constraints):
            continue
        new = {kind: mask(constraints) for kind, mask in kinds.items()}
        old = {
            "file": [ref._entry_matches(e, constraints) for e in entries],
            "row group": [
                k in set(ref.surviving_row_groups(footer, constraints))
                for k in range(len(units))
            ],
            "partition": [ref._partition_admits({"p": p}, constraints) for p, _ in units],
        }
        old_columnar = ref.ColumnarBaselineIndex(entries).candidate_mask(constraints)
        for kind, mask in old.items():
            assert all(o or not k for k, o in zip(new[kind], mask)), (kind, constraints)
        assert all(o or not k for k, o in zip(new["file"], old_columnar)), constraints
