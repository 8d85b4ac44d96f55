"""Vectorized physical operators and the plan executor."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.data.batch import RecordBatch, batch_from_rows, concat_batches
from repro.data.column import Column
from repro.data.types import DataType, Schema
from repro.errors import ExecutionError
from repro.metastore.constraints import ColumnConstraint, ConstraintSet
from repro.sql import ast_nodes as ast
from repro.sql.expressions import Binder, evaluate, evaluate_predicate, membership
from repro.sql.printer import strip_qualifiers

from repro.engine.plan import (
    AggregateNode,
    AggSpec,
    DistinctNode,
    FilterNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
    SystemTableNode,
    TvfNode,
    UnionAllNode,
    ValuesNode,
)

# Build sides larger than this skip dynamic partition pruning (the IN-set
# would be too large to be useful as a pruning predicate).
_DPP_MAX_KEYS = 10_000


def _charge_compute(ctx: "ExecContext", rows: int, us_per_row: float) -> None:
    """Record operator CPU work (drives the simulated elapsed model)."""
    if rows <= 0:
        return
    work_ms = rows * us_per_row / 1000.0
    ctx.stats.compute_ms += work_ms
    ctx.engine.ctx.clock.advance(work_ms)


@dataclass
class ExecContext:
    """Everything operators need at runtime."""

    engine: "Any"  # QueryEngine (typed loosely to avoid a cycle)
    principal: Any
    stats: Any  # QueryStats
    dpp_enabled: bool = True
    snapshot_ms: float | None = None
    # Dynamic partition pruning's IN-sets for this execution, by id() of the
    # probe ScanNode they restrict: the plan itself is never written to.
    dpp_constraints: dict[int, ConstraintSet] = field(default_factory=dict)


def execute_plan(node: PlanNode, ctx: ExecContext) -> list[RecordBatch]:
    """Execute a plan subtree, returning its batches.

    With tracing enabled each node gets an ``engine.<op>`` span whose
    sim-time duration covers the node *and* its inputs; per-layer
    breakdowns use self-time, so nested scans still attribute their IO
    to the storage layers below.
    """
    tracer = ctx.engine.ctx.tracer
    if not tracer.enabled:
        return _dispatch_plan_node(node, ctx)
    op = type(node).__name__.removesuffix("Node").lower()
    with tracer.span(f"engine.{op}", layer="engine") as span:
        batches = _dispatch_plan_node(node, ctx)
        span.set_tag("rows_out", sum(b.num_rows for b in batches))
        return batches


def _dispatch_plan_node(node: PlanNode, ctx: ExecContext) -> list[RecordBatch]:
    if isinstance(node, ScanNode):
        return _execute_scan(node, ctx)
    if isinstance(node, SystemTableNode):
        return _execute_system_table(node, ctx)
    if isinstance(node, FilterNode):
        return _execute_filter(node, ctx)
    if isinstance(node, ProjectNode):
        return _execute_project(node, ctx)
    if isinstance(node, AggregateNode):
        return _execute_aggregate(node, ctx)
    if isinstance(node, JoinNode):
        return _execute_join(node, ctx)
    if isinstance(node, SortNode):
        return _execute_sort(node, ctx)
    if isinstance(node, LimitNode):
        return _execute_limit(node, ctx)
    if isinstance(node, DistinctNode):
        return _execute_distinct(node, ctx)
    if isinstance(node, UnionAllNode):
        return _execute_union(node, ctx)
    if isinstance(node, TvfNode):
        return ctx.engine.execute_tvf(node, ctx)
    if isinstance(node, ValuesNode):
        return _execute_values(node, ctx)
    raise ExecutionError(f"cannot execute plan node {type(node).__name__}")


# --------------------------------------------------------------------------
# Scan
# --------------------------------------------------------------------------


def _execute_scan(node: ScanNode, ctx: ExecContext) -> list[RecordBatch]:
    restriction = _scan_restriction(node, ctx)
    engine = ctx.engine
    # External connectors (executor_per_stream) request a fixed executor
    # count and schedule one task per stream; the home engine keeps one
    # task per file.
    per_stream = engine.executor_per_stream
    max_streams = (engine.scan_streams or engine.slots) if per_stream else engine.slots
    t0 = engine.ctx.clock.now_ms
    session = engine.read_api.create_read_session(
        principal=ctx.principal,
        table=node.table,
        columns=node.columns,
        row_restriction=restriction,
        snapshot_ms=node.snapshot_ms or ctx.snapshot_ms,
        max_streams=max_streams,
        engine_location=engine.remote_location_for(node.table),
        use_row_oriented_reader=engine.use_row_oriented_reader,
        aggregates=node.pushed_aggregates or None,
    )
    if per_stream:
        # Connector handoff: executors join through the serialized wire
        # handle, never through a live session reference.
        session = engine.read_api.attach(session.serialize())
    ctx.stats.planning_ms += engine.ctx.clock.now_ms - t0
    # Per-task cost estimates for the slot scheduler, taken *before* the
    # scan runs (planning-time knowledge: file sizes + cache residency).
    # Read-api stand-ins (e.g. the Spark direct reader) may not offer them;
    # the scheduler then falls back to a uniform split.
    estimator = getattr(engine.read_api, "estimate_task_costs", None)
    task_costs = estimator(session) if estimator is not None else None
    t1 = engine.ctx.clock.now_ms
    batches: list[RecordBatch] = []
    for stream_index in range(len(session.streams)):
        batches.extend(_run_stream_task(engine, session, stream_index))
    scan_ms = engine.ctx.clock.now_ms - t1
    if per_stream:
        # One executor per stream: fold the per-file estimates into
        # per-stream task costs (estimates come out in stream order).
        tasks = max(1, len(session.streams))
        if task_costs:
            grouped, start = [], 0
            for stream in session.streams:
                stop = start + len(stream.files)
                grouped.append(sum(task_costs[start:stop]))
                start = stop
            task_costs = grouped
    else:
        tasks = max(1, session.stats.files_after_pruning)
    ctx.stats.record_scan(
        session.stats, scan_ms, tasks,
        stage=node.table.table_id, task_costs=task_costs,
    )
    current = engine.ctx.tracer.current
    if current is not None:
        current.set_tag("table", node.table.table_id)
        current.add_tag("bytes_scanned", session.stats.bytes_scanned)
    if node.pushed_aggregates:
        # Partial-aggregate rows already carry the scan's output names.
        return batches
    # Rename plain session output to the (possibly qualified) scan schema.
    out_names = node.schema.names()
    renamed = []
    for batch in batches:
        ordered = batch.select(node.columns)
        renamed.append(ordered.rename(out_names))
    return renamed


def _run_stream_task(engine, session, stream_index: int) -> list[RecordBatch]:
    """One worker task: drain a stream, with task-level retry.

    The ``engine.task`` hazard point models a worker restart killing the
    task; the retry re-runs the whole stream read. Batches are buffered
    per attempt, so a mid-stream failure never leaks duplicate rows into
    the query — and session stats are snapshotted per attempt, so the
    failed attempt's partial progress (bytes/rows counted mid-stream) is
    rolled back instead of double-counted by the re-execution.
    """
    ctx = engine.ctx

    def attempt() -> tuple[list[RecordBatch], int]:
        ctx.faults.check("engine.task", engine=engine.name, stream=stream_index)
        snap = session.stats.snapshot()
        stream = session.streams[stream_index]
        # Reads advance the stream's consumption cursor; a retried attempt
        # must rewind it with the stats or the re-run starts mid-stream.
        progress = stream.progress_snapshot()
        try:
            collected: list[RecordBatch] = []
            rows = 0
            for batch in engine.read_api.read_rows(session, stream_index):
                rows += batch.num_rows
                collected.append(batch)
        except BaseException:
            session.stats.restore(snap)
            stream.restore_progress(progress)
            raise
        return collected, rows

    with ctx.tracer.span(
        "read_api.read_rows", layer="storageapi", stream=stream_index
    ) as span:
        collected, rows = ctx.with_retry("engine.task", attempt)
        span.set_tag("rows", rows)
    return collected


def _execute_system_table(node: SystemTableNode, ctx: ExecContext) -> list[RecordBatch]:
    """Materialize an INFORMATION_SCHEMA table under the querying principal.

    Governance (per-principal job visibility, admin-only audit access)
    lives in the provider, not here — the engine is untrusted with respect
    to observability data just as it is with table data (§3.2)."""
    engine = ctx.engine
    provider = engine.system_tables
    if provider is None:
        raise ExecutionError(
            f"INFORMATION_SCHEMA.{node.name} requires a platform-wired engine"
        )
    t0 = engine.ctx.clock.now_ms
    with engine.ctx.tracer.span(
        "system_tables.scan", layer="obs", table=node.name
    ) as span:
        # System tables read control-plane state: charge one metadata
        # lookup rather than object-store scan costs.
        engine.ctx.charge("system_tables.scan", engine.ctx.costs.bigmeta_lookup_ms)
        rows = provider.scan(node.name, ctx.principal)
        span.set_tag("rows", len(rows))
    ctx.stats.planning_ms += engine.ctx.clock.now_ms - t0
    batch = batch_from_rows(node.base_schema, rows)
    if node.schema.names() != node.base_schema.names():
        batch = batch.rename(node.schema.names())
    return [batch]


def _scan_restriction(node: ScanNode, ctx: ExecContext) -> ast.Expr | None:
    """The scan's row restriction as the Read API takes it from an
    in-process caller: the conjunction of the pushed filters and this
    execution's dynamic-pruning constraints on the node, as a tree."""
    clauses = [strip_qualifiers(f) for f in node.pushed_filters]
    for name, constraint in ctx.dpp_constraints.get(id(node), ()):
        column = ast.ColumnRef((name,))
        if constraint.in_set is not None:
            # Sorted, so the text a connector's handle carries is stable.
            # Two joins on one column can leave no key in common: no row.
            items = tuple(map(ast.Literal, sorted(constraint.in_set)))
            clauses.append(ast.InList(column, items) if items else ast.Literal(False))
            continue
        if constraint.lo is not None:
            clauses.append(ast.BinaryOp(">=", column, ast.Literal(constraint.lo)))
        if constraint.hi is not None:
            clauses.append(ast.BinaryOp("<=", column, ast.Literal(constraint.hi)))
    return ast.conjoin(clauses)


# --------------------------------------------------------------------------
# Row-level operators
# --------------------------------------------------------------------------


def _execute_filter(node: FilterNode, ctx: ExecContext) -> list[RecordBatch]:
    batches = execute_plan(node.child, ctx)
    if not batches:
        return []
    bound = Binder(node.child.schema, ctx.engine.functions).bind(node.predicate)
    out = []
    for batch in batches:
        mask = evaluate_predicate(bound, batch)
        filtered = batch.filter(mask)
        if filtered.num_rows:
            out.append(filtered)
    return out


def _execute_project(node: ProjectNode, ctx: ExecContext) -> list[RecordBatch]:
    batches = execute_plan(node.child, ctx)
    binder = Binder(node.child.schema, ctx.engine.functions)
    bound = [binder.bind(expr) for expr, _ in node.items]
    out = []
    for batch in batches:
        columns = [evaluate(b, batch) for b in bound]
        out.append(RecordBatch(node.schema, columns))
    return out


def _execute_values(node: ValuesNode, ctx: ExecContext) -> list[RecordBatch]:
    if not node.schema.fields:
        # FROM-less SELECT: one placeholder row; projections evaluate
        # literals against it.
        return [_one_row_batch()]
    binder = None
    rows = []
    for row_exprs in node.rows:
        # Plain literals (the overwhelmingly common INSERT ... VALUES case)
        # skip the bind/evaluate machinery entirely; typed literals
        # (DATE/TIMESTAMP hints) still need the binder's conversion.
        if all(isinstance(e, ast.Literal) and e.type_hint is None for e in row_exprs):
            rows.append(tuple(e.value for e in row_exprs))
            continue
        if binder is None:
            binder = Binder(Schema(()), ctx.engine.functions)
        one = _one_row_batch()
        rows.append(tuple(evaluate(binder.bind(e), one)[0] for e in row_exprs))
    return [batch_from_rows(node.schema, rows)]


def _one_row_batch() -> RecordBatch:
    schema = Schema.of(("$dummy", DataType.INT64))
    return RecordBatch(schema, [Column(DataType.INT64, [0])])


def _execute_limit(node: LimitNode, ctx: ExecContext) -> list[RecordBatch]:
    batches = execute_plan(node.child, ctx)
    out = []
    remaining = node.limit
    for batch in batches:
        if remaining <= 0:
            break
        if batch.num_rows <= remaining:
            out.append(batch)
            remaining -= batch.num_rows
        else:
            out.append(batch.slice(0, remaining))
            remaining = 0
    return out


def _execute_union(node: UnionAllNode, ctx: ExecContext) -> list[RecordBatch]:
    out: list[RecordBatch] = []
    names = node.schema.names()
    for child in node.inputs:
        for batch in execute_plan(child, ctx):
            out.append(batch.rename(names))
    return out


# --------------------------------------------------------------------------
# Row-key factorization (shared by join / DISTINCT / GROUP BY)
#
# Multi-column keys are reduced to one int64 code per row via np.unique so
# that equal codes correspond *exactly* to key tuples that compare equal as
# python tuples (NULL == NULL, NULL != any value, every NaN its own key,
# 1 == 1.0 == True, 'a' != b'a'), which is what the row-at-a-time oracles
# in tests/reference_operators.py compute. The one divergence: an INT64 key
# against a FLOAT64 key is compared in float64, so integers above 2**53
# match the float they round to where python compares them exactly.
# --------------------------------------------------------------------------


def _column_codes(columns: list[Column]) -> np.ndarray:
    """Factorize the concatenation of same-position key columns to codes.

    Valid values get codes >= 0 (equal value <=> equal code, shared across
    all the given columns); NULLs get -1. Values can only be equal within a
    family — the fixed-width dtypes promote to one numeric array, STRING
    and BYTES each stand alone — so families are factorized apart and
    their code ranges kept disjoint.
    """
    valid = np.concatenate([c.is_valid() for c in columns])
    lengths = [len(c) for c in columns]
    families = [c.dtype if c.dtype.is_variable_width else None for c in columns]
    codes = np.full(len(valid), -1, dtype=np.int64)
    base = 0
    for family in dict.fromkeys(families):
        member = [f is family for f in families]
        present = np.concatenate(
            [c.values[c.is_valid()] for c, m in zip(columns, member) if m]
        )
        if present.size:
            # equal_nan=False: NaN != NaN, as python float equality has it.
            uniques, inverse = np.unique(present, return_inverse=True, equal_nan=False)
            codes[valid & np.repeat(member, lengths)] = inverse + base
            base += len(uniques)
    return codes


def _combine_codes(code_arrays: list[np.ndarray]) -> np.ndarray:
    """Fold per-column codes into one code per row (NULL folds in as 0).

    Each step re-factorizes the running code so magnitudes stay bounded by
    the row count — no overflow for any realistic batch."""
    combined = code_arrays[0] + 1
    for codes in code_arrays[1:]:
        if combined.size == 0:
            return combined
        c = codes + 1
        _, combined = np.unique(combined, return_inverse=True)
        combined = combined.astype(np.int64) * (int(c.max()) + 1) + c
    return combined


def _row_codes(columns: list[Column]) -> np.ndarray:
    """One int64 code per row for a multi-column key."""
    return _combine_codes([_column_codes([col]) for col in columns])


def _join_key_codes(
    build_cols: list[Column], probe_cols: list[Column], build_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Shared (build_codes, probe_codes) for equi-join keys."""
    combined = _combine_codes(
        [_column_codes([bcol, pcol]) for bcol, pcol in zip(build_cols, probe_cols)]
    )
    return combined[:build_rows], combined[build_rows:]


def _keys_valid(key_cols: list[Column], rows: int) -> np.ndarray:
    """Rows whose key has no NULL component (the only rows that can match)."""
    valid = np.ones(rows, dtype=bool)
    for col in key_cols:
        valid &= col.is_valid()
    return valid


def _hash_join_indices(
    build_codes: np.ndarray,
    probe_codes: np.ndarray,
    build_valid: np.ndarray,
    probe_valid: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized equi-join match enumeration.

    Emits (probe_indices, build_indices) in probe-major order with build
    indices ascending within each probe row — the exact order the naive
    dict-of-lists build/probe loops produce."""
    build_rows = np.flatnonzero(build_valid)
    order = np.argsort(build_codes[build_rows], kind="stable")
    sorted_codes = build_codes[build_rows][order]
    sorted_build = build_rows[order]
    probe_rows = np.flatnonzero(probe_valid)
    pcodes = probe_codes[probe_rows]
    left = np.searchsorted(sorted_codes, pcodes, side="left")
    right = np.searchsorted(sorted_codes, pcodes, side="right")
    counts = right - left
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    probe_indices = np.repeat(probe_rows, counts)
    # Per-match offset into each probe row's [left, right) run of builds.
    segment_starts = np.cumsum(counts) - counts
    within = np.arange(total, dtype=np.int64) - np.repeat(segment_starts, counts)
    build_indices = sorted_build[np.repeat(left, counts) + within]
    return probe_indices.astype(np.int64), build_indices.astype(np.int64)


def _execute_distinct(node: DistinctNode, ctx: ExecContext) -> list[RecordBatch]:
    batches = execute_plan(node.child, ctx)
    if not batches:
        return []
    combined = concat_batches(node.child.schema, batches)
    if combined.num_rows == 0:
        return []
    return [combined.take(_first_occurrences(_row_codes(list(combined.columns))))]


def _first_occurrences(codes: np.ndarray) -> np.ndarray:
    """Index of the first row carrying each distinct code, in row order."""
    _, first_index = np.unique(codes, return_index=True)
    first_index.sort()
    return first_index.astype(np.int64)


def _execute_sort(node: SortNode, ctx: ExecContext) -> list[RecordBatch]:
    batches = execute_plan(node.child, ctx)
    if not batches:
        return []
    combined = concat_batches(node.child.schema, batches)
    binder = Binder(node.child.schema, ctx.engine.functions)
    key_columns = [
        (evaluate(binder.bind(expr), combined).to_pylist(), ascending)
        for expr, ascending in node.keys
    ]

    def sort_key(i: int):
        parts = []
        for values, ascending in key_columns:
            value = values[i]
            # NULLs first ascending, last descending (BigQuery default).
            null_rank = 0 if value is None else 1
            if not ascending:
                null_rank = -null_rank
            parts.append((null_rank, _Reversed(value) if not ascending else _orderable(value)))
        return tuple(parts)

    order = sorted(range(combined.num_rows), key=sort_key)
    return [combined.take(np.asarray(order, dtype=np.int64))]


class _Reversed:
    """Wrap a value so ascending sort yields descending order."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = _orderable(value)

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other) -> bool:
        return isinstance(other, _Reversed) and self.value == other.value


def _orderable(value):
    return 0 if value is None else value


# --------------------------------------------------------------------------
# Aggregation
# --------------------------------------------------------------------------


def _execute_aggregate(node: AggregateNode, ctx: ExecContext) -> list[RecordBatch]:
    batches = execute_plan(node.child, ctx)
    combined = concat_batches(node.child.schema, batches)
    binder = Binder(node.child.schema, ctx.engine.functions)
    n = combined.num_rows
    _charge_compute(ctx, n, ctx.engine.ctx.costs.aggregate_cpu_us_per_row)

    if node.group_items:
        key_columns = [evaluate(binder.bind(expr), combined) for expr, _ in node.group_items]
        gid, keys_in_order = _group_keys(key_columns)
        num_groups = len(keys_in_order)
        if num_groups == 0:
            return []
    else:
        gid = np.zeros(n, dtype=np.int64)
        keys_in_order = [()]
        num_groups = 1

    out_columns: list[Column] = []
    for j, (_, name) in enumerate(node.group_items):
        dtype = node.schema.field(name).dtype
        out_columns.append(
            Column.from_pylist(dtype, [key[j] for key in keys_in_order])
        )
    for spec in node.aggregates:
        arg = evaluate(binder.bind(spec.arg), combined) if spec.arg is not None else None
        out_columns.append(_aggregate(spec, arg, gid, num_groups, n))
    return [RecordBatch(node.schema, out_columns)]


def _group_keys(key_columns: list[Column]) -> tuple[np.ndarray, list[tuple]]:
    """Materialize GROUP BY keys: per-row group ids (numbered in first-seen
    order) plus each group's key tuple, first-seen order preserved."""
    codes = _row_codes(key_columns)
    _, first_index, inverse = np.unique(codes, return_index=True, return_inverse=True)
    # Rank the unique codes by first appearance so gid 0 is the first key
    # seen, exactly like a dict numbering keys as it meets them.
    order = np.argsort(first_index, kind="stable")
    rank = np.empty(len(first_index), dtype=np.int64)
    rank[order] = np.arange(len(first_index), dtype=np.int64)
    gid = rank[inverse.reshape(-1)]
    first_rows = first_index[order].astype(np.int64)
    rep_lists = [c.take(first_rows).to_pylist() for c in key_columns]
    keys_in_order = list(zip(*rep_lists)) if rep_lists else []
    return gid, keys_in_order


def _aggregate(spec: AggSpec, arg: Column | None, gid: np.ndarray, groups: int, n: int) -> Column:
    if spec.func == "COUNT":
        if arg is None:  # COUNT(*)
            counts = np.bincount(gid, minlength=groups) if n else np.zeros(groups, dtype=np.int64)
            return Column(DataType.INT64, counts.astype(np.int64))
        valid = arg.is_valid()
        if spec.distinct:
            seen: list[set] = [set() for _ in range(groups)]
            values = arg.to_pylist()
            for i in range(n):
                if valid[i]:
                    seen[gid[i]].add(values[i])
            return Column(DataType.INT64, np.asarray([len(s) for s in seen], dtype=np.int64))
        counts = np.bincount(gid[valid], minlength=groups) if n else np.zeros(groups)
        return Column(DataType.INT64, counts.astype(np.int64))

    if arg is None:
        raise ExecutionError(f"{spec.func}() requires an argument")
    valid = arg.is_valid()
    group_has_value = np.zeros(groups, dtype=bool)
    if n:
        np.logical_or.at(group_has_value, gid[valid], True)
    validity = None if bool(group_has_value.all()) else group_has_value

    if spec.func in ("SUM", "AVG"):
        values = arg.values.astype(np.float64)
        sums = (
            np.bincount(gid[valid], weights=values[valid], minlength=groups)
            if n
            else np.zeros(groups)
        )
        if spec.func == "AVG":
            counts = np.bincount(gid[valid], minlength=groups) if n else np.zeros(groups)
            with np.errstate(invalid="ignore", divide="ignore"):
                result = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
            return Column(DataType.FLOAT64, result, validity)
        if spec.dtype is DataType.INT64:
            return Column(DataType.INT64, np.round(sums).astype(np.int64), validity)
        return Column(DataType.FLOAT64, sums, validity)

    if spec.func in ("MIN", "MAX"):
        if arg.dtype.is_variable_width:
            best: list[Any] = [None] * groups
            values = arg.to_pylist()
            for i in range(n):
                if not valid[i]:
                    continue
                g = gid[i]
                v = values[i]
                if best[g] is None:
                    best[g] = v
                elif spec.func == "MIN":
                    best[g] = min(best[g], v)
                else:
                    best[g] = max(best[g], v)
            return Column.from_pylist(arg.dtype, best)
        if spec.func == "MIN":
            init = np.inf
            out = np.full(groups, init, dtype=np.float64)
            if n:
                np.minimum.at(out, gid[valid], arg.values[valid].astype(np.float64))
        else:
            out = np.full(groups, -np.inf, dtype=np.float64)
            if n:
                np.maximum.at(out, gid[valid], arg.values[valid].astype(np.float64))
        out = np.where(group_has_value, out, 0.0)
        if spec.dtype in (DataType.INT64, DataType.TIMESTAMP, DataType.DATE):
            return Column(spec.dtype, out.astype(np.int64), validity)
        if spec.dtype is DataType.BOOL:
            return Column(spec.dtype, out.astype(bool), validity)
        return Column(DataType.FLOAT64, out, validity)

    raise ExecutionError(f"unknown aggregate {spec.func}")


# --------------------------------------------------------------------------
# Joins
# --------------------------------------------------------------------------


def _execute_join(node: JoinNode, ctx: ExecContext) -> list[RecordBatch]:
    if node.kind == "CROSS":
        return _execute_cross_join(node, ctx)
    if not node.equi_keys:
        # Non-equi inner join: cross join + residual filter.
        batches = _execute_cross_join(node, ctx)
        if node.residual is None:
            return batches
        bound = Binder(node.schema, ctx.engine.functions).bind(node.residual)
        return [b.filter(evaluate_predicate(bound, b)) for b in batches]

    # Build first so dynamic partition pruning can inform the probe-side
    # scan (§3.4). An inner join builds on the side estimated smaller; LEFT
    # probes with the left side to preserve all its rows; IN / NOT IN
    # (SEMI / ANTI) build on the subquery, the right side.
    build_is_left = False
    if node.kind == "INNER":
        from repro.engine.optimizer import estimate_rows

        stats_provider = ctx.engine.stats_provider
        build_is_left = estimate_rows(node.left, stats_provider) <= estimate_rows(
            node.right, stats_provider
        )
    build_node = node.left if build_is_left else node.right
    probe_node = node.right if build_is_left else node.left
    build_keys = [l if build_is_left else r for l, r in node.equi_keys]
    probe_keys = [r if build_is_left else l for l, r in node.equi_keys]

    build, build_key_cols = _execute_join_side(build_node, build_keys, ctx)
    if node.kind == "ANTI" and any(c.null_count() > 0 for c in build_key_cols):
        # NOT IN over a set holding a NULL is never TRUE (see membership):
        # decided before the probe side runs, so its scan is never charged.
        return []
    if ctx.dpp_enabled and node.kind in ("INNER", "SEMI"):
        # Pruning the probe scan to the build keys is unsound where
        # non-matching probe rows are output: LEFT and ANTI.
        _apply_dynamic_partition_pruning(probe_node, probe_keys, build_key_cols, ctx)
    probe, probe_key_cols = _execute_join_side(probe_node, probe_keys, ctx)

    # Factorize the keys to shared int codes; NULL keys match nothing.
    build_valid = _keys_valid(build_key_cols, build.num_rows)
    probe_valid = _keys_valid(probe_key_cols, probe.num_rows)
    build_codes, probe_codes = _join_key_codes(
        build_key_cols, probe_key_cols, build.num_rows
    )
    if node.kind in ("SEMI", "ANTI"):
        hits = np.isin(probe_codes, build_codes[build_valid])
        has_null, empty = not build_valid.all(), not build.num_rows
        keep = membership(hits, probe_valid, has_null, empty, negated=node.kind == "ANTI")
        result = probe.filter(keep.values & keep.is_valid())
        return [result] if result.num_rows else []
    probe_idx_array, build_idx_array = _hash_join_indices(
        build_codes, probe_codes, build_valid, probe_valid
    )

    probe_taken = probe.take(probe_idx_array)
    build_taken = build.take(build_idx_array)
    if build_is_left:
        joined = _concat_columns(node.schema, build_taken, probe_taken)
    else:
        joined = _concat_columns(node.schema, probe_taken, build_taken)

    if node.residual is not None and joined.num_rows:
        bound = Binder(node.schema, ctx.engine.functions).bind(node.residual)
        keep = evaluate_predicate(bound, joined)
        joined = joined.filter(keep)
        probe_idx_array = probe_idx_array[keep]

    results = [joined] if joined.num_rows else []
    if node.kind == "LEFT":
        # Probe rows with no *surviving* match get NULL-extended output.
        matched = np.zeros(probe.num_rows, dtype=bool)
        matched[probe_idx_array] = True
        unmatched_probe = np.flatnonzero(~matched)
        if unmatched_probe.size:
            left_rows = probe.take(unmatched_probe.astype(np.int64))
            null_right = RecordBatch(
                build_node.schema,
                [Column.nulls(f.dtype, left_rows.num_rows) for f in build_node.schema],
            )
            results.append(_concat_columns(node.schema, left_rows, null_right))
    return results


def _execute_join_side(
    side: PlanNode, keys: list[ast.Expr], ctx: ExecContext
) -> tuple[RecordBatch, list[Column]]:
    """Run one input of a keyed join: its rows as one batch plus its
    evaluated key columns, charged as join CPU."""
    rows = concat_batches(side.schema, execute_plan(side, ctx))
    binder = Binder(side.schema, ctx.engine.functions)
    key_cols = [evaluate(binder.bind(k), rows) for k in keys]
    _charge_compute(ctx, rows.num_rows, ctx.engine.ctx.costs.join_cpu_us_per_row)
    return rows, key_cols


def _apply_dynamic_partition_pruning(
    probe_node: PlanNode,
    probe_keys: list[ast.Expr],
    build_key_cols: list[Column],
    ctx: ExecContext,
) -> None:
    """Feed distinct build-side keys into the probe scan as IN constraints.

    This is the optimization the read-session statistics unlock for
    snowflake joins (§3.4): the probe scan's file pruning sees the concrete
    dimension keys instead of scanning every partition.
    """
    for key_expr, build_col in zip(probe_keys, build_key_cols):
        if not isinstance(key_expr, ast.ColumnRef):
            continue
        column = key_expr.parts[-1]
        # The probe side may be a join subtree whose fact scan has not
        # executed yet; locate the (unique) scan owning the key column.
        scan = _find_scan_for_column(probe_node, column)
        if scan is None:
            continue
        # The IN-set holds the keys that can make IN TRUE (see membership):
        # a NULL or NaN key matches nothing, so it is dropped. An infinite
        # or a BYTES one matches but has no SQL literal — the form the
        # restriction takes in a connector's session handle — so it is not
        # pruned on. Nor is a key whose type differs from the probe column's
        # (the planner casts the one of two keys whose type differs), as its
        # values are not in the column's unit.
        if build_col.dtype is DataType.BYTES or build_col.dtype is not scan.table.schema.field(column).dtype:
            continue
        values = {v for v in build_col.to_pylist() if v is not None and v == v}
        if (
            not values
            or len(values) > _DPP_MAX_KEYS
            or not values.isdisjoint((math.inf, -math.inf))
        ):
            continue
        ctx.dpp_constraints.setdefault(id(scan), ConstraintSet()).add(
            column, ColumnConstraint(in_set=frozenset(values))
        )
        ctx.stats.dpp_applied += 1


def _find_scan_for_column(node: PlanNode, column: str) -> ScanNode | None:
    """The unique un-executed scan (through filters and inner joins) whose
    base table carries ``column`` — the DPP injection target."""
    if isinstance(node, ScanNode):
        if node.table.schema.has_field(column):
            return node
        return None
    if isinstance(node, FilterNode):
        return _find_scan_for_column(node.child, column)
    if isinstance(node, JoinNode) and node.kind == "INNER":
        left = _find_scan_for_column(node.left, column)
        right = _find_scan_for_column(node.right, column)
        if left is not None and right is not None:
            return None  # ambiguous: refuse to prune
        return left or right
    return None


def _execute_cross_join(node: JoinNode, ctx: ExecContext) -> list[RecordBatch]:
    left = concat_batches(node.left.schema, execute_plan(node.left, ctx))
    right = concat_batches(node.right.schema, execute_plan(node.right, ctx))
    if left.num_rows == 0 or right.num_rows == 0:
        return []
    left_idx = np.repeat(np.arange(left.num_rows), right.num_rows)
    right_idx = np.tile(np.arange(right.num_rows), left.num_rows)
    return [
        _concat_columns(node.schema, left.take(left_idx), right.take(right_idx))
    ]


def _concat_columns(schema: Schema, left: RecordBatch, right: RecordBatch) -> RecordBatch:
    return RecordBatch(schema, list(left.columns) + list(right.columns))
