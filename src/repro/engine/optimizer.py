"""Plan rewrites: filter pushdown, column pruning, stats-based join order.

These are the optimizations the paper attributes its performance results
to: pushing predicates into Read API sessions so partition/file pruning can
act on them (§3.3), pruning projections, and — when table statistics are
available from Big Metadata (§3.4) — reordering joins by estimated
cardinality. Dynamic partition pruning happens at execution time in
:mod:`repro.engine.operators`.
"""

from __future__ import annotations

from typing import Callable

from repro.data.types import Schema
from repro.errors import AnalysisError
from repro.sql import ast_nodes as ast
from repro.sql.expressions import Binder, collect_column_refs

from repro.engine.plan import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
    UnionAllNode,
    ValuesNode,
)

# (scan) -> estimated row count, or None when unknown.
StatsProvider = Callable[[ScanNode], float | None]

_DEFAULT_ROWS = 1_000_000.0
_FILTER_SELECTIVITY = 0.2


def optimize(
    plan: PlanNode,
    stats_provider: StatsProvider | None = None,
    use_stats: bool = False,
    aggregate_pushdown: bool = True,
) -> PlanNode:
    """Apply the rewrite pipeline and return the optimized plan."""
    plan = push_filters(plan)
    if use_stats and stats_provider is not None:
        plan = reorder_joins(plan, stats_provider)
    plan = prune_columns(plan)
    if aggregate_pushdown:
        plan = push_aggregates(plan)
    return plan


# --------------------------------------------------------------------------
# Filter pushdown
# --------------------------------------------------------------------------


def push_filters(plan: PlanNode) -> PlanNode:
    """Push WHERE conjuncts toward (and into) the scans that can answer
    them. Conjuncts absorbed by a scan ride in the read session's row
    restriction, where they drive partition/file/row-group pruning."""
    if isinstance(plan, FilterNode):
        child = push_filters(plan.child)
        remaining: list[ast.Expr] = []
        for conjunct in ast.conjuncts(plan.predicate):
            if not _try_push(child, conjunct):
                remaining.append(conjunct)
        if not remaining:
            return child
        return FilterNode(child=child, predicate=ast.conjoin(remaining), schema=child.schema)
    return plan.map_children(push_filters)


def _try_push(node: PlanNode, conjunct: ast.Expr) -> bool:
    refs = collect_column_refs(conjunct)
    if isinstance(node, ScanNode):
        if _binds(node.schema, refs):
            node.pushed_filters.append(conjunct)
            return True
        return False
    if isinstance(node, FilterNode):
        return _try_push(node.child, conjunct)
    if isinstance(node, JoinNode):
        if node.kind == "INNER" or node.kind == "CROSS":
            sides = [node.left, node.right]
        elif node.kind in ("LEFT", "SEMI", "ANTI"):
            sides = [node.left]  # pushing right would change semantics
        else:
            sides = []
        for side in sides:
            if _binds(side.schema, refs) and _try_push(side, conjunct):
                return True
        # Bindable on one side but not absorbable by a scan: insert a filter.
        for side in sides:
            if _binds(side.schema, refs):
                wrapped = FilterNode(child=side, predicate=conjunct, schema=side.schema)
                node.map_children(lambda child: wrapped if child is side else child)
                return True
        return False
    return False


def _binds(schema: Schema, refs: set[str]) -> bool:
    binder = Binder(schema)
    for name in refs:
        try:
            binder.bind_column(name)
        except AnalysisError:
            return False
    return True


# --------------------------------------------------------------------------
# Column pruning
# --------------------------------------------------------------------------


def prune_columns(plan: PlanNode) -> PlanNode:
    """Shrink every scan to the columns referenced above it."""
    required = _collect_required_refs(plan)
    _apply_pruning(plan, required)
    _refresh_schemas(plan)
    return plan


def _refresh_schemas(node: PlanNode) -> None:
    """Recompute pass-through schemas bottom-up after scans shrank."""
    for child in node.children():
        _refresh_schemas(child)
    if isinstance(node, JoinNode):
        if node.kind in ("SEMI", "ANTI"):
            node.schema = node.left.schema
        else:
            node.schema = node.left.schema.merge(node.right.schema)
    elif isinstance(node, (FilterNode, SortNode, LimitNode, DistinctNode)):
        node.schema = node.child.schema


def _collect_required_refs(plan: PlanNode) -> set[str]:
    refs: set[str] = set()
    stack = [plan]
    while stack:
        node = stack.pop()
        for expr in _node_exprs(node):
            refs.update(collect_column_refs(expr))
        stack.extend(node.children())
    return {r.lower() for r in refs}


def _node_exprs(node: PlanNode) -> list[ast.Expr]:
    if isinstance(node, FilterNode):
        return [node.predicate]
    if isinstance(node, ProjectNode):
        return [e for e, _ in node.items]
    if isinstance(node, AggregateNode):
        exprs = [e for e, _ in node.group_items]
        exprs.extend(s.arg for s in node.aggregates if s.arg is not None)
        return exprs
    if isinstance(node, JoinNode):
        exprs = [l for l, _ in node.equi_keys] + [r for _, r in node.equi_keys]
        if node.residual is not None:
            exprs.append(node.residual)
        return exprs
    if isinstance(node, SortNode):
        return [e for e, _ in node.keys]
    return []


def _apply_pruning(node: PlanNode, required: set[str]) -> None:
    if isinstance(node, ScanNode):
        keep: list[str] = []
        for field in node.schema:
            base = field.name.rsplit(".", 1)[-1].lower()
            qualified = field.name.lower()
            if base in required or qualified in required or any(
                r.endswith("." + base) for r in required
            ):
                keep.append(base)
        if not keep:
            keep = [node.schema.fields[0].name.rsplit(".", 1)[-1].lower()]
        base_names = [c for c in node.columns if c.lower() in keep]
        node.columns = base_names
        kept_fields = tuple(
            f for f in node.schema.fields
            if f.name.rsplit(".", 1)[-1].lower() in {c.lower() for c in base_names}
        )
        node.schema = Schema(kept_fields)
        return
    for child in node.children():
        _apply_pruning(child, required)


# --------------------------------------------------------------------------
# Aggregate pushdown (§3.4 future work)
# --------------------------------------------------------------------------

_PUSHABLE_AGGREGATES = {"COUNT", "SUM", "MIN", "MAX"}


def push_aggregates(plan: PlanNode) -> PlanNode:
    """Push group-less MIN/MAX/SUM/COUNT into the Read API session.

    The scan then returns one partial row per stream (computed server-side
    by Superluminal, after governance) and a residual aggregate combines
    the partials — shrinking the ReadRows payload to a handful of values.
    """
    if isinstance(plan, AggregateNode):
        rewritten = _try_push_aggregate(plan)
        if rewritten is not None:
            return rewritten
    return plan.map_children(push_aggregates)


def _try_push_aggregate(node: AggregateNode) -> AggregateNode | None:
    from repro.data.types import Field, Schema as _Schema
    from repro.engine.plan import AggSpec

    if node.group_items or not isinstance(node.child, ScanNode):
        return None
    scan = node.child
    pushed: list[tuple[str, str | None, str]] = []
    needed_columns: set[str] = set()
    for spec in node.aggregates:
        if spec.func not in _PUSHABLE_AGGREGATES or spec.distinct:
            return None
        if spec.arg is None:
            pushed.append((spec.func, None, spec.output))
            continue
        if not isinstance(spec.arg, ast.ColumnRef):
            return None
        base = spec.arg.parts[-1]
        if not scan.table.schema.has_field(base):
            return None
        column_name = scan.table.schema.field(base).name
        needed_columns.add(column_name)
        pushed.append((spec.func, column_name, spec.output))
    if not pushed:
        return None
    scan.pushed_aggregates = pushed
    scan.columns = sorted(needed_columns) or scan.columns[:1]
    partial_fields = []
    combine_specs = []
    for spec, (func, column, output) in zip(node.aggregates, pushed):
        partial_dtype = spec.dtype
        partial_fields.append(Field(output, partial_dtype))
        combine_func = "SUM" if func == "COUNT" else func
        combine_specs.append(
            AggSpec(
                func=combine_func,
                arg=ast.ColumnRef((output,)),
                output=spec.output,
                dtype=spec.dtype,
            )
        )
    scan.schema = _Schema(tuple(partial_fields))
    return AggregateNode(
        child=scan, group_items=[], aggregates=combine_specs, schema=node.schema
    )


# --------------------------------------------------------------------------
# Join reordering (requires statistics, §3.4)
# --------------------------------------------------------------------------


def reorder_joins(plan: PlanNode, stats_provider: StatsProvider) -> PlanNode:
    """Reorder maximal inner-join chains left-deep by ascending estimated
    cardinality, preferring connected (non-cross) joins."""
    if isinstance(plan, JoinNode) and plan.kind == "INNER":
        relations, conditions, residuals = _collect_join_chain(plan)
        if len(relations) > 2:
            ordered = _order_relations(relations, conditions, stats_provider)
            rebuilt = _rebuild_left_deep(ordered, conditions)
            for residual in residuals:
                rebuilt = FilterNode(child=rebuilt, predicate=residual, schema=rebuilt.schema)
            # Recurse into the (non-join) leaves.
            return rebuilt
    return plan.map_children(lambda child: reorder_joins(child, stats_provider))


def _collect_join_chain(
    node: PlanNode,
) -> tuple[list[PlanNode], list[tuple[ast.Expr, ast.Expr]], list[ast.Expr]]:
    relations: list[PlanNode] = []
    conditions: list[tuple[ast.Expr, ast.Expr]] = []
    residuals: list[ast.Expr] = []
    _walk_join_chain(node, relations, conditions, residuals)
    return relations, conditions, residuals


def _walk_join_chain(n: PlanNode, relations, conditions, residuals) -> None:
    if isinstance(n, JoinNode) and n.kind == "INNER":
        _walk_join_chain(n.left, relations, conditions, residuals)
        _walk_join_chain(n.right, relations, conditions, residuals)
        conditions.extend(n.equi_keys)
        if n.residual is not None:
            residuals.append(n.residual)
    else:
        relations.append(n)


def estimate_rows(node: PlanNode, stats_provider: StatsProvider) -> float:
    """Cardinality estimate for a relation subtree."""
    if isinstance(node, ScanNode):
        base = stats_provider(node)
        if base is None:
            base = _DEFAULT_ROWS
        # Each pushed conjunct shrinks the relation.
        return max(1.0, base * (_FILTER_SELECTIVITY ** len(node.pushed_filters)))
    if isinstance(node, FilterNode):
        return max(1.0, estimate_rows(node.child, stats_provider) * _FILTER_SELECTIVITY)
    if isinstance(node, (ProjectNode, SortNode, DistinctNode)):
        return estimate_rows(node.child, stats_provider)
    if isinstance(node, LimitNode):
        return min(float(node.limit), estimate_rows(node.child, stats_provider))
    if isinstance(node, AggregateNode):
        return max(1.0, estimate_rows(node.child, stats_provider) * 0.1)
    if isinstance(node, JoinNode):
        return max(
            estimate_rows(node.left, stats_provider),
            estimate_rows(node.right, stats_provider),
        )
    if isinstance(node, UnionAllNode):
        return sum(estimate_rows(c, stats_provider) for c in node.inputs)
    if isinstance(node, ValuesNode):
        return float(len(node.rows))
    return _DEFAULT_ROWS


def _order_relations(
    relations: list[PlanNode],
    conditions: list[tuple[ast.Expr, ast.Expr]],
    stats_provider: StatsProvider,
) -> list[PlanNode]:
    remaining = list(relations)
    remaining.sort(key=lambda r: estimate_rows(r, stats_provider))
    ordered = [remaining.pop(0)]
    while remaining:
        joined_schema_names = set()
        for rel in ordered:
            joined_schema_names.update(f.name.lower() for f in rel.schema)
        # Prefer the smallest relation connected to the joined set.
        chosen_index = None
        for i, rel in enumerate(remaining):
            if _connected(rel, joined_schema_names, conditions):
                chosen_index = i
                break
        if chosen_index is None:
            chosen_index = 0  # unavoidable cross join
        ordered.append(remaining.pop(chosen_index))
    return ordered


def _connected(
    relation: PlanNode, joined_names: set[str], conditions: list[tuple[ast.Expr, ast.Expr]]
) -> bool:
    rel_names = {f.name.lower() for f in relation.schema}
    for left, right in conditions:
        l, r = _key_name(left), _key_name(right)
        if (l in rel_names and r in joined_names) or (r in rel_names and l in joined_names):
            return True
    return False


def _key_name(key: ast.Expr) -> str:
    """The column an equi-join key reads, through the cast that meets the
    other key's type."""
    return str(key.operand if isinstance(key, ast.Cast) else key).lower()


def _rebuild_left_deep(
    ordered: list[PlanNode], conditions: list[tuple[ast.Expr, ast.Expr]]
) -> PlanNode:
    used = [False] * len(conditions)
    plan = ordered[0]
    for rel in ordered[1:]:
        available = {f.name.lower() for f in plan.schema}
        incoming = {f.name.lower() for f in rel.schema}
        keys: list[tuple[ast.Expr, ast.Expr]] = []
        for i, (left, right) in enumerate(conditions):
            if used[i]:
                continue
            l, r = _key_name(left), _key_name(right)
            if l in available and r in incoming:
                keys.append((left, right))
                used[i] = True
            elif r in available and l in incoming:
                keys.append((right, left))
                used[i] = True
        plan = JoinNode(
            kind="INNER" if keys else "CROSS",
            left=plan,
            right=rel,
            schema=plan.schema.merge(rel.schema),
            equi_keys=keys,
        )
    # Conditions spanning relations joined earlier become residual filters.
    for i, (left, right) in enumerate(conditions):
        if not used[i]:
            plan = FilterNode(
                child=plan,
                predicate=ast.BinaryOp("=", left, right),
                schema=plan.schema,
            )
    return plan
