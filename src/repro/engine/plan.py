"""Logical plan nodes.

Plans carry *syntactic* expressions (AST) plus the schema each node
produces; binding to concrete column indices happens per-batch at execution
via :class:`repro.sql.expressions.Binder`, which keeps plan rewrites (filter
pushdown, join reordering) simple tree surgery.

A plan is under construction until :func:`repro.engine.optimizer.optimize`
(or the cross-cloud relocation) returns, and a value from then on:
execution reads it and never writes to it, so one plan object can be
cached, shared and run any number of times. State that belongs to one
execution (dynamic partition pruning's IN-sets) lives in the
:class:`~repro.engine.operators.ExecContext`.

This module is the only place that names a node's inputs: each class
declares ``child_fields`` and every walk goes through :meth:`~PlanNode.children`
or :meth:`~PlanNode.map_children`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.data.types import DataType, Schema
from repro.metastore.catalog import TableInfo
from repro.sql import ast_nodes as ast


class PlanNode:
    """Base class; every node exposes ``schema`` and ``children()``."""

    schema: Schema
    # The attributes that hold this node's inputs, in child order. Each is a
    # node, a list of nodes, or None (an absent optional input).
    child_fields: tuple[str, ...] = ()

    def children(self) -> list["PlanNode"]:
        out: list[PlanNode] = []
        for name in self.child_fields:
            value = getattr(self, name)
            if isinstance(value, list):
                out.extend(value)
            elif value is not None:
                out.append(value)
        return out

    def map_children(self, fn: Callable[["PlanNode"], "PlanNode"]) -> "PlanNode":
        """Replace each child by ``fn(child)``, in place and in child order,
        and return this node. For plan construction only — the optimizer's
        rewrites and the cross-cloud relocation."""
        for name in self.child_fields:
            value = getattr(self, name)
            if isinstance(value, list):
                setattr(self, name, [fn(child) for child in value])
            elif value is not None:
                setattr(self, name, fn(value))
        return self

    def describe(self, indent: int = 0) -> str:
        """Human-readable plan tree (EXPLAIN output)."""
        pad = "  " * indent
        lines = [f"{pad}{self._label()}"]
        for child in self.children():
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)

    def _label(self) -> str:
        return type(self).__name__


@dataclass
class ScanNode(PlanNode):
    """Read one table through the Storage Read API.

    ``pushed_filters`` are conjuncts fully answerable by this relation,
    handed to the session as part of its row restriction.
    """

    table: TableInfo
    schema: Schema
    columns: list[str]
    qualifier: str | None = None
    pushed_filters: list[ast.Expr] = field(default_factory=list)
    snapshot_ms: float | None = None
    # Aggregate pushdown (§3.4 future work): (func, column|None, output).
    # When set, the scan returns one partial-aggregate row per stream and
    # ``schema`` describes the partial columns.
    pushed_aggregates: list[tuple[str, str | None, str]] = field(default_factory=list)

    def _label(self) -> str:
        filters = (
            " filter=[" + " AND ".join(str(f) for f in self.pushed_filters) + "]"
            if self.pushed_filters
            else ""
        )
        return f"Scan({self.table.table_id} cols={self.columns}{filters})"


@dataclass
class SystemTableNode(PlanNode):
    """Scan of an ``INFORMATION_SCHEMA`` virtual table.

    Rows are produced at execution time by the platform's
    :class:`~repro.obs.system_tables.SystemTables` provider under the
    querying principal — which is where per-principal visibility and the
    admin-only tables are enforced. ``base_schema`` keeps the unqualified
    column names the provider emits; ``schema`` may be alias-qualified
    when the table appears in a join.
    """

    name: str  # normalized table name, e.g. "JOBS"
    schema: Schema
    base_schema: Schema
    qualifier: str | None = None

    def _label(self) -> str:
        return f"SystemTable(INFORMATION_SCHEMA.{self.name})"


@dataclass
class FilterNode(PlanNode):
    child: PlanNode
    predicate: ast.Expr
    schema: Schema

    child_fields = ("child",)

    def _label(self) -> str:
        return f"Filter({self.predicate})"


@dataclass
class ProjectNode(PlanNode):
    child: PlanNode
    items: list[tuple[ast.Expr, str]]  # (expression, output name)
    schema: Schema

    child_fields = ("child",)

    def _label(self) -> str:
        return f"Project({', '.join(name for _, name in self.items)})"


@dataclass
class AggSpec:
    """One aggregate computation: ``func(arg)`` with an output name."""

    func: str  # COUNT, SUM, MIN, MAX, AVG
    arg: ast.Expr | None  # None for COUNT(*)
    output: str
    distinct: bool = False
    dtype: DataType = DataType.FLOAT64


@dataclass
class AggregateNode(PlanNode):
    child: PlanNode
    group_items: list[tuple[ast.Expr, str]]
    aggregates: list[AggSpec]
    schema: Schema

    child_fields = ("child",)

    def _label(self) -> str:
        keys = ", ".join(name for _, name in self.group_items)
        aggs = ", ".join(f"{a.func}->{a.output}" for a in self.aggregates)
        return f"Aggregate(keys=[{keys}] aggs=[{aggs}])"


@dataclass
class JoinNode(PlanNode):
    kind: str  # INNER, LEFT, CROSS, SEMI, ANTI
    left: PlanNode
    right: PlanNode
    schema: Schema
    # Equi-join key pairs extracted from the condition (left_expr, right_expr).
    equi_keys: list[tuple[ast.Expr, ast.Expr]] = field(default_factory=list)
    # Residual non-equi condition applied after matching.
    residual: ast.Expr | None = None

    child_fields = ("left", "right")

    def _label(self) -> str:
        keys = ", ".join(f"{l}={r}" for l, r in self.equi_keys)
        return f"{self.kind}Join({keys})"


@dataclass
class SortNode(PlanNode):
    child: PlanNode
    keys: list[tuple[ast.Expr, bool]]  # (expr, ascending)
    schema: Schema

    child_fields = ("child",)


@dataclass
class LimitNode(PlanNode):
    child: PlanNode
    limit: int
    schema: Schema

    child_fields = ("child",)

    def _label(self) -> str:
        return f"Limit({self.limit})"


@dataclass
class DistinctNode(PlanNode):
    child: PlanNode
    schema: Schema

    child_fields = ("child",)


@dataclass
class UnionAllNode(PlanNode):
    inputs: list[PlanNode]
    schema: Schema

    child_fields = ("inputs",)


@dataclass
class TvfNode(PlanNode):
    """A table-valued function (ML.PREDICT / ML.PROCESS_DOCUMENT)."""

    name: str
    model: tuple[str, ...]
    input_plan: PlanNode | None
    input_table: TableInfo | None
    schema: Schema
    options: dict[str, Any] = field(default_factory=dict)

    child_fields = ("input_plan",)

    def _label(self) -> str:
        return f"Tvf({self.name} model={'.'.join(self.model)})"


@dataclass
class ValuesNode(PlanNode):
    """Literal rows (INSERT ... VALUES)."""

    rows: list[list[ast.Expr]]
    schema: Schema
