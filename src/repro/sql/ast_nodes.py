"""Abstract syntax tree for the SQL dialect.

Expression nodes are pure syntax — name resolution and typing happen in
:mod:`repro.sql.expressions`. Statement nodes cover queries, DML, and CTAS.

This module is the only place that names a node's sub-nodes: each class
declares ``child_fields``, and every walk goes through :func:`children`,
:func:`walk` or :func:`rewrite`. :func:`conjoin` builds a conjunction and
:func:`conjuncts` takes one apart; :func:`key` is an expression's
structural identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Iterator


class Node:
    """Base class of every tree node: expressions, query structure, statements."""

    # The attributes that hold the nodes below this one, in child order. Each
    # holds a node, None, or a list/tuple of them (pairs included).
    child_fields: tuple[str, ...] = ()


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


class Expr(Node):
    """Base class for expression AST nodes."""


@dataclass(frozen=True)
class Literal(Expr):
    value: Any  # python value: int, float, str, bytes, bool, None
    type_hint: str | None = None  # "TIMESTAMP" / "DATE" for typed literals

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A possibly-qualified column reference: ``name`` or ``alias.name``."""

    parts: tuple[str, ...]

    @property
    def name(self) -> str:
        return ".".join(self.parts)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Star(Expr):
    """``*`` or ``alias.*`` in a select list."""

    qualifier: str | None = None


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str  # '+', '-', '*', '/', '%', '=', '!=', '<', '<=', '>', '>=', 'AND', 'OR', '||'
    left: Expr
    right: Expr
    child_fields = ("left", "right")

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # 'NOT', '-'
    operand: Expr
    child_fields = ("operand",)

    def __str__(self) -> str:
        return f"({self.op} {self.operand})"


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False
    child_fields = ("operand",)


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    items: tuple[Expr, ...]
    negated: bool = False
    child_fields = ("operand", "items")


@dataclass(frozen=True, eq=False)
class InSubquery(Expr):
    """``operand [NOT] IN (SELECT ...)`` — lowered to a semi/anti join.

    Not structurally comparable (the subquery is mutable), so it is
    extracted from predicates before any rewriting that relies on
    equality.
    """

    operand: Expr
    query: "Select"
    negated: bool = False
    child_fields = ("operand", "query")


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False
    child_fields = ("operand", "low", "high")


@dataclass(frozen=True)
class Like(Expr):
    operand: Expr
    pattern: str
    negated: bool = False
    child_fields = ("operand",)


@dataclass(frozen=True)
class Case(Expr):
    """Searched CASE: WHEN cond THEN value ... [ELSE value] END."""

    whens: tuple[tuple[Expr, Expr], ...]
    default: Expr | None = None
    child_fields = ("whens", "default")


@dataclass(frozen=True)
class Cast(Expr):
    operand: Expr
    target_type: str  # DataType value name
    child_fields = ("operand",)

    def __str__(self) -> str:
        return f"CAST({self.operand} AS {self.target_type})"


@dataclass(frozen=True)
class FunctionCall(Expr):
    """Scalar or aggregate function; name may be dotted (``ML.DECODE_IMAGE``)."""

    name: str  # upper-cased, dots preserved
    args: tuple[Expr, ...]
    distinct: bool = False  # COUNT(DISTINCT x)
    is_star: bool = False  # COUNT(*)
    child_fields = ("args",)

    def __str__(self) -> str:
        inner = "*" if self.is_star else ", ".join(str(a) for a in self.args)
        return f"{self.name}({inner})"


# --------------------------------------------------------------------------
# Query structure
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem(Node):
    expr: Expr
    alias: str | None = None
    child_fields = ("expr",)


@dataclass
class TableRef(Node):
    """FROM item: a named table (dotted path) with optional alias and
    optional time travel (``FOR SYSTEM_TIME AS OF <timestamp>``)."""

    path: tuple[str, ...]
    alias: str | None = None
    system_time: Expr | None = None  # a TIMESTAMP-typed expression
    child_fields = ("system_time",)

    @property
    def name(self) -> str:
        return ".".join(self.path)


@dataclass
class SubqueryRef(Node):
    query: "Select"
    alias: str | None = None
    child_fields = ("query",)


@dataclass
class TvfRef(Node):
    """Table-valued function in FROM: ``ML.PREDICT(MODEL m, (subquery))`` or
    ``ML.PROCESS_DOCUMENT(MODEL m, TABLE t)``."""

    name: str  # e.g. "ML.PREDICT"
    model: tuple[str, ...]
    input_query: "Select | None" = None
    input_table: tuple[str, ...] | None = None
    options: dict[str, Any] = field(default_factory=dict)
    alias: str | None = None
    child_fields = ("input_query",)


@dataclass
class Join(Node):
    kind: str  # 'INNER', 'LEFT', 'CROSS'
    left: "FromItem"
    right: "FromItem"
    condition: Expr | None = None
    child_fields = ("left", "right", "condition")


FromItem = TableRef | SubqueryRef | TvfRef | Join


@dataclass
class OrderItem(Node):
    expr: Expr
    ascending: bool = True
    child_fields = ("expr",)


@dataclass
class Select(Node):
    """A SELECT query block (optionally UNION ALL-chained)."""

    items: list[SelectItem]
    from_item: FromItem | None = None
    where: Expr | None = None
    group_by: list[Expr] = field(default_factory=list)
    having: Expr | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None
    distinct: bool = False
    union_all: "Select | None" = None  # chained UNION ALL arm
    child_fields = (
        "items", "from_item", "where", "group_by", "having", "order_by", "union_all",
    )


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass
class CreateTableAsSelect(Node):
    table: tuple[str, ...]
    query: Select
    replace: bool = False
    child_fields = ("query",)


@dataclass
class InsertValues(Node):
    table: tuple[str, ...]
    columns: list[str]
    rows: list[list[Expr]]
    child_fields = ("rows",)


@dataclass
class InsertSelect(Node):
    table: tuple[str, ...]
    columns: list[str]
    query: Select
    child_fields = ("query",)


@dataclass
class Update(Node):
    table: tuple[str, ...]
    assignments: list[tuple[str, Expr]]
    where: Expr | None = None
    child_fields = ("assignments", "where")


@dataclass
class Delete(Node):
    table: tuple[str, ...]
    where: Expr | None = None
    child_fields = ("where",)


@dataclass
class MergeWhenClause(Node):
    """One WHEN arm of a MERGE statement."""

    matched: bool
    condition: Expr | None
    action: str  # 'UPDATE', 'DELETE', 'INSERT'
    assignments: list[tuple[str, Expr]] = field(default_factory=list)
    insert_columns: list[str] = field(default_factory=list)
    insert_values: list[Expr] = field(default_factory=list)
    child_fields = ("condition", "assignments", "insert_values")


@dataclass
class Merge(Node):
    target: tuple[str, ...]
    target_alias: str | None
    source: FromItem
    on: Expr
    whens: list[MergeWhenClause] = field(default_factory=list)
    child_fields = ("source", "on", "whens")


@dataclass
class CreateModel(Node):
    """``CREATE [OR REPLACE] MODEL name [REMOTE WITH CONNECTION conn]
    OPTIONS (k = 'v', ...)`` — the Listing 2 DDL."""

    name: tuple[str, ...]
    replace: bool = False
    remote_connection: tuple[str, ...] | None = None
    options: dict[str, Any] = field(default_factory=dict)


Statement = (
    Select
    | CreateTableAsSelect
    | InsertValues
    | InsertSelect
    | Update
    | Delete
    | Merge
    | CreateModel
)


# --------------------------------------------------------------------------
# Walking and rewriting
# --------------------------------------------------------------------------


def children(node: Node) -> list[Node]:
    """The nodes directly below ``node``, in child order."""
    out: list[Node] = []
    for name in node.child_fields:
        _gather(getattr(node, name), out)
    return out


def _gather(value: Any, out: list[Node]) -> None:
    if isinstance(value, Node):
        out.append(value)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _gather(item, out)


def walk(node: Node) -> Iterator[Node]:
    """``node`` and every node below it, pre-order — into ``IN (SELECT …)``,
    FROM subqueries, TVF input queries and UNION ALL arms."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(children(current)))


def rewrite(expr: Expr, visit: Callable[[Expr], Expr | None]) -> Expr:
    """Rebuild an expression tree bottom-up. ``visit`` sees each node before
    its children and returns its replacement, used as it is, or None to keep
    the node and rewrite its children; a node whose children all come back
    unchanged is returned itself. A subquery is a leaf: ``Select`` is
    mutable, so an ``IN (SELECT …)`` is never rebuilt."""
    replacement = visit(expr)
    if replacement is not None:
        return replacement
    if isinstance(expr, InSubquery):
        return expr
    changed = {}
    for name in expr.child_fields:
        value = getattr(expr, name)
        new = _rewrite_value(value, visit)
        if new is not value:
            changed[name] = new
    return replace(expr, **changed) if changed else expr


def _rewrite_value(value: Any, visit: Callable[[Expr], Expr | None]) -> Any:
    if isinstance(value, Expr):
        return rewrite(value, visit)
    if isinstance(value, tuple):
        new = tuple(_rewrite_value(item, visit) for item in value)
        return value if all(a is b for a, b in zip(new, value)) else new
    return value  # None: an absent optional child


def conjuncts(expr: Expr, op: str = "AND") -> list[Expr]:
    """The operands of ``expr``'s top-level ``op`` chain, left to right."""
    if isinstance(expr, BinaryOp) and expr.op == op:
        return conjuncts(expr.left, op) + conjuncts(expr.right, op)
    return [expr]


def conjoin(clauses: list[Expr], op: str = "AND") -> Expr | None:
    """``clauses`` as one left-associative ``op`` chain — the shape the
    parser builds, which plan text and session handles print — or None
    when there are none."""
    result: Expr | None = None
    for clause in clauses:
        result = clause if result is None else BinaryOp(op, result, clause)
    return result


def key(expr: Any) -> Any:
    """An expression's structural identity, to key a dict by. Unlike ``str``
    it keeps the ``DISTINCT`` and ``*`` flags; unlike ``==`` it tells the
    literals ``1``, ``1.0`` and ``TRUE`` apart. An ``IN (SELECT …)`` is only
    itself, as under ``==``."""
    if isinstance(expr, tuple):
        return tuple(map(key, expr))
    if not isinstance(expr, Expr):
        return expr  # a flag, a name, an operator, or an absent child
    if isinstance(expr, Literal):
        return (Literal, type(expr.value), expr.value, expr.type_hint)
    if isinstance(expr, InSubquery):
        return (InSubquery, id(expr))
    return (type(expr), *(key(getattr(expr, f.name)) for f in fields(expr)))
