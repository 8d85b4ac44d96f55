"""Predicate analysis: extracting pruning constraints from SQL predicates.

Given a (syntactic) predicate and the schema of the table it restricts,
derive the per-column range/IN constraints implied by its top-level
conjunction, each literal in the unit of its column's statistics.
Disjunctions and non-literal comparisons contribute nothing (pruning must
stay sound). Used by the Read API's file pruner, SparkSim's direct reader
and BLMT DML.
"""

from __future__ import annotations

from typing import Any

from repro.data.types import DataType, Schema
from repro.metastore.constraints import ColumnConstraint, ConstraintSet
from repro.sql import ast_nodes as ast
from repro.sql.dates import parse_date_to_days, parse_timestamp_to_micros
from repro.sql.expressions import PLAIN_LITERAL_TYPES, in_unit

_COMPARISONS = {"=", "!=", "<", "<=", ">", ">="}


def _literal_value(expr: ast.Expr, column: DataType) -> tuple[bool, Any]:
    """(is_literal, value) — a literal, typed or a TIMESTAMP()/DATE() call
    over a string, in the unit of a ``column``'s statistics: the value the
    engine compares a ``column`` value with (see in_unit). Not a literal
    where that value is not exact, e.g. a TIMESTAMP that is no midnight
    against a DATE column, which the engine compares in micros."""
    if isinstance(expr, ast.Literal):
        if expr.type_hint == "TIMESTAMP":
            return in_unit(parse_timestamp_to_micros(expr.value), DataType.TIMESTAMP, column)
        if expr.type_hint == "DATE":
            return in_unit(parse_date_to_days(expr.value), DataType.DATE, column)
        return in_unit(expr.value, PLAIN_LITERAL_TYPES.get(type(expr.value)), column)
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        ok, value = _literal_value(expr.operand, column)
        if ok and isinstance(value, (int, float)):
            return True, -value
        return False, None
    if isinstance(expr, ast.FunctionCall) and expr.name in ("TIMESTAMP", "DATE") and len(expr.args) == 1:
        arg = expr.args[0]
        if isinstance(arg, ast.Literal) and arg.type_hint is None and isinstance(arg.value, str):
            return _literal_value(ast.Literal(arg.value, expr.name), column)
    return False, None


def _column(expr: ast.Expr, schema: Schema) -> tuple[str, DataType] | None:
    """The (name, type) of a column of ``schema`` that ``expr`` reads."""
    if isinstance(expr, ast.ColumnRef) and schema.has_field(expr.parts[-1]):
        # Use the unqualified tail: file stats are keyed by plain names.
        return expr.parts[-1], schema.field(expr.parts[-1]).dtype
    return None


def extract_constraints(expr: ast.Expr | None, schema: Schema) -> ConstraintSet:
    """Constraints implied by ``expr`` over a table of ``schema`` (sound
    under-approximation)."""
    constraints = ConstraintSet()
    for conjunct in ast.conjuncts(expr) if expr is not None else ():
        _add_conjunct(conjunct, schema, constraints)
    return constraints


def _add_conjunct(expr: ast.Expr, schema: Schema, out: ConstraintSet) -> None:
    if isinstance(expr, ast.BinaryOp) and expr.op in _COMPARISONS:
        _comparison(expr, schema, out)
        return
    if isinstance(expr, (ast.InList, ast.Between)) and not expr.negated:
        column = _column(expr.operand, schema)
        if column is None:
            return
        name, dtype = column
        items = expr.items if isinstance(expr, ast.InList) else (expr.low, expr.high)
        values = []
        for item in items:
            ok, value = _literal_value(item, dtype)
            if not ok:
                return
            values.append(value)
        if isinstance(expr, ast.InList):
            out.add(name, ColumnConstraint(in_set=frozenset(values)))
        else:
            out.add(name, ColumnConstraint(lo=values[0], hi=values[1]))
    # OR / NOT / LIKE / IS NULL and anything else: no sound constraint.


def _comparison(expr: ast.BinaryOp, schema: Schema, out: ConstraintSet) -> None:
    op = expr.op
    column = _column(expr.left, schema)
    ok, value = _literal_value(expr.right, column[1]) if column else (False, None)
    if not ok:
        # Try the mirrored form: literal OP column.
        column = _column(expr.right, schema)
        ok, value = _literal_value(expr.left, column[1]) if column else (False, None)
        if not ok:
            return
        mirror = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        op = mirror.get(op, op)
    if value is None:
        return
    name = column[0]
    if op == "=":
        out.add(name, ColumnConstraint(lo=value, hi=value, in_set=frozenset({value})))
    elif op in ("<", "<="):
        out.add(name, ColumnConstraint(hi=value))  # inclusive bound is sound
    elif op in (">", ">="):
        out.add(name, ColumnConstraint(lo=value))
    # '!=' prunes nothing at file granularity.
