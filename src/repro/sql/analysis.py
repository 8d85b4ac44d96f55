"""Predicate analysis: extracting pruning constraints from SQL predicates.

Given a (syntactic) predicate, derive the per-column range/IN constraints
implied by its top-level conjunction. Disjunctions and non-literal
comparisons contribute nothing (pruning must stay sound). Used by the
engine's optimizer, the Read API's file pruner, and the Iceberg scanner.
"""

from __future__ import annotations

from typing import Any

from repro.metastore.constraints import ColumnConstraint, ConstraintSet
from repro.sql import ast_nodes as ast
from repro.sql.dates import parse_date_to_days, parse_timestamp_to_micros

_COMPARISONS = {"=", "!=", "<", "<=", ">", ">="}


def _literal_value(expr: ast.Expr) -> tuple[bool, Any]:
    """(is_literal, value) — resolving typed literals and TIMESTAMP()/DATE()
    calls over string literals to their numeric representation."""
    if isinstance(expr, ast.Literal):
        if expr.type_hint == "TIMESTAMP":
            return True, parse_timestamp_to_micros(expr.value)
        if expr.type_hint == "DATE":
            return True, parse_date_to_days(expr.value)
        return True, expr.value
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        ok, value = _literal_value(expr.operand)
        if ok and isinstance(value, (int, float)):
            return True, -value
        return False, None
    if isinstance(expr, ast.FunctionCall) and len(expr.args) == 1:
        ok, value = _literal_value(expr.args[0])
        if ok and isinstance(value, str):
            if expr.name == "TIMESTAMP":
                return True, parse_timestamp_to_micros(value)
            if expr.name == "DATE":
                return True, parse_date_to_days(value)
    return False, None


def _column_name(expr: ast.Expr) -> str | None:
    if isinstance(expr, ast.ColumnRef):
        # Use the unqualified tail: file stats are keyed by plain names.
        return expr.parts[-1]
    return None


def extract_constraints(expr: ast.Expr | None) -> ConstraintSet:
    """Constraints implied by ``expr`` (sound under-approximation)."""
    constraints = ConstraintSet()
    for conjunct in ast.conjuncts(expr) if expr is not None else ():
        _add_conjunct(conjunct, constraints)
    return constraints


def _add_conjunct(expr: ast.Expr, out: ConstraintSet) -> None:
    if isinstance(expr, ast.BinaryOp) and expr.op in _COMPARISONS:
        _comparison(expr, out)
        return
    if isinstance(expr, ast.InList) and not expr.negated:
        column = _column_name(expr.operand)
        if column is None:
            return
        values = []
        for item in expr.items:
            ok, value = _literal_value(item)
            if not ok:
                return
            values.append(value)
        out.add(column, ColumnConstraint(in_set=frozenset(values)))
        return
    if isinstance(expr, ast.Between) and not expr.negated:
        column = _column_name(expr.operand)
        lo_ok, lo = _literal_value(expr.low)
        hi_ok, hi = _literal_value(expr.high)
        if column is not None and lo_ok and hi_ok:
            out.add(column, ColumnConstraint(lo=lo, hi=hi))
        return
    # OR / NOT / LIKE / IS NULL and anything else: no sound constraint.


def _comparison(expr: ast.BinaryOp, out: ConstraintSet) -> None:
    op = expr.op
    column = _column_name(expr.left)
    ok, value = _literal_value(expr.right)
    if column is None or not ok:
        # Try the mirrored form: literal OP column.
        column = _column_name(expr.right)
        ok, value = _literal_value(expr.left)
        if column is None or not ok:
            return
        mirror = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        op = mirror.get(op, op)
    if value is None:
        return
    if op == "=":
        out.add(column, ColumnConstraint(lo=value, hi=value, in_set=frozenset({value})))
    elif op == "<":
        out.add(column, ColumnConstraint(hi=value))  # inclusive bound is sound
    elif op == "<=":
        out.add(column, ColumnConstraint(hi=value))
    elif op == ">":
        out.add(column, ColumnConstraint(lo=value))
    elif op == ">=":
        out.add(column, ColumnConstraint(lo=value))
    # '!=' prunes nothing at file granularity.
