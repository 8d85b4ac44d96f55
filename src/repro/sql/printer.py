"""AST -> SQL text serialization.

SQL text is the Read API's wire format for a row restriction (like the real
``row_restriction`` field): what a serialized session handle carries and
what an external engine sends. An in-process engine hands the Read API the
tree itself, so the printer is not on the scan path; it runs when a session
built from a tree is asked for its text (``ReadSession.row_restriction``),
and ``parse_expression(to_sql(tree)) == tree`` for every tree the engine
pushes down. A value with no SQL literal raises :class:`AnalysisError`.
"""

from __future__ import annotations

import math

from repro.errors import AnalysisError
from repro.sql import ast_nodes as ast


def to_sql(expr: ast.Expr) -> str:
    """Render an expression AST back to parseable SQL."""
    if isinstance(expr, ast.Literal):
        return _literal(expr)
    if isinstance(expr, ast.ColumnRef):
        return ".".join(expr.parts)
    if isinstance(expr, ast.Star):
        return f"{expr.qualifier}.*" if expr.qualifier else "*"
    if isinstance(expr, ast.BinaryOp):
        return f"({to_sql(expr.left)} {expr.op} {to_sql(expr.right)})"
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "NOT":
            return f"(NOT {to_sql(expr.operand)})"
        return f"(-{to_sql(expr.operand)})"
    if isinstance(expr, ast.IsNull):
        negated = " NOT" if expr.negated else ""
        return f"({to_sql(expr.operand)} IS{negated} NULL)"
    if isinstance(expr, ast.InList):
        negated = "NOT " if expr.negated else ""
        items = ", ".join(to_sql(i) for i in expr.items)
        return f"({to_sql(expr.operand)} {negated}IN ({items}))"
    if isinstance(expr, ast.Between):
        negated = "NOT " if expr.negated else ""
        return (
            f"({to_sql(expr.operand)} {negated}BETWEEN "
            f"{to_sql(expr.low)} AND {to_sql(expr.high)})"
        )
    if isinstance(expr, ast.Like):
        negated = "NOT " if expr.negated else ""
        return f"({to_sql(expr.operand)} {negated}LIKE {_quote(expr.pattern)})"
    if isinstance(expr, ast.Case):
        parts = ["CASE"]
        for cond, value in expr.whens:
            parts.append(f"WHEN {to_sql(cond)} THEN {to_sql(value)}")
        if expr.default is not None:
            parts.append(f"ELSE {to_sql(expr.default)}")
        parts.append("END")
        return "(" + " ".join(parts) + ")"
    if isinstance(expr, ast.Cast):
        return f"CAST({to_sql(expr.operand)} AS {expr.target_type})"
    if isinstance(expr, ast.FunctionCall):
        if expr.is_star:
            return f"{expr.name}(*)"
        distinct = "DISTINCT " if expr.distinct else ""
        args = ", ".join(to_sql(a) for a in expr.args)
        return f"{expr.name}({distinct}{args})"
    raise AnalysisError(f"cannot serialize expression {expr!r}")


def _literal(expr: ast.Literal) -> str:
    v = expr.value
    if expr.type_hint is not None:
        return f"{expr.type_hint} {_quote(str(v))}"
    if v is None:
        return "NULL"
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    if isinstance(v, str):
        return _quote(v)
    if isinstance(v, int) or (isinstance(v, float) and math.isfinite(v)):
        return repr(v)
    # BYTES, NaN, the infinities: the dialect has no literal the parser
    # would read back as this value.
    raise AnalysisError(f"no SQL literal for {v!r}")


def _quote(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


def strip_qualifiers(expr: ast.Expr) -> ast.Expr:
    """Rewrite every column reference to its unqualified tail.

    Needed when pushing a predicate bound against a join's qualified
    schema (``o.amount``) into a single-table read session whose schema has
    plain names (``amount``).
    """
    return ast.rewrite(expr, _unqualified)


def _unqualified(expr: ast.Expr) -> ast.Expr | None:
    if isinstance(expr, ast.ColumnRef) and len(expr.parts) > 1:
        return ast.ColumnRef(expr.parts[-1:])
    return None
