"""The SQL-tree walkers that ``sql/ast_nodes.py`` replaced, kept verbatim
(only lifted out of their modules) as the oracles of tests/test_sql_ast.py:

* :func:`_rewrite` — ``engine/planner.py``'s expression rewrite: ``visit``
  is asked about a node before its children and returns a replacement or
  None.
* :func:`strip_qualifiers` — ``sql/printer.py``'s.
* :func:`collect_column_refs` / :func:`_collect_refs` —
  ``sql/expressions.py``'s, which never visits an IN-list's literal items.
* :func:`_flatten_where` (``engine/planner.py``) and :func:`_flatten_and`
  (``engine/optimizer.py``) — the two AND flatteners.

Not collected by pytest (no ``test_`` prefix).
"""

from __future__ import annotations

from repro.sql import ast_nodes as ast


def _rewrite(expr: ast.Expr, visit) -> ast.Expr:
    """Bottom-up rewrite: ``visit`` returns a replacement or None."""
    replacement = visit(expr)
    if replacement is not None:
        return replacement
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(expr.op, _rewrite(expr.left, visit), _rewrite(expr.right, visit))
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, _rewrite(expr.operand, visit))
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(_rewrite(expr.operand, visit), expr.negated)
    if isinstance(expr, ast.InList):
        return ast.InList(
            _rewrite(expr.operand, visit),
            tuple(_rewrite(i, visit) for i in expr.items),
            expr.negated,
        )
    if isinstance(expr, ast.Between):
        return ast.Between(
            _rewrite(expr.operand, visit),
            _rewrite(expr.low, visit),
            _rewrite(expr.high, visit),
            expr.negated,
        )
    if isinstance(expr, ast.Like):
        return ast.Like(_rewrite(expr.operand, visit), expr.pattern, expr.negated)
    if isinstance(expr, ast.Case):
        return ast.Case(
            tuple((_rewrite(c, visit), _rewrite(v, visit)) for c, v in expr.whens),
            _rewrite(expr.default, visit) if expr.default is not None else None,
        )
    if isinstance(expr, ast.Cast):
        return ast.Cast(_rewrite(expr.operand, visit), expr.target_type)
    if isinstance(expr, ast.FunctionCall):
        return ast.FunctionCall(
            expr.name,
            tuple(_rewrite(a, visit) for a in expr.args),
            expr.distinct,
            expr.is_star,
        )
    return expr


def strip_qualifiers(expr: ast.Expr) -> ast.Expr:
    """Rewrite every column reference to its unqualified tail.

    Needed when pushing a predicate bound against a join's qualified
    schema (``o.amount``) into a single-table read session whose schema has
    plain names (``amount``).
    """
    if isinstance(expr, ast.ColumnRef):
        return ast.ColumnRef((expr.parts[-1],))
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(expr.op, strip_qualifiers(expr.left), strip_qualifiers(expr.right))
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, strip_qualifiers(expr.operand))
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(strip_qualifiers(expr.operand), expr.negated)
    if isinstance(expr, ast.InList):
        return ast.InList(
            strip_qualifiers(expr.operand),
            tuple(strip_qualifiers(i) for i in expr.items),
            expr.negated,
        )
    if isinstance(expr, ast.Between):
        return ast.Between(
            strip_qualifiers(expr.operand),
            strip_qualifiers(expr.low),
            strip_qualifiers(expr.high),
            expr.negated,
        )
    if isinstance(expr, ast.Like):
        return ast.Like(strip_qualifiers(expr.operand), expr.pattern, expr.negated)
    if isinstance(expr, ast.Case):
        return ast.Case(
            tuple((strip_qualifiers(c), strip_qualifiers(v)) for c, v in expr.whens),
            strip_qualifiers(expr.default) if expr.default is not None else None,
        )
    if isinstance(expr, ast.Cast):
        return ast.Cast(strip_qualifiers(expr.operand), expr.target_type)
    if isinstance(expr, ast.FunctionCall):
        return ast.FunctionCall(
            expr.name,
            tuple(strip_qualifiers(a) for a in expr.args),
            expr.distinct,
            expr.is_star,
        )
    return expr


def collect_column_refs(expr: ast.Expr) -> set[str]:
    """All column names referenced by a syntactic expression (for pruning
    and projection pushdown analysis)."""
    refs: set[str] = set()
    _collect_refs(expr, refs)
    return refs


def _collect_refs(e: ast.Expr, refs: set[str]) -> None:
    # Module-level, not a closure inside collect_column_refs: a recursive
    # local function is a function <-> cell cycle per call, which pins the
    # whole AST until a garbage collection.
    if isinstance(e, ast.ColumnRef):
        refs.add(e.name)
    elif isinstance(e, ast.BinaryOp):
        _collect_refs(e.left, refs)
        _collect_refs(e.right, refs)
    elif isinstance(e, (ast.UnaryOp, ast.IsNull, ast.Like, ast.Cast)):
        _collect_refs(e.operand, refs)
    elif isinstance(e, ast.InList):
        _collect_refs(e.operand, refs)
        for item in e.items:
            # Pushed-down pruning lists are thousands of bare literals.
            if not isinstance(item, ast.Literal):
                _collect_refs(item, refs)
    elif isinstance(e, ast.Between):
        _collect_refs(e.operand, refs)
        _collect_refs(e.low, refs)
        _collect_refs(e.high, refs)
    elif isinstance(e, ast.Case):
        for c, v in e.whens:
            _collect_refs(c, refs)
            _collect_refs(v, refs)
        if e.default is not None:
            _collect_refs(e.default, refs)
    elif isinstance(e, ast.FunctionCall):
        for a in e.args:
            _collect_refs(a, refs)


def _flatten_where(expr: ast.Expr) -> list[ast.Expr]:
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return _flatten_where(expr.left) + _flatten_where(expr.right)
    return [expr]


def _flatten_and(expr: ast.Expr) -> list[ast.Expr]:
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return _flatten_and(expr.left) + _flatten_and(expr.right)
    return [expr]
