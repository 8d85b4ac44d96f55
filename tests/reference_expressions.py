"""Expression evaluation as ``repro.sql.expressions`` did it before it ran on
dictionary codes, kept verbatim (only lifted out of the module) as the
oracle of the kernels that replaced it:

* :func:`reference_in_list` — one full-column ``==`` per literal, the
  IN-list loop the membership kernel replaced. It defines what membership
  means item by item: NULL items never match, NaN matches nothing,
  ``1 == 1.0 == True``, ``'1' != 1``, and a negated list keeps
  ``~hits & valid``. The oracle of tests/test_sql_in_list.py for lists
  without a NULL item; one that holds a NULL is never FALSE, so there it
  is checked against sqlite3 instead.
* :func:`reference_evaluate` / :func:`reference_evaluate_predicate` —
  decode first: a column reference is ``batch.column_at`` (a dictionary
  column decoded once per reference), a literal operand is
  ``Column.repeat`` to the batch's length, and every comparison, BETWEEN,
  IN, IS NULL and LIKE runs over the decoded rows. ``_eval_case`` comes
  along so CASE recurses into the reference too; the helpers it does not
  test (``_member_of`` and the IN rule ``membership``, ``_like_to_regex``,
  ``_eval_cast``, ``_and_validity``) are imported. The oracle of
  tests/test_encoded_predicates.py.

Not collected by pytest (no ``test_`` prefix).
"""

from __future__ import annotations

import numpy as np

from repro.data.batch import RecordBatch
from repro.data.column import Column
from repro.data.types import DataType
from repro.errors import ExecutionError
from repro.sql.expressions import (
    BoundBinary,
    BoundCall,
    BoundCase,
    BoundCast,
    BoundColumn,
    BoundExpr,
    BoundInList,
    BoundIsNull,
    BoundLike,
    BoundLiteral,
    BoundUnary,
    _and_validity,
    _eval_cast,
    _like_to_regex,
    _member_of,
    membership,
)


def reference_in_list(operand: Column, values: tuple, negated: bool) -> Column:
    n = len(operand)
    hits = np.zeros(n, dtype=bool)
    for v in values:
        hits |= operand.values == v
    hits &= operand.is_valid()
    if negated:
        hits = ~hits & operand.is_valid()
    return Column(DataType.BOOL, hits, operand.validity)


def reference_evaluate(expr: BoundExpr, batch: RecordBatch) -> Column:
    """Evaluate a bound expression over a batch, returning one column."""
    n = batch.num_rows
    if isinstance(expr, BoundColumn):
        return batch.column_at(expr.index)
    if isinstance(expr, BoundLiteral):
        return Column.repeat(expr.dtype, expr.value, n)
    if isinstance(expr, BoundBinary):
        return _eval_binary(expr, batch)
    if isinstance(expr, BoundUnary):
        operand = reference_evaluate(expr.operand, batch)
        if expr.op == "NOT":
            values = ~operand.values.astype(bool)
            return Column(DataType.BOOL, values, operand.validity)
        if expr.op == "-":
            return Column(operand.dtype, -operand.values, operand.validity)
        raise ExecutionError(f"unknown unary op {expr.op}")
    if isinstance(expr, BoundIsNull):
        operand = reference_evaluate(expr.operand, batch)
        null_mask = ~operand.is_valid()
        result = ~null_mask if expr.negated else null_mask
        return Column(DataType.BOOL, result)
    if isinstance(expr, BoundInList):
        operand = reference_evaluate(expr.operand, batch)
        hits = _member_of(operand.values, expr.probe)
        return membership(hits, operand.validity, expr.has_null, empty=False, negated=expr.negated)
    if isinstance(expr, BoundLike):
        operand = reference_evaluate(expr.operand, batch)
        regex = _like_to_regex(expr.pattern)
        out = np.fromiter(
            (v is not None and regex.match(v) is not None for v in operand.to_pylist()),
            dtype=bool, count=n,
        )
        if expr.negated:
            out = ~out & operand.is_valid()
        return Column(DataType.BOOL, out, operand.validity)
    if isinstance(expr, BoundCase):
        return _eval_case(expr, batch)
    if isinstance(expr, BoundCast):
        operand = reference_evaluate(expr.operand, batch)
        return _eval_cast(operand, expr.dtype)
    if isinstance(expr, BoundCall):
        args = [reference_evaluate(a, batch) for a in expr.args]
        return expr.impl(args)
    raise ExecutionError(f"cannot evaluate {expr!r}")


def reference_evaluate_predicate(expr: BoundExpr, batch: RecordBatch) -> np.ndarray:
    """Evaluate a boolean expression to a selection mask (NULL -> False)."""
    col = reference_evaluate(expr, batch)
    # May be the column's own array: a mask is for indexing, never written to.
    values = col.values.astype(bool, copy=False)
    return values if col.validity is None else values & col.validity


def _eval_binary(expr: BoundBinary, batch: RecordBatch) -> Column:
    op = expr.op
    if op in ("AND", "OR"):
        left = reference_evaluate(expr.left, batch)
        right = reference_evaluate(expr.right, batch)
        lv = left.values.astype(bool, copy=False)
        rv = right.values.astype(bool, copy=False)
        if left.validity is None and right.validity is None:
            # What the Kleene code below computes when every mask is all-true.
            return Column(DataType.BOOL, lv & rv if op == "AND" else lv | rv)
        lvalid = left.is_valid()
        rvalid = right.is_valid()
        if op == "AND":
            values = lv & rv & lvalid & rvalid
            # Kleene: FALSE AND NULL = FALSE; NULL AND TRUE = NULL.
            known_false = (lvalid & ~lv) | (rvalid & ~rv)
            valid = (lvalid & rvalid) | known_false
        else:
            values = (lv & lvalid) | (rv & rvalid)
            known_true = (lvalid & lv) | (rvalid & rv)
            valid = (lvalid & rvalid) | known_true
        return Column(DataType.BOOL, values, None if bool(valid.all()) else valid)

    left = reference_evaluate(expr.left, batch)
    right = reference_evaluate(expr.right, batch)
    validity = _and_validity(left, right)

    if op == "||":
        out = [
            None if a is None or b is None else str(a) + str(b)
            for a, b in zip(left.to_pylist(), right.to_pylist())
        ]
        return Column(DataType.STRING, out, validity)

    if op in ("=", "!=", "<", "<=", ">", ">="):
        lv, rv = left.values, right.values
        if lv.dtype == np.dtype(object) and op not in ("=", "!="):
            # Ordered comparison of object (string/bytes) arrays must skip
            # null placeholders, which do not support '<'.
            values = np.zeros(len(lv), dtype=bool)
            cmp = {"<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
                   ">": lambda a, b: a > b, ">=": lambda a, b: a >= b}[op]
            present = range(len(lv)) if validity is None else np.flatnonzero(validity)
            for i in present:
                values[i] = cmp(lv[i], rv[i])
            return Column(DataType.BOOL, values, validity)
        if op == "=":
            values = lv == rv
        elif op == "!=":
            values = lv != rv
        elif op == "<":
            values = lv < rv
        elif op == "<=":
            values = lv <= rv
        elif op == ">":
            values = lv > rv
        else:
            values = lv >= rv
        return Column(DataType.BOOL, np.asarray(values, dtype=bool), validity)

    lv, rv = left.values, right.values
    if op == "+":
        values = lv + rv
    elif op == "-":
        values = lv - rv
    elif op == "*":
        values = lv * rv
    elif op == "/":
        denom = rv.astype(np.float64)
        zero = denom == 0
        validity = ~zero if validity is None else validity & ~zero
        with np.errstate(divide="ignore", invalid="ignore"):
            values = lv.astype(np.float64) / np.where(zero, 1.0, denom)
    elif op == "%":
        denom = np.where(rv == 0, 1, rv)
        validity = rv != 0 if validity is None else validity & (rv != 0)
        values = lv % denom
    else:
        raise ExecutionError(f"unknown binary op {op}")
    return Column(expr.dtype, np.asarray(values, dtype=expr.dtype.numpy_dtype()), validity)


def _eval_case(expr: BoundCase, batch: RecordBatch) -> Column:
    n = batch.num_rows
    out_dtype = expr.dtype
    values = np.zeros(n, dtype=out_dtype.numpy_dtype())
    if out_dtype.numpy_dtype() == np.dtype(object):
        values = np.empty(n, dtype=object)
    valid = np.zeros(n, dtype=bool)
    decided = np.zeros(n, dtype=bool)
    for cond_expr, value_expr in expr.whens:
        mask = reference_evaluate_predicate(cond_expr, batch) & ~decided
        if mask.any():
            branch = reference_evaluate(value_expr, batch)
            values[mask] = branch.values[mask]
            valid[mask] = branch.is_valid()[mask]
            decided |= mask
    remaining = ~decided
    if expr.default is not None and remaining.any():
        branch = reference_evaluate(expr.default, batch)
        values[remaining] = branch.values[remaining]
        valid[remaining] = branch.is_valid()[remaining]
    return Column(out_dtype, values, None if bool(valid.all()) else valid)
