"""Name binding and vectorized expression evaluation.

The binder turns syntactic :mod:`~repro.sql.ast_nodes` expressions into
typed :class:`BoundExpr` trees against a concrete schema; the evaluator runs
bound trees over :class:`~repro.data.RecordBatch` columns with numpy,
honoring SQL three-valued NULL semantics. This evaluator *is* the
reproduction's Superluminal (§2.2.1): the Read API uses it to apply user
predicates, security filters, and masking before data leaves the trust
boundary, and the query engine uses it for filters and projections.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.data.batch import RecordBatch
from repro.data.column import Column, DictionaryColumn
from repro.data.types import DataType, Schema, common_type
from repro.errors import AnalysisError, ExecutionError
from repro.sql import ast_nodes as ast
from repro.sql.dates import MICROS_PER_DAY, parse_date_to_days, parse_timestamp_to_micros

AGGREGATE_FUNCTIONS = {"COUNT", "SUM", "MIN", "MAX", "AVG"}


# --------------------------------------------------------------------------
# Bound expression nodes
# --------------------------------------------------------------------------


class BoundExpr:
    """Base class for bound (resolved, typed) expressions."""

    dtype: DataType
    # The one column a predicate reads when it can be answered once per
    # dictionary entry and mapped through the codes (see _over_dictionary):
    # set at construction by the predicate nodes, None everywhere else.
    codes_column: int | None = None


_COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")

# The casts the binder inserts where two types meet (see common_type). None
# of them can raise, so a predicate reading a column through one may still be
# answered per dictionary entry (see _over_dictionary).
_SAFE_CASTS = {(a, b) for a in DataType for b in DataType if a is not b and common_type(a, b) is b}


def _column_read(expr: "BoundExpr") -> int | None:
    """The column ``expr`` is, directly or through a cast that cannot raise."""
    if isinstance(expr, BoundCast) and (expr.operand.dtype, expr.dtype) in _SAFE_CASTS:
        expr = expr.operand
    return expr.index if isinstance(expr, BoundColumn) else None


def _scalar(expr: "BoundExpr") -> Column | None:
    """A non-NULL literal, or a cast of one, as the one-row column a
    comparison broadcasts against the other side: what evaluating it over a
    batch gives, one row long. None for anything else — and for a literal
    that does not evaluate, which then fails where it always did, when the
    comparison is evaluated over rows."""
    cast = None
    if isinstance(expr, BoundCast):
        cast, expr = expr.dtype, expr.operand
    if not isinstance(expr, BoundLiteral) or expr.value is None:
        return None
    try:
        column = Column.repeat(expr.dtype, expr.value, 1)
        return column if cast is None else _eval_cast(column, cast)
    except (ExecutionError, ArithmeticError, TypeError, ValueError):
        return None  # the row path raises it


def _is_null(expr: "BoundExpr") -> bool:
    return isinstance(expr, BoundLiteral) and expr.value is None


@dataclass(frozen=True)
class BoundColumn(BoundExpr):
    index: int
    name: str
    dtype: DataType


@dataclass(frozen=True)
class BoundLiteral(BoundExpr):
    value: Any
    dtype: DataType


@dataclass(frozen=True)
class BoundBinary(BoundExpr):
    op: str
    left: BoundExpr
    right: BoundExpr
    dtype: DataType
    # A comparison's (left, right) literal sides as one-row columns (see
    # _scalar); (None, None) when neither or both sides are literals.
    scalars: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        scalars = (None, None)
        index = None
        if self.op in _COMPARISONS:
            left, right = _scalar(self.left), _scalar(self.right)
            if (left is None) != (right is None):
                scalars = (left, right)
            # Column against literal — NULL, or a value that evaluated above —
            # so neither side raises, whatever the column holds.
            if right is not None or _is_null(self.right):
                index = _column_read(self.left)
            if index is None and (left is not None or _is_null(self.left)):
                index = _column_read(self.right)
        elif self.op in ("AND", "OR") and self.left.codes_column == self.right.codes_column:
            index = self.left.codes_column
        object.__setattr__(self, "scalars", scalars)
        object.__setattr__(self, "codes_column", index)


@dataclass(frozen=True)
class BoundUnary(BoundExpr):
    op: str
    operand: BoundExpr
    dtype: DataType

    def __post_init__(self) -> None:
        index = self.operand.codes_column if self.op == "NOT" else None
        object.__setattr__(self, "codes_column", index)


@dataclass(frozen=True)
class BoundIsNull(BoundExpr):
    operand: BoundExpr
    negated: bool
    dtype: DataType = DataType.BOOL

    def __post_init__(self) -> None:
        object.__setattr__(self, "codes_column", _column_read(self.operand))


@dataclass(frozen=True)
class BoundInList(BoundExpr):
    operand: BoundExpr
    values: tuple
    negated: bool
    has_null: bool  # an item is NULL (see membership)
    dtype: DataType = DataType.BOOL
    # What evaluate() probes, prepared once from ``values`` for the
    # operand's type (see _membership_probe).
    probe: Any = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "probe", _membership_probe(self.operand.dtype, self.values))
        object.__setattr__(self, "codes_column", _column_read(self.operand))


@dataclass(frozen=True)
class BoundLike(BoundExpr):
    operand: BoundExpr
    pattern: str
    negated: bool
    dtype: DataType = DataType.BOOL

    def __post_init__(self) -> None:
        # A string pattern raises on BYTES: only STRING reads its entries.
        text = isinstance(self.operand, BoundColumn) and self.operand.dtype is DataType.STRING
        object.__setattr__(self, "codes_column", self.operand.index if text else None)


@dataclass(frozen=True)
class BoundCase(BoundExpr):
    whens: tuple[tuple[BoundExpr, BoundExpr], ...]
    default: BoundExpr | None
    dtype: DataType


@dataclass(frozen=True)
class BoundCast(BoundExpr):
    operand: BoundExpr
    dtype: DataType


@dataclass(frozen=True)
class BoundCall(BoundExpr):
    name: str
    args: tuple[BoundExpr, ...]
    dtype: DataType
    impl: Callable = field(compare=False, hash=False)


# --------------------------------------------------------------------------
# Scalar function registry
# --------------------------------------------------------------------------


@dataclass
class ScalarFunction:
    """A registered scalar function: vectorized impl + result-type rule."""

    name: str
    impl: Callable  # (args: list[Column]) -> Column
    result_type: Callable | None = None  # (arg_dtypes: list[DataType]) -> DataType
    min_args: int = 1
    max_args: int | None = None
    # Without a result_type: the arguments from this position on are cast
    # to the type they meet in, which types the call.
    meet_from: int = 0


class FunctionRegistry:
    """Scalar function lookup; products (e.g. ML) register extras here."""

    def __init__(self) -> None:
        self._functions: dict[str, ScalarFunction] = {}
        _register_builtins(self)

    def register(self, fn: ScalarFunction) -> None:
        self._functions[fn.name.upper()] = fn

    def lookup(self, name: str) -> ScalarFunction:
        fn = self._functions.get(name.upper())
        if fn is None:
            raise AnalysisError(f"unknown function {name}()")
        return fn

    def has(self, name: str) -> bool:
        return name.upper() in self._functions


def _map_values(column: Column, fn: Callable, out_dtype: DataType) -> Column:
    """Apply ``fn`` per present value; nulls propagate."""
    # Column() swaps the None left at a null for the dtype's placeholder.
    out = [None if v is None else fn(v) for v in column.to_pylist()]
    return Column(out_dtype, out, column.validity)


def _and_validity(*columns: Column) -> np.ndarray | None:
    """Rows where every column is present; ``None`` when no column has a
    null, so null-free operands never pay for a mask."""
    valid = None
    for column in columns:
        if column.validity is not None:
            valid = column.validity if valid is None else valid & column.validity
    return valid


def _register_builtins(reg: FunctionRegistry) -> None:
    from repro.sql import dates

    def _same(dtypes: list[DataType]) -> DataType:
        return dtypes[0]

    def _fixed(dtype: DataType) -> Callable:
        return lambda dtypes: dtype

    reg.register(ScalarFunction(
        "UPPER", lambda args: _map_values(args[0], str.upper, DataType.STRING),
        _fixed(DataType.STRING)))
    reg.register(ScalarFunction(
        "LOWER", lambda args: _map_values(args[0], str.lower, DataType.STRING),
        _fixed(DataType.STRING)))
    reg.register(ScalarFunction(
        "LENGTH", lambda args: _map_values(args[0], len, DataType.INT64),
        _fixed(DataType.INT64)))
    reg.register(ScalarFunction(
        "TRIM", lambda args: _map_values(args[0], str.strip, DataType.STRING),
        _fixed(DataType.STRING)))
    reg.register(ScalarFunction(
        "ABS", lambda args: Column(args[0].dtype, np.abs(args[0].values), args[0].validity),
        _same))

    def _round(args: list[Column]) -> Column:
        digits = 0
        if len(args) > 1:
            digits = int(args[1].values[0])
        return Column(DataType.FLOAT64, np.round(args[0].values.astype(np.float64), digits), args[0].validity)

    reg.register(ScalarFunction("ROUND", _round, _fixed(DataType.FLOAT64), max_args=2))
    reg.register(ScalarFunction(
        "FLOOR", lambda args: Column(DataType.FLOAT64, np.floor(args[0].values.astype(np.float64)), args[0].validity),
        _fixed(DataType.FLOAT64)))
    reg.register(ScalarFunction(
        "CEIL", lambda args: Column(DataType.FLOAT64, np.ceil(args[0].values.astype(np.float64)), args[0].validity),
        _fixed(DataType.FLOAT64)))

    def _concat(args: list[Column]) -> Column:
        out = [
            None if None in row else "".join(map(str, row))
            for row in zip(*[a.to_pylist() for a in args])
        ]
        return Column(DataType.STRING, out, _and_validity(*args))

    reg.register(ScalarFunction("CONCAT", _concat, _fixed(DataType.STRING), max_args=None))

    def _substr(args: list[Column]) -> Column:
        start = int(args[1].values[0])
        length = int(args[2].values[0]) if len(args) > 2 else None
        begin = max(start - 1, 0)  # SQL SUBSTR is 1-based

        def cut(s: str) -> str:
            return s[begin : begin + length] if length is not None else s[begin:]

        return _map_values(args[0], cut, DataType.STRING)

    reg.register(ScalarFunction("SUBSTR", _substr, _fixed(DataType.STRING), min_args=2, max_args=3))

    def _coalesce(args: list[Column]) -> Column:
        n = len(args[0])
        out_dtype = args[0].dtype
        values = np.array(args[0].values, copy=True)
        valid = np.array(args[0].is_valid(), copy=True)
        for a in args[1:]:
            need = ~valid
            if not need.any():
                break
            avail = need & a.is_valid()
            values[avail] = a.values[avail]
            valid |= avail
        return Column(out_dtype, values, None if bool(valid.all()) else valid)

    reg.register(ScalarFunction("COALESCE", _coalesce, min_args=2, max_args=None))
    reg.register(ScalarFunction("IFNULL", _coalesce, min_args=2, max_args=2))

    def _if(args: list[Column]) -> Column:
        cond = args[0]
        truthy = cond.is_valid() & cond.values.astype(bool)
        out_dtype = args[1].dtype
        values = np.where(truthy, args[1].values, args[2].values)
        valid = np.where(truthy, args[1].is_valid(), args[2].is_valid())
        return Column(out_dtype, values, None if bool(valid.all()) else valid)

    reg.register(ScalarFunction("IF", _if, min_args=3, max_args=3, meet_from=1))

    def _safe_divide(args: list[Column]) -> Column:
        num = args[0].values.astype(np.float64)
        den = args[1].values.astype(np.float64)
        valid = args[0].is_valid() & args[1].is_valid() & (den != 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(valid, num / np.where(den == 0, 1.0, den), 0.0)
        return Column(DataType.FLOAT64, out, None if bool(valid.all()) else valid)

    reg.register(ScalarFunction("SAFE_DIVIDE", _safe_divide, _fixed(DataType.FLOAT64), min_args=2, max_args=2))

    def _temporal_part(extractor: Callable) -> Callable:
        def impl(args: list[Column]) -> Column:
            col = args[0]
            if col.dtype is DataType.TIMESTAMP:
                days = col.values // dates.MICROS_PER_DAY
            else:
                days = col.values
            return _map_values(Column(DataType.INT64, days, col.validity), extractor, DataType.INT64)

        return impl

    reg.register(ScalarFunction("YEAR", _temporal_part(dates.date_year), _fixed(DataType.INT64)))
    reg.register(ScalarFunction("MONTH", _temporal_part(dates.date_month), _fixed(DataType.INT64)))
    reg.register(ScalarFunction("DAY", _temporal_part(dates.date_day), _fixed(DataType.INT64)))

    def _starts_with(args: list[Column]) -> Column:
        prefix = args[1].values[0]
        return _map_values(args[0], lambda s: s.startswith(prefix), DataType.BOOL)

    reg.register(ScalarFunction("STARTS_WITH", _starts_with, _fixed(DataType.BOOL), min_args=2, max_args=2))

    def _regexp_contains(args: list[Column]) -> Column:
        pattern = re.compile(args[1].values[0])
        return _map_values(args[0], lambda s: pattern.search(s) is not None, DataType.BOOL)

    reg.register(ScalarFunction("REGEXP_CONTAINS", _regexp_contains, _fixed(DataType.BOOL), min_args=2, max_args=2))

    def _extreme(pick: Callable) -> Callable:
        def impl(args: list[Column]) -> Column:
            # NULL where any argument is; a null's placeholder may not order.
            valid = _and_validity(*args)
            rows = slice(None) if valid is None else valid
            values = args[0].values.copy()
            values[rows] = functools.reduce(pick, [a.values[rows] for a in args])
            return Column(args[0].dtype, values, valid)

        return impl

    reg.register(ScalarFunction("GREATEST", _extreme(np.maximum), min_args=2, max_args=None))
    reg.register(ScalarFunction("LEAST", _extreme(np.minimum), min_args=2, max_args=None))

    for temporal in (DataType.TIMESTAMP, DataType.DATE):
        reg.register(ScalarFunction(
            temporal.value, lambda args, to=temporal: _eval_cast(args[0], to), _fixed(temporal)))


DEFAULT_FUNCTIONS = FunctionRegistry()


# --------------------------------------------------------------------------
# Binder
# --------------------------------------------------------------------------

# The type a plain literal's python value binds to, as _bind_literal types
# it; a NULL has none.
PLAIN_LITERAL_TYPES = {
    bool: DataType.BOOL, int: DataType.INT64, float: DataType.FLOAT64,
    str: DataType.STRING, bytes: DataType.BYTES, type(None): None,
}


def in_unit(value: Any, dtype: DataType | None, unit: DataType) -> tuple[bool, Any]:
    """(exact, value): a literal ``value`` of ``dtype`` in the storage unit of
    ``unit``, where the two types meet (see common_type) — a DATE as its
    midnight's micros for a TIMESTAMP, a TIMESTAMP that is a midnight as its
    day for a DATE, anything else as it is. Not exact for a TIMESTAMP that is
    no midnight, which equals no DATE, or for types that do not meet."""
    if value is None or dtype is None or dtype is unit:
        return True, value
    if dtype is DataType.DATE and unit is DataType.TIMESTAMP:
        return True, value * MICROS_PER_DAY
    if dtype is DataType.TIMESTAMP and unit is DataType.DATE:
        return value % MICROS_PER_DAY == 0, value // MICROS_PER_DAY
    return common_type(dtype, unit) is not None, value


class Binder:
    """Resolves names against a schema and type-checks expressions."""

    def __init__(self, schema: Schema, functions: FunctionRegistry | None = None) -> None:
        self.schema = schema
        self.functions = functions or DEFAULT_FUNCTIONS

    def bind(self, expr: ast.Expr) -> BoundExpr:
        if isinstance(expr, ast.Literal):
            return self._bind_literal(expr)
        if isinstance(expr, ast.ColumnRef):
            return self.bind_column(expr.name)
        if isinstance(expr, ast.BinaryOp):
            return self._bind_binary(expr)
        if isinstance(expr, ast.UnaryOp):
            return self._bind_unary(expr)
        if isinstance(expr, ast.IsNull):
            return BoundIsNull(self.bind(expr.operand), expr.negated)
        if isinstance(expr, ast.InList):
            return self._bind_in_list(expr)
        if isinstance(expr, ast.Between):
            operand = self.bind(expr.operand)
            ge = self._compare(">=", operand, self.bind(expr.low))
            le = self._compare("<=", operand, self.bind(expr.high))
            both = BoundBinary("AND", ge, le, DataType.BOOL)
            if expr.negated:
                return BoundUnary("NOT", both, DataType.BOOL)
            return both
        if isinstance(expr, ast.Like):
            return BoundLike(self.bind(expr.operand), expr.pattern, expr.negated)
        if isinstance(expr, ast.Case):
            conditions = [self.bind(c) for c, _ in expr.whens]
            branches = [self.bind(v) for _, v in expr.whens]
            if expr.default is not None:
                branches.append(self.bind(expr.default))
            branches, dtype = self.coerce(branches, "CASE")
            default = branches.pop() if expr.default is not None else None
            return BoundCase(tuple(zip(conditions, branches)), default, dtype)
        if isinstance(expr, ast.Cast):
            try:
                target = DataType(expr.target_type)
            except ValueError:
                raise AnalysisError(f"unknown CAST target type {expr.target_type}") from None
            return BoundCast(self.bind(expr.operand), target)
        if isinstance(expr, ast.FunctionCall):
            return self._bind_call(expr)
        if isinstance(expr, ast.InSubquery):
            raise AnalysisError(
                "IN (SELECT ...) is only supported as a top-level WHERE "
                "conjunct (it lowers to a semi/anti join)"
            )
        raise AnalysisError(f"cannot bind expression {expr!r}")

    @staticmethod
    def coerce(exprs: list[BoundExpr], construct: str) -> tuple[list[BoundExpr], DataType]:
        """``exprs`` cast to the type they meet in (see :func:`common_type`),
        and that type; a bare NULL takes it, and bare NULLs alone stay as
        they are. Raises :class:`AnalysisError` where two types do not meet."""
        dtype = None
        for expr in exprs:
            if not _is_null(expr):
                meet = expr.dtype if dtype is None else common_type(dtype, expr.dtype)
                if meet is None:
                    raise AnalysisError(
                        f"incompatible types {dtype.value} and {expr.dtype.value} in {construct}"
                    )
                dtype = meet
        if dtype is None:
            return exprs, exprs[0].dtype
        return [
            e if e.dtype is dtype else BoundLiteral(None, dtype) if _is_null(e) else BoundCast(e, dtype)
            for e in exprs
        ], dtype

    def bind_column(self, name: str) -> BoundColumn:
        """Resolve a possibly-qualified column name against the schema.

        Tries: exact match; the unqualified tail; then a unique
        ``*.name`` suffix match (for join outputs with qualified fields).
        """
        if self.schema.has_field(name):
            idx = self.schema.index_of(name)
            return BoundColumn(idx, self.schema.fields[idx].name, self.schema.fields[idx].dtype)
        if "." in name:
            tail = name.rsplit(".", 1)[1]
            if self.schema.has_field(tail):
                idx = self.schema.index_of(tail)
                return BoundColumn(idx, tail, self.schema.fields[idx].dtype)
        suffix = "." + name.lower()
        matches = [
            i for i, f in enumerate(self.schema.fields)
            if f.name.lower().endswith(suffix)
        ]
        if len(matches) == 1:
            f = self.schema.fields[matches[0]]
            return BoundColumn(matches[0], f.name, f.dtype)
        if len(matches) > 1:
            raise AnalysisError(f"ambiguous column reference {name!r}")
        raise AnalysisError(
            f"column {name!r} not found in [{', '.join(self.schema.names())}]"
        )

    def _bind_literal(self, expr: ast.Literal) -> BoundLiteral:
        v = expr.value
        if expr.type_hint == "TIMESTAMP":
            return BoundLiteral(parse_timestamp_to_micros(v), DataType.TIMESTAMP)
        if expr.type_hint == "DATE":
            return BoundLiteral(parse_date_to_days(v), DataType.DATE)
        if v is None:
            return BoundLiteral(None, DataType.STRING)
        for kind, dtype in PLAIN_LITERAL_TYPES.items():
            if isinstance(v, kind):
                return BoundLiteral(v, dtype)
        raise AnalysisError(f"unsupported literal {v!r}")

    def _compare(self, op: str, left: BoundExpr, right: BoundExpr) -> BoundBinary:
        (left, right), _ = self.coerce([left, right], "comparison")
        return BoundBinary(op, left, right, DataType.BOOL)

    def _bind_binary(self, expr: ast.BinaryOp) -> BoundExpr:
        left = self.bind(expr.left)
        right = self.bind(expr.right)
        op = expr.op
        if op in ("AND", "OR"):
            return BoundBinary(op, left, right, DataType.BOOL)
        if op in _COMPARISONS:
            return self._compare(op, left, right)
        if op == "||":
            return BoundBinary(op, left, right, DataType.STRING)
        if op in ("+", "-", "*", "/", "%"):
            (left, right), dtype = self.coerce([left, right], f"'{op}'")
            return BoundBinary(op, left, right, DataType.FLOAT64 if op == "/" else dtype)
        raise AnalysisError(f"unknown binary operator {op}")

    def _bind_in_list(self, expr: ast.InList) -> BoundInList:
        """Each item meets the operand as ``operand = item`` would: an item
        whose type does not meet the operand's is an error, and the others
        are put in the operand's unit (see in_unit)."""
        operand = self.bind(expr.operand)
        dtype = operand.dtype
        values, kinds = [], set()
        for item in expr.items:
            # A pushed-down pruning list is thousands of plain literals,
            # whose value and type are what binding them would return.
            if (
                isinstance(item, ast.Literal) and item.type_hint is None
                and type(item.value) in PLAIN_LITERAL_TYPES
            ):
                values.append(item.value)
                kinds.add(PLAIN_LITERAL_TYPES[type(item.value)])
                continue
            bound = self.bind(item)
            if not isinstance(bound, BoundLiteral):
                raise AnalysisError("IN list items must be literals")
            kinds.add(None if bound.value is None else bound.dtype)
            exact, value = in_unit(bound.value, bound.dtype, dtype)
            if exact:
                values.append(value)
        if not _is_null(operand):
            for kind in kinds - {None, dtype}:
                if common_type(dtype, kind) is None:
                    raise AnalysisError(f"incompatible types {dtype.value} and {kind.value} in IN list")
        return BoundInList(operand, tuple(values), expr.negated, None in kinds)

    def _bind_unary(self, expr: ast.UnaryOp) -> BoundExpr:
        operand = self.bind(expr.operand)
        if expr.op == "NOT":
            return BoundUnary("NOT", operand, DataType.BOOL)
        if expr.op == "-":
            return BoundUnary("-", operand, operand.dtype)
        raise AnalysisError(f"unknown unary operator {expr.op}")

    def _bind_call(self, expr: ast.FunctionCall) -> BoundExpr:
        if expr.name in AGGREGATE_FUNCTIONS:
            raise AnalysisError(
                f"aggregate {expr.name}() not allowed here (only in SELECT/HAVING "
                "of a grouped query)"
            )
        fn = self.functions.lookup(expr.name)
        if len(expr.args) < fn.min_args or (
            fn.max_args is not None and len(expr.args) > fn.max_args
        ):
            raise AnalysisError(f"{fn.name}() arity mismatch: got {len(expr.args)} args")
        args = [self.bind(a) for a in expr.args]
        if fn.result_type is not None:
            dtype = fn.result_type([a.dtype for a in args])
        else:
            args[fn.meet_from:], dtype = self.coerce(args[fn.meet_from:], f"{fn.name}()")
        return BoundCall(expr.name.upper(), tuple(args), dtype, fn.impl)


# --------------------------------------------------------------------------
# Evaluator
# --------------------------------------------------------------------------


def evaluate(expr: BoundExpr, batch: RecordBatch) -> Column:
    """Evaluate a bound expression over a batch, returning one column."""
    if expr.codes_column is not None:
        column = batch.columns[expr.codes_column]
        if isinstance(column, DictionaryColumn) and 0 < len(column.dictionary) <= len(column):
            return _over_dictionary(expr, column)
    n = batch.num_rows
    if isinstance(expr, BoundColumn):
        return batch.column_at(expr.index)
    if isinstance(expr, BoundLiteral):
        return Column.repeat(expr.dtype, expr.value, n)
    if isinstance(expr, BoundBinary):
        return _eval_binary(expr, batch)
    if isinstance(expr, BoundUnary):
        operand = evaluate(expr.operand, batch)
        if expr.op == "NOT":
            values = ~operand.values.astype(bool)
            return Column(DataType.BOOL, values, operand.validity)
        if expr.op == "-":
            return Column(operand.dtype, -operand.values, operand.validity)
        raise ExecutionError(f"unknown unary op {expr.op}")
    if isinstance(expr, BoundIsNull):
        operand = evaluate(expr.operand, batch)
        null_mask = ~operand.is_valid()
        result = ~null_mask if expr.negated else null_mask
        return Column(DataType.BOOL, result)
    if isinstance(expr, BoundInList):
        operand = evaluate(expr.operand, batch)
        hits = _member_of(operand.values, expr.probe)
        return membership(hits, operand.validity, expr.has_null, empty=False, negated=expr.negated)
    if isinstance(expr, BoundLike):
        operand = evaluate(expr.operand, batch)
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
        operand = evaluate(expr.operand, batch)
        return _eval_cast(operand, expr.dtype)
    if isinstance(expr, BoundCall):
        args = [evaluate(a, batch) for a in expr.args]
        return expr.impl(args)
    raise ExecutionError(f"cannot evaluate {expr!r}")


def evaluate_predicate(expr: BoundExpr, batch: RecordBatch) -> np.ndarray:
    """Evaluate a boolean expression to a selection mask (NULL -> False)."""
    col = evaluate(expr, batch)
    # May be the column's own array: a mask is for indexing, never written to.
    values = col.values.astype(bool, copy=False)
    return values if col.validity is None else values & col.validity


class _Entries:
    """The batch a predicate over one dictionary column is evaluated on
    instead of the rows: that column's entries, one row each."""

    __slots__ = ("columns", "num_rows")

    def __init__(self, index: int, column: Column) -> None:
        self.columns = {index: column}
        self.num_rows = len(column)

    def column_at(self, index: int) -> Column:
        return self.columns[index]


def _over_dictionary(expr: BoundExpr, column: DictionaryColumn) -> Column:
    """``expr`` — a predicate reading only ``column`` beside literals, built
    from nodes that cannot raise (see :attr:`BoundExpr.codes_column`) —
    evaluated once per dictionary entry and gathered by code. Every node is
    row-wise, so row ``r`` gets what the decoded column's row would: the
    entry its code names, or, for a negative code, a null entry holding what
    :meth:`DictionaryColumn.decode` leaves under a null (entry 0). A code
    past the dictionary raises ``IndexError`` as decoding does. Entries no
    row of this batch uses are evaluated too; that is why a node that can
    raise, such as ``CAST(s AS INT64)``, never takes this path — it would
    fail on values the batch does not show."""
    entries = column.dictionary.values
    codes = column.codes
    if codes.min() >= 0:
        domain = Column(column.dtype, entries)
        at = codes
    else:
        present = np.ones(len(entries) + 1, dtype=bool)
        present[0] = False
        domain = Column(column.dtype, np.concatenate((entries[:1], entries)), present)
        at = np.maximum(codes, -1) + 1
    return evaluate(expr, _Entries(expr.codes_column, domain)).take(at)


def membership(
    hits: np.ndarray, validity: np.ndarray | None, has_null: bool, empty: bool, negated: bool
) -> Column:
    """SQL's ``x IN (list)``, one rule for literal lists and IN subqueries
    (the SEMI / ANTI join), from the rows a non-NULL item equals (``hits``)
    and the operand's ``validity``: TRUE on a hit; FALSE where the list as
    written is ``empty`` (only a subquery can be), or where a present operand
    misses a list with no NULL; NULL otherwise. NOT IN is its negation."""
    hits = hits if validity is None else hits & validity
    known = None if empty else hits if has_null else validity
    values = ~hits if negated else hits
    if negated and known is not None:
        values &= known
    return Column(DataType.BOOL, values, known)


def _membership_probe(dtype: DataType, values: tuple) -> "frozenset | tuple[np.ndarray, ...]":
    """The IN-list ``values`` in the form :func:`_member_of` tests an operand
    of ``dtype`` against, with ``==``'s meaning item by item: NULL and NaN
    items match nothing, ``1 == 1.0 == True``, and text equals only text.

    Variable-width operands probe a set. Fixed-width ones probe arrays of
    the numeric items: a FLOAT64 operand compares everything as float64;
    the int64-backed and BOOL ones compare int items exactly and float
    items as float64, so the two kinds stay in arrays of their own.
    """
    if dtype.is_variable_width:
        return frozenset(values)
    numbers = [v for v in values if isinstance(v, (int, float)) and v == v]
    if dtype is DataType.FLOAT64:
        arrays = [np.asarray(numbers, dtype=np.float64)]
    else:
        floats = [v for v in numbers if isinstance(v, float)]
        # An int no int64 holds equals no operand value.
        ints = [v for v in numbers if not isinstance(v, float) and -(2**63) <= v < 2**63]
        arrays = [np.asarray(floats, dtype=np.float64), np.asarray(ints, dtype=np.int64)]
    return tuple(array for array in arrays if array.size)


def _member_of(values: np.ndarray, probe: "frozenset | tuple[np.ndarray, ...]") -> np.ndarray:
    """Which of ``values`` the IN list holds: one membership pass per probe
    array, or one set probe per value of an object array."""
    if isinstance(probe, frozenset):
        return np.fromiter(map(probe.__contains__, values.tolist()), dtype=bool, count=len(values))
    hits = np.zeros(len(values), dtype=bool)
    for items in probe:
        hits |= np.isin(values, items)
    return hits


def _eval_binary(expr: BoundBinary, batch: RecordBatch) -> Column:
    op = expr.op
    if op in ("AND", "OR"):
        left = evaluate(expr.left, batch)
        right = evaluate(expr.right, batch)
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

    # A comparison's literal side stays one row; numpy broadcasts it.
    left, right = expr.scalars
    left = evaluate(expr.left, batch) if left is None else left
    right = evaluate(expr.right, batch) if right is None else right
    validity = _and_validity(left, right)

    if op == "||":
        out = [
            None if a is None or b is None else str(a) + str(b)
            for a, b in zip(left.to_pylist(), right.to_pylist())
        ]
        return Column(DataType.STRING, out, validity)

    if op in _COMPARISONS:
        lv, rv = left.values, right.values
        if lv.dtype == np.dtype(object) and op not in ("=", "!="):
            # Ordered comparison of object (string/bytes) arrays must skip
            # null placeholders, which do not support '<'.
            lv, rv = np.broadcast_arrays(lv, rv)
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
    branches = list(expr.whens)
    if expr.default is not None:
        branches.append((None, expr.default))
    for cond_expr, value_expr in branches:
        mask = ~decided
        if cond_expr is not None:
            mask &= evaluate_predicate(cond_expr, batch)
        if mask.any():
            decided |= mask
            if _is_null(value_expr):
                continue  # stays NULL; a NULL's placeholder may not fit the type
            branch = evaluate(value_expr, batch)
            mask &= branch.is_valid()
            values[mask] = branch.values[mask]
            valid[mask] = True
    return Column(out_dtype, values, None if bool(valid.all()) else valid)


def _int64_from_text(text: str) -> int:
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{value} is out of INT64 range")
    return value


# Each parser raises ValueError, KeyError or AnalysisError on a text that
# is no value of its type; _eval_cast turns that into one ExecutionError.
_FROM_STRING = {
    DataType.INT64: _int64_from_text, DataType.FLOAT64: float, DataType.BYTES: str.encode,
    DataType.BOOL: lambda v: {"true": True, "false": False}[v.lower()],
    DataType.DATE: parse_date_to_days, DataType.TIMESTAMP: parse_timestamp_to_micros,
}


def _parse_text(text: str, target: DataType) -> Any:
    try:
        return _FROM_STRING[target](text)
    except (ValueError, KeyError, AnalysisError):
        raise ExecutionError(f"cannot CAST {text!r} to {target.value}") from None


def _eval_cast(operand: Column, target: DataType) -> Column:
    if operand.dtype == target:
        return operand
    src = operand.dtype
    validity = operand.validity
    if src is DataType.DATE and target is DataType.TIMESTAMP:
        return Column(target, operand.values * MICROS_PER_DAY, validity)
    if src is DataType.TIMESTAMP and target is DataType.DATE:
        return Column(target, operand.values // MICROS_PER_DAY, validity)
    if src.is_numeric and target.is_numeric:
        return Column(target, operand.values.astype(target.numpy_dtype()), validity)
    if src is DataType.INT64 and target.is_temporal:
        return Column(target, operand.values, validity)
    if target is DataType.STRING:
        out = [None if v is None else str(v) for v in operand.to_pylist()]
        return Column(target, out, validity)
    if src is DataType.STRING and target in _FROM_STRING:
        return _map_values(operand, functools.partial(_parse_text, target=target), target)
    if src is DataType.BOOL and target is DataType.INT64:
        return Column(target, operand.values.astype(np.int64), validity)
    if src.is_numeric and target is DataType.BOOL:
        return Column(target, operand.values.astype(bool), validity)
    raise ExecutionError(f"unsupported CAST from {src.value} to {target.value}")


def _like_to_regex(pattern: str) -> re.Pattern:
    """Translate a SQL LIKE pattern to an anchored regex."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


def collect_column_refs(expr: ast.Expr) -> set[str]:
    """All column names referenced by a syntactic expression (for pruning
    and projection pushdown analysis); a subquery's columns are its own."""
    refs: set[str] = set()
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, ast.ColumnRef):
            refs.add(e.name)
        elif isinstance(e, ast.InList):
            # Pushed-down pruning lists are thousands of bare literals.
            stack.append(e.operand)
            stack.extend(item for item in e.items if not isinstance(item, ast.Literal))
        elif not isinstance(e, ast.InSubquery):
            stack.extend(ast.children(e))
    return refs
