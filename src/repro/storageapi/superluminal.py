"""Superluminal: vectorized scan-side evaluation inside the trust boundary.

The real Superluminal is a C++ library for vectorized evaluation of
GoogleSQL expressions used by the Read API to apply projections, user
filters, security filters, and data masking, transcoding results to Arrow
(§2.2.1). This reproduction does the same over numpy-backed batches, reusing
the bound-expression evaluator from :mod:`repro.sql.expressions`.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass

import numpy as np

from repro.data.batch import RecordBatch
from repro.data.column import Column, DictionaryColumn
from repro.data.types import DataType, Field, Schema
from repro.errors import AccessDeniedError, AnalysisError
from repro.obs.trace import NOOP_TRACER, Tracer
from repro.security.policies import EffectiveAccess, MaskingKind, apply_mask_value
from repro.sql import ast_nodes as ast
from repro.sql.expressions import (
    Binder,
    BoundExpr,
    FunctionRegistry,
    collect_column_refs,
    evaluate_predicate,
)
from repro.sql.parser import parse_expression


@dataclass
class ScanFilterStats:
    """Counters for one Superluminal pass."""

    rows_in: int = 0
    rows_out: int = 0
    values_masked: int = 0


class Superluminal:
    """Compiled enforcement pipeline for one (table schema, principal) pair.

    Compilation resolves the principal's effective access into bound
    expressions once; :meth:`process` then applies, per batch:

    1. the security row filter (union of applicable row policies),
    2. the caller's row restriction,
    3. data masking on masked columns,
    4. the column projection.

    Requesting a denied column fails at compile time — before any data
    moves — so a malicious engine cannot even construct the scan.

    A read session compiles one pipeline per effective access and shares it
    between its streams (:meth:`fresh`). ``row_restriction`` arrives as a
    tree: SQL text is the wire format and the session turns it into a tree
    once, at the trust boundary, where an in-process engine hands over the
    tree it holds; the only text compiled here is the table's own row
    policies.
    """

    def __init__(
        self,
        table_schema: Schema,
        access: EffectiveAccess,
        columns: list[str] | None = None,
        row_restriction: ast.Expr | None = None,
        functions: FunctionRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.table_schema = table_schema
        self.access = access
        self.stats = ScanFilterStats()
        self.tracer = tracer if tracer is not None else NOOP_TRACER

        if columns is None:
            projected = [
                f.name for f in table_schema if f.name not in access.denied_columns
            ]
        else:
            denied = [c for c in columns if c in access.denied_columns]
            if denied:
                raise AccessDeniedError(
                    f"column-level access denied on: {', '.join(sorted(denied))}"
                )
            projected = list(columns)
        self.columns = projected
        self.output_schema = table_schema.select(projected)

        binder = Binder(table_schema, functions)
        security = self._security_predicate() if access.row_policies_exist else None
        self._security_filter: BoundExpr | _DenyAll | None = None
        if access.sees_no_rows:
            self._security_filter = _DENY_ALL
        elif security is not None:
            self._security_filter = binder.bind(security)
        self._user_filter: BoundExpr | None = None
        refs = collect_column_refs(security) if security is not None else set()
        if row_restriction is not None:
            restriction_refs = collect_column_refs(row_restriction)
            self._bind_restriction(binder, row_restriction, restriction_refs)
            refs |= restriction_refs
        # Lower-cased names of the columns a scan must materialize for this
        # pipeline: the projection plus whatever either row filter reads.
        self.needed_columns = frozenset(c.lower() for c in projected) | {
            ref.rsplit(".", 1)[-1].lower() for ref in refs
        }
        self._masks = {
            name.lower(): kind
            for name, kind in access.masked_columns.items()
            if any(f.name.lower() == name.lower() for f in table_schema)
        }

    def _bind_restriction(self, binder: Binder, restriction: ast.Expr, refs: set[str]) -> None:
        """Bind the restriction against only the columns it reads: the
        sub-batch :meth:`process` evaluates it on. Errors are the ones
        binding against the whole table schema raises."""
        indexes = set()
        for ref in refs:
            try:
                indexes.add(binder.bind_column(ref).index)
            except AnalysisError:
                pass  # the whole-schema bind below raises it
        # A column-free restriction still needs a column for its row count.
        self._restriction_columns = sorted(indexes) or [0]
        self._restriction_schema = Schema(
            tuple(binder.schema.fields[i] for i in self._restriction_columns)
        )
        try:
            self._user_filter = Binder(self._restriction_schema, binder.functions).bind(restriction)
        except AnalysisError:
            binder.bind(restriction)
            raise

    def _security_predicate(self) -> ast.Expr | None:
        """OR together the row policies that apply to the principal (each
        distinct filter text parsed once)."""
        clauses = [parse_expression(sql) for sql in dict.fromkeys(self.access.row_filters)]
        return ast.conjoin(clauses, "OR")

    def fresh(self) -> "Superluminal":
        """The same compiled pipeline with counters of its own — one per
        stream read, so :class:`ScanFilterStats` stay per stream while the
        compile happens once per session."""
        clone = copy.copy(self)
        clone.stats = ScanFilterStats()
        return clone

    def process(self, batch: RecordBatch) -> RecordBatch:
        """Apply the full enforcement pipeline to one batch.

        One selection, one gather: the security filter yields the surviving
        row positions; the restriction runs on its own columns gathered at
        those positions only — it never sees a row the policy hides, so an
        expression that raises on a hidden value (``CAST(s AS INT64)``) does
        not fail the read — and narrows them; the projected columns are then
        gathered once (a dictionary column gathers its codes).
        """
        with self.tracer.span(
            "superluminal.process", layer="storageapi", rows_in=batch.num_rows
        ) as span:
            self.stats.rows_in += batch.num_rows
            masked_before = self.stats.values_masked
            if self._security_filter is _DENY_ALL:
                span.set_tag("rows_out", 0)
                return RecordBatch.empty(self.output_schema)
            rows = None  # positions of the surviving rows; None while all survive
            if self._security_filter is not None:
                rows = np.flatnonzero(evaluate_predicate(self._security_filter, batch))
            if self._user_filter is not None and (batch.num_rows if rows is None else len(rows)):
                columns = [batch.columns[i] for i in self._restriction_columns]
                if rows is not None:
                    columns = [column.take(rows) for column in columns]
                mask = evaluate_predicate(
                    self._user_filter, RecordBatch(self._restriction_schema, columns)
                )
                rows = np.flatnonzero(mask) if rows is None else rows[mask]
            out = batch.select(self.columns)
            if rows is not None and len(rows) == batch.num_rows:
                rows = None
            if self._masks and (out.num_rows if rows is None else len(rows)):
                out = self._apply_masks(out, rows)
            elif rows is not None:
                out = out.take(rows)
            self.stats.rows_out += out.num_rows
            span.set_tag("rows_out", out.num_rows)
            if self.stats.values_masked > masked_before:
                span.set_tag("masked", self.stats.values_masked - masked_before)
            return out

    def _apply_masks(self, batch: RecordBatch, rows: np.ndarray | None) -> RecordBatch:
        """``batch`` at ``rows`` (every row when None), its masked columns
        masked from the source column at those positions rather than from a
        gathered copy, so the texts a cached chunk memoises serve every
        request that reads it (:func:`mask_column`)."""
        fields, columns = [], []
        for field, column in zip(batch.schema, batch.columns):
            kind = self._masks.get(field.name.lower())
            if kind is None:
                fields.append(field)
                columns.append(column if rows is None else column.take(rows))
                continue
            masked = mask_column(column, kind, rows)
            self.stats.values_masked += len(masked)
            fields.append(Field(field.name, masked.dtype, nullable=True))
            columns.append(masked)
        return RecordBatch(Schema(tuple(fields)), columns)


class _DenyAll:
    """Sentinel: row policies exist but none admits this principal."""


_DENY_ALL = _DenyAll()


#: The per-value text masks, one stable function per kind: a column's text
#: memo is keyed by it.
_TEXT_MASKS = {
    kind: functools.partial(apply_mask_value, kind)
    for kind in (MaskingKind.HASH, MaskingKind.LAST_FOUR)
}


def mask_column(
    column: Column | DictionaryColumn, kind: MaskingKind, positions: np.ndarray | None = None
) -> Column:
    """The values of ``column`` at ``positions`` (every row when None)
    masked with the semantics of
    :func:`repro.security.policies.apply_mask_value`.

    HASH and LAST_FOUR texts are memoised on ``column`` (:meth:`Column.texts`)
    — for a dictionary column, per entry of its shared dictionary — so a
    cached chunk masks each value once however many requests read it. A
    mask text is a function of the value alone; the output gathers only
    the requested positions."""
    encoded = isinstance(column, DictionaryColumn)
    if encoded:
        if positions is not None:
            column = column.take(positions)  # codes only
        validity = column.codes >= 0
        n = len(column)
    else:
        if positions is None:
            positions = np.arange(len(column))
        validity = None if column.validity is None else column.validity[positions]
        n = len(positions)
    if kind is MaskingKind.NULLIFY:
        return Column.nulls(column.dtype, n)
    if kind is MaskingKind.DEFAULT_VALUE:
        defaults = {
            DataType.STRING: "",
            DataType.BYTES: b"",
            DataType.BOOL: False,
            DataType.INT64: 0,
            DataType.FLOAT64: 0.0,
            DataType.TIMESTAMP: 0,
            DataType.DATE: 0,
        }
        return Column(
            column.dtype,
            Column.repeat(column.dtype, defaults[column.dtype], n).values,
            validity,
        )
    mask = _TEXT_MASKS.get(kind)
    if mask is None:
        raise ValueError(f"unknown masking kind {kind}")
    texts = column.texts(mask) if encoded else column.texts(mask, positions)
    return Column(DataType.STRING, texts, validity)
