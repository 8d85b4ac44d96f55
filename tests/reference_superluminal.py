"""Superluminal's pipeline as it was before one selection and one gather:
the restriction bound against the whole table schema and each filter
applied to every column of the batch in turn, over the decode-first
evaluator of ``tests/reference_expressions.py``. ``process`` is kept
verbatim (only ``evaluate_predicate`` is the reference's); compilation,
projection and masking are ``Superluminal``'s own — ``_apply_masks`` here
only adapts its call to a batch that is already filtered.

Not collected by pytest (no ``test_`` prefix); the oracle of
tests/test_encoded_predicates.py.
"""

from __future__ import annotations

from repro.data.batch import RecordBatch
from repro.sql.expressions import Binder
from repro.storageapi.superluminal import _DENY_ALL, Superluminal

from tests.reference_expressions import reference_evaluate_predicate as evaluate_predicate


class ReferenceSuperluminal(Superluminal):
    def __init__(self, table_schema, access, columns=None, row_restriction=None, functions=None):
        super().__init__(table_schema, access, columns, row_restriction, functions)
        if row_restriction is not None:
            self._user_filter = Binder(table_schema, functions).bind(row_restriction)

    def _apply_masks(self, batch: RecordBatch, rows=None) -> RecordBatch:
        return super()._apply_masks(batch, rows)

    def process(self, batch: RecordBatch) -> RecordBatch:
        """Apply the full enforcement pipeline to one batch."""
        with self.tracer.span(
            "superluminal.process", layer="storageapi", rows_in=batch.num_rows
        ) as span:
            self.stats.rows_in += batch.num_rows
            masked_before = self.stats.values_masked
            if self._security_filter is _DENY_ALL:
                span.set_tag("rows_out", 0)
                return RecordBatch.empty(self.output_schema)
            if self._security_filter is not None:
                mask = evaluate_predicate(self._security_filter, batch)
                batch = batch.filter(mask)
            if self._user_filter is not None and batch.num_rows:
                mask = evaluate_predicate(self._user_filter, batch)
                batch = batch.filter(mask)
            out = batch.select(self.columns)
            if self._masks and out.num_rows:
                out = self._apply_masks(out)
            self.stats.rows_out += out.num_rows
            span.set_tag("rows_out", out.num_rows)
            if self.stats.values_masked > masked_before:
                span.set_tag("masked", self.stats.values_masked - masked_before)
            return out
