"""Table lifecycle and the DML handler.

Creation paths cover every table kind in the paper; DML (CTAS, INSERT,
UPDATE, DELETE, MERGE) executes against managed storage directly and
against BLMTs via copy-on-write file rewrites committed through Big
Metadata transactions (§3.5).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.data.batch import RecordBatch, batch_from_pydict, concat_batches
from repro.data.column import Column
from repro.data.types import Schema
from repro.errors import AnalysisError, QueryError
from repro.metastore.catalog import (
    MetadataCacheConfig,
    MetadataCacheMode,
    StorageDescriptor,
    TableInfo,
    TableKind,
)
from repro.security.iam import Permission, Principal
from repro.sql import ast_nodes as ast
from repro.sql.analysis import extract_constraints
from repro.sql.expressions import Binder, evaluate, evaluate_predicate
from repro.storageapi.read_api import OBJECT_TABLE_SCHEMA

from repro.core.blmt import BlmtManager


class TableManager:
    """Creates tables and executes DML for a platform.

    Takes the platform's services, never the platform: the platform owns
    this manager, and a reference back would make the pair cyclic garbage.
    """

    def __init__(
        self, project: str, catalog, managed, connections, stores, iam, bigmeta,
        ctx, ml,
    ) -> None:
        self.project = project
        self.catalog = catalog
        self.managed = managed
        self.connections = connections
        self.stores = stores
        self.iam = iam
        self.bigmeta = bigmeta
        self.ml = ml
        self.blmt = BlmtManager(bigmeta=bigmeta, stores=stores, ctx=ctx)

    # ------------------------------------------------------------------
    # Creation
    # ------------------------------------------------------------------

    def create_managed_table(
        self, dataset: str, name: str, schema: Schema, replace: bool = False
    ) -> TableInfo:
        table = TableInfo(
            project=self.project,
            dataset=dataset,
            name=name,
            kind=TableKind.MANAGED,
            schema=schema,
        )
        self.catalog.create_table(table, replace=replace)
        self.managed.create(table.table_id, schema, replace=replace)
        return table

    def create_biglake_table(
        self,
        principal: Principal,
        dataset: str,
        name: str,
        schema: Schema,
        bucket: str,
        prefix: str,
        connection_name: str,
        partition_columns: list[str] | None = None,
        cache_mode: MetadataCacheMode = MetadataCacheMode.DISABLED,
        max_staleness_ms: float = 3_600_000.0,
    ) -> TableInfo:
        """Create a BigLake table over existing lake files (§3).

        The creating user must be authorized to *use* the connection; the
        connection's service account — not the user — must hold bucket
        access (delegated access, §3.1).
        """
        conn = self.connections.get_connection(connection_name)
        self.connections.authorize_use(principal, conn)
        location = self.stores.find_bucket(bucket).region.location
        table = TableInfo(
            project=self.project,
            dataset=dataset,
            name=name,
            kind=TableKind.BIGLAKE,
            schema=schema,
            storage=StorageDescriptor(bucket=bucket, prefix=prefix, location=location),
            connection_name=connection_name,
            partition_columns=partition_columns or [],
            cache_config=MetadataCacheConfig(
                mode=cache_mode, max_staleness_ms=max_staleness_ms
            ),
        )
        self.catalog.create_table(table)
        if cache_mode is not MetadataCacheMode.DISABLED:
            self.bigmeta.register_table(table.table_id)
        return table

    def create_object_table(
        self,
        principal: Principal,
        dataset: str,
        name: str,
        bucket: str,
        prefix: str,
        connection_name: str,
        max_staleness_ms: float = 3_600_000.0,
    ) -> TableInfo:
        """Create an Object table over unstructured objects (§4.1)."""
        conn = self.connections.get_connection(connection_name)
        self.connections.authorize_use(principal, conn)
        location = self.stores.find_bucket(bucket).region.location
        table = TableInfo(
            project=self.project,
            dataset=dataset,
            name=name,
            kind=TableKind.OBJECT,
            schema=OBJECT_TABLE_SCHEMA,
            storage=StorageDescriptor(bucket=bucket, prefix=prefix, location=location),
            connection_name=connection_name,
            cache_config=MetadataCacheConfig(
                mode=MetadataCacheMode.AUTOMATIC, max_staleness_ms=max_staleness_ms
            ),
        )
        self.catalog.create_table(table)
        self.bigmeta.register_table(table.table_id)
        return table

    def create_blmt(
        self,
        principal: Principal,
        dataset: str,
        name: str,
        schema: Schema,
        bucket: str,
        prefix: str,
        connection_name: str,
        clustering_columns: list[str] | None = None,
        auto_iceberg_snapshots: bool = False,
    ) -> TableInfo:
        """Create a BigLake managed table (§3.5): data in the customer
        bucket, metadata owned by Big Metadata.

        ``auto_iceberg_snapshots=True`` enables the paper's future-work
        behaviour: an Iceberg snapshot is exported as part of every table
        commit instead of on explicit request."""
        conn = self.connections.get_connection(connection_name)
        self.connections.authorize_use(principal, conn)
        # BLMT writes require a connection with write access to the bucket.
        self.iam.require(
            conn.service_account, Permission.STORAGE_OBJECTS_CREATE, f"buckets/{bucket}"
        )
        location = self.stores.find_bucket(bucket).region.location
        table = TableInfo(
            project=self.project,
            dataset=dataset,
            name=name,
            kind=TableKind.BLMT,
            schema=schema,
            storage=StorageDescriptor(bucket=bucket, prefix=prefix, location=location),
            connection_name=connection_name,
            clustering_columns=clustering_columns or [],
            options={"auto_iceberg_snapshots": auto_iceberg_snapshots},
        )
        self.catalog.create_table(table)
        self.bigmeta.register_table(table.table_id)
        return table

    # ------------------------------------------------------------------
    # DML dispatch (engine callback)
    # ------------------------------------------------------------------

    def execute_dml(self, statement: ast.Statement, engine, principal: Principal):
        if isinstance(statement, ast.CreateTableAsSelect):
            return self._ctas(statement, engine, principal)
        if isinstance(statement, ast.InsertValues):
            return self._insert_values(statement, engine, principal)
        if isinstance(statement, ast.InsertSelect):
            return self._insert_select(statement, engine, principal)
        if isinstance(statement, ast.Update):
            return self._update(statement, engine, principal)
        if isinstance(statement, ast.Delete):
            return self._delete(statement, engine, principal)
        if isinstance(statement, ast.Merge):
            return self._merge(statement, engine, principal)
        if isinstance(statement, ast.CreateModel):
            self.ml.create_model_from_sql(statement)
            return self._dml_result(0)
        raise QueryError(f"unsupported statement {type(statement).__name__}")

    def _dml_result(self, rows_affected: int):
        from repro.engine.engine import QueryResult, QueryStats

        return QueryResult(
            schema=Schema(()),
            batches=[],
            stats=QueryStats(),
            rows_affected=rows_affected,
        )

    def _require_write(self, principal: Principal, table: TableInfo) -> None:
        self.iam.require(
            principal, Permission.TABLES_UPDATE_DATA, table.resource_name
        )

    # -- CTAS -----------------------------------------------------------------

    def _ctas(self, statement: ast.CreateTableAsSelect, engine, principal: Principal):
        if len(statement.table) < 2:
            raise AnalysisError("CTAS target must be dataset.table")
        dataset, name = statement.table[-2], statement.table[-1]
        # Before the catalog entry or storage is created or replaced: an
        # abort could not bring the replaced table back.
        self._reject_in_txn(".".join(statement.table))
        result = engine.execute(statement.query, principal)
        table = self.create_managed_table(dataset, name, result.schema, replace=statement.replace)
        self.append(table, result.batches)
        out = self._dml_result(result.num_rows)
        out.stats = result.stats
        return out

    # -- INSERT ----------------------------------------------------------------

    def _insert_values(self, statement: ast.InsertValues, engine, principal: Principal):
        table = self.catalog.resolve(statement.table)
        self._require_write(principal, table)
        binder = Binder(Schema(()), engine.functions)
        one_row = _placeholder_batch()
        columns = statement.columns or table.schema.names()
        data: dict[str, list[Any]] = {name: [] for name in table.schema.names()}
        for row in statement.rows:
            if len(row) != len(columns):
                raise AnalysisError("INSERT arity mismatch")
            values = {
                col: evaluate(binder.bind(expr), one_row)[0]
                for col, expr in zip(columns, row)
            }
            for name in data:
                data[name].append(values.get(name))
        batch = batch_from_pydict(table.schema, data)
        self.append(table, [batch])
        return self._dml_result(batch.num_rows)

    def _insert_select(self, statement: ast.InsertSelect, engine, principal: Principal):
        table = self.catalog.resolve(statement.table)
        self._require_write(principal, table)
        result = engine.execute(statement.query, principal)
        columns = statement.columns or table.schema.names()
        if len(result.schema) != len(columns):
            raise AnalysisError("INSERT SELECT arity mismatch")
        combined = concat_batches(result.schema, result.batches)
        data: dict[str, list[Any]] = {}
        by_position = combined.to_pydict()
        source_names = list(by_position)
        for name in table.schema.names():
            if name in columns:
                data[name] = by_position[source_names[columns.index(name)]]
            else:
                data[name] = [None] * combined.num_rows
        batch = batch_from_pydict(table.schema, data)
        self.append(table, [batch])
        return self._dml_result(batch.num_rows)

    def append(self, table: TableInfo, batches: list[RecordBatch]) -> None:
        """Land rows in ``table``'s storage as one commit: the one kind-dispatch
        every append (INSERT, CTAS, MERGE's inserts, the Write API) goes through."""
        if table.kind is TableKind.MANAGED:
            self._reject_in_txn(table.table_id)
            for batch in batches:
                self.managed.append(table.table_id, batch)
            table.version += 1
        elif table.kind is TableKind.BLMT:
            self.blmt.insert(table, batches)
        else:
            raise QueryError(f"cannot INSERT into {table.kind.value} table")

    # -- UPDATE / DELETE ------------------------------------------------------------

    def _update(self, statement: ast.Update, engine, principal: Principal):
        table = self.catalog.resolve(statement.table)
        self._require_write(principal, table)
        binder = Binder(table.schema, engine.functions)
        predicate = binder.bind(statement.where) if statement.where is not None else None
        assignments = [
            (table.schema.field(col).name, binder.bind(expr))
            for col, expr in statement.assignments
        ]

        def transform(batch: RecordBatch):
            mask = (
                evaluate_predicate(predicate, batch)
                if predicate is not None
                else np.ones(batch.num_rows, dtype=bool)
            )
            affected = int(mask.sum())
            if affected == 0:
                return batch, 0
            out = batch
            for name, bound in assignments:
                new_col = evaluate(bound, batch)
                old_col = batch.column(name)
                merged_values = np.where(mask, new_col.values, old_col.values)
                merged_valid = np.where(mask, new_col.is_valid(), old_col.is_valid())
                field = table.schema.field(name)
                merged = Column(
                    field.dtype, merged_values,
                    None if bool(merged_valid.all()) else merged_valid,
                )
                out = out.with_column(field, merged)
            return out, affected

        return self._dml_result(self._mutate(table, statement.where, transform))

    def _delete(self, statement: ast.Delete, engine, principal: Principal):
        table = self.catalog.resolve(statement.table)
        self._require_write(principal, table)
        binder = Binder(table.schema, engine.functions)
        predicate = binder.bind(statement.where) if statement.where is not None else None

        def transform(batch: RecordBatch):
            if predicate is None:
                return None, batch.num_rows
            mask = evaluate_predicate(predicate, batch)
            affected = int(mask.sum())
            if affected == 0:
                return batch, 0
            remaining = batch.filter(~mask)
            if remaining.num_rows == 0:
                return None, affected
            return remaining, affected

        return self._dml_result(self._mutate(table, statement.where, transform))

    def _reject_in_txn(self, table_id: str) -> None:
        """Managed tables apply DML in place (no buffered commit protocol),
        so letting one slip inside a multi-table transaction would silently
        break atomicity — fail loudly instead."""
        if self.blmt._active_txn() is not None:
            raise QueryError(
                f"cannot write managed table {table_id} inside "
                "a multi-table transaction (BLMT tables only)"
            )

    def _mutate(self, table: TableInfo, where: ast.Expr | None, transform) -> int:
        """Rewrite ``table``'s rows through ``transform`` as one commit — the
        one kind-dispatch every UPDATE / DELETE / MERGE goes through.
        ``where`` only prunes BLMT candidate files (None: every file)."""
        if table.kind is TableKind.MANAGED:
            self._reject_in_txn(table.table_id)
            affected = 0
            new_batches = []
            for batch in self.managed.read(table.table_id):
                result, n = transform(batch)
                affected += n
                if result is not None and result.num_rows:
                    new_batches.append(result)
            self.managed.replace_contents(table.table_id, new_batches)
            table.version += 1
            return affected
        if table.kind is TableKind.BLMT:
            return self.blmt.rewrite_rows(table, extract_constraints(where, table.schema), transform)
        raise QueryError(f"cannot mutate {table.kind.value} table")

    # -- MERGE ----------------------------------------------------------------------

    def _merge(self, statement: ast.Merge, engine, principal: Principal):
        """MERGE: hash the source on the equi-keys of the ON clause, then
        rewrite matching target rows / insert unmatched source rows."""
        table = self.catalog.resolve(statement.target)
        self._require_write(principal, table)
        target_alias = statement.target_alias or statement.target[-1]

        # Materialize the source with qualified column names.
        source_select = ast.Select(items=[ast.SelectItem(ast.Star())], from_item=statement.source)
        source_result = engine.execute(source_select, principal)
        source_alias = getattr(statement.source, "alias", None) or "source"
        source = concat_batches(source_result.schema, source_result.batches)
        source_schema = Schema(
            tuple(
                type(f)(f"{source_alias}.{f.name.rsplit('.', 1)[-1]}", f.dtype, f.nullable)
                for f in source.schema
            )
        )
        source = RecordBatch(source_schema, source.columns)

        # Split the ON condition into target/source key expressions.
        target_schema = table.schema.rename_all(target_alias)
        from repro.engine.planner import _split_join_condition

        equi, residual = _split_join_condition(statement.on)
        if not equi or residual:
            raise AnalysisError("MERGE requires a pure equi-join ON clause")
        target_binder = Binder(target_schema, engine.functions)
        source_binder = Binder(source_schema, engine.functions)
        target_keys: list = []
        source_keys: list = []
        for left, right in equi:
            if _binds_in(target_binder, left) and _binds_in(source_binder, right):
                target_keys.append(left)
                source_keys.append(right)
            elif _binds_in(target_binder, right) and _binds_in(source_binder, left):
                target_keys.append(right)
                source_keys.append(left)
            else:
                raise AnalysisError("MERGE ON must compare target and source columns")

        source_key_cols = [evaluate(source_binder.bind(k), source) for k in source_keys]
        source_key_lists = [c.to_pylist() for c in source_key_cols]
        source_index: dict[tuple, int] = {}
        for i in range(source.num_rows):
            key = tuple(lst[i] for lst in source_key_lists)
            if key in source_index:
                raise QueryError("MERGE source has duplicate join keys")
            source_index[key] = i

        combined_schema = target_schema.merge(source_schema)
        combined_binder = Binder(combined_schema, engine.functions)
        matched_source_rows: set[int] = set()

        def transform(batch: RecordBatch):
            qualified = batch.rename(target_schema.names())
            key_cols = [evaluate(target_binder.bind(k), qualified) for k in target_keys]
            key_lists = [c.to_pylist() for c in key_cols]
            match_idx = np.full(batch.num_rows, -1, dtype=np.int64)
            for i in range(batch.num_rows):
                j = source_index.get(tuple(lst[i] for lst in key_lists))
                if j is not None:
                    match_idx[i] = j
                    matched_source_rows.add(j)
            matched_mask = match_idx >= 0
            if not matched_mask.any():
                return batch, 0
            source_rows = source.take(np.where(matched_mask, match_idx, 0))
            combined = RecordBatch(
                combined_schema, list(qualified.columns) + list(source_rows.columns)
            )
            keep = np.ones(batch.num_rows, dtype=bool)
            out = batch
            decided = np.zeros(batch.num_rows, dtype=bool)
            affected = 0
            for when in statement.whens:
                if not when.matched:
                    continue
                applies = matched_mask & ~decided
                if when.condition is not None:
                    cond = evaluate_predicate(
                        combined_binder.bind(when.condition), combined
                    )
                    applies = applies & cond
                if not applies.any():
                    continue
                decided |= applies
                affected += int(applies.sum())
                if when.action == "DELETE":
                    keep &= ~applies
                elif when.action == "UPDATE":
                    for col, expr in when.assignments:
                        field = table.schema.field(col)
                        new_col = evaluate(combined_binder.bind(expr), combined)
                        old_col = out.column(field.name)
                        merged_values = np.where(applies, new_col.values, old_col.values)
                        merged_valid = np.where(
                            applies, new_col.is_valid(), old_col.is_valid()
                        )
                        out = out.with_column(
                            field,
                            Column(
                                field.dtype, merged_values,
                                None if bool(merged_valid.all()) else merged_valid,
                            ),
                        )
            if affected == 0:
                return batch, 0
            result = out.filter(keep)
            if result.num_rows == 0:
                return None, affected
            return result, affected

        # MERGE must see every row to find matches: no pruning predicate.
        affected = self._mutate(table, None, transform)

        # WHEN NOT MATCHED: insert source rows no target row matched.
        insert_whens = [w for w in statement.whens if not w.matched and w.action == "INSERT"]
        inserted = 0
        if insert_whens:
            unmatched = [i for i in range(source.num_rows) if i not in matched_source_rows]
            if unmatched:
                when = insert_whens[0]
                rows_batch = source.take(np.asarray(unmatched, dtype=np.int64))
                cond_mask = np.ones(rows_batch.num_rows, dtype=bool)
                if when.condition is not None:
                    cond_mask = evaluate_predicate(
                        source_binder.bind(when.condition), rows_batch
                    )
                rows_batch = rows_batch.filter(cond_mask)
                if rows_batch.num_rows:
                    columns = when.insert_columns or table.schema.names()
                    data: dict[str, list[Any]] = {}
                    for name in table.schema.names():
                        if name in columns:
                            expr = when.insert_values[columns.index(name)]
                            col = evaluate(source_binder.bind(expr), rows_batch)
                            data[name] = col.to_pylist()
                        else:
                            data[name] = [None] * rows_batch.num_rows
                    batch = batch_from_pydict(table.schema, data)
                    self.append(table, [batch])
                    inserted = batch.num_rows
        return self._dml_result(affected + inserted)


def _binds_in(binder: Binder, expr: ast.Expr) -> bool:
    try:
        binder.bind(expr)
        return True
    except AnalysisError:
        return False


def _placeholder_batch() -> RecordBatch:
    from repro.data.types import DataType

    schema = Schema.of(("$dummy", DataType.INT64))
    return RecordBatch(schema, [Column(DataType.INT64, [0])])
