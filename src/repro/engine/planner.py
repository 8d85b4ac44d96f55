"""AST -> logical plan translation (the analyzer/planner)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.data.types import DataType, Field, Schema
from repro.errors import AnalysisError
from repro.metastore.catalog import Catalog, TableInfo, TableKind
from repro.sql import ast_nodes as ast
from repro.sql.expressions import (
    AGGREGATE_FUNCTIONS, Binder, BoundColumn, BoundExpr, BoundLiteral, FunctionRegistry,
)
from repro.storageapi.read_api import OBJECT_TABLE_SCHEMA

from repro.engine.plan import (
    AggregateNode,
    AggSpec,
    DistinctNode,
    FilterNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
    SystemTableNode,
    TvfNode,
    UnionAllNode,
)

# Resolves a TVF's output schema: (tvf_name, model_path, input_schema) -> Schema.
TvfSchemaResolver = Callable[[str, tuple[str, ...], Schema | None], Schema]


@dataclass
class _AggState:
    """Aggregates and group keys discovered while rewriting expressions."""

    specs: list[AggSpec] = field(default_factory=list)
    by_signature: dict[tuple, str] = field(default_factory=dict)  # ast.key -> output name


class Planner:
    """Translates SELECT ASTs into logical plans against a catalog."""

    def __init__(
        self,
        catalog: Catalog,
        functions: FunctionRegistry | None = None,
        tvf_schema_resolver: TvfSchemaResolver | None = None,
        system_tables=None,  # repro.obs.system_tables.SystemTables
    ) -> None:
        self.catalog = catalog
        self.functions = functions or FunctionRegistry()
        self.tvf_schema_resolver = tvf_schema_resolver
        self.system_tables = system_tables

    # ------------------------------------------------------------------

    def plan_select(self, select: ast.Select) -> PlanNode:
        plan = self._plan_query_block(select)
        if select.union_all is not None:
            other = self.plan_select(select.union_all)
            if len(other.schema) != len(plan.schema):
                raise AnalysisError("UNION ALL arms have different column counts")
            plan = self._plan_union(plan, other)
        return plan

    def _plan_union(self, first: PlanNode, second: PlanNode) -> UnionAllNode:
        """Both arms, each column cast to the type the two meet in there."""
        arms = (first, second)
        dtypes = [
            Binder.coerce([_output_column(arm, i) for arm in arms], "UNION ALL")[1]
            for i in range(len(first.schema))
        ]
        inputs = [_cast_columns(arm, dtypes) for arm in arms]
        return UnionAllNode(inputs=inputs, schema=inputs[0].schema)

    def _plan_query_block(self, select: ast.Select) -> PlanNode:
        join_context = isinstance(select.from_item, ast.Join)
        if select.from_item is not None:
            plan = self._plan_from(select.from_item, join_context)
        else:
            plan = _one_row_plan()

        if select.where is not None:
            plan = self._plan_where(plan, select.where)

        alias_map = {
            item.alias.lower(): item.expr
            for item in select.items
            if item.alias is not None and not isinstance(item.expr, ast.Star)
        }

        group_exprs = [
            self._resolve_group_expr(g, select.items, alias_map) for g in select.group_by
        ]

        agg_state = _AggState()
        rewritten_items: list[ast.SelectItem] = []
        for item in select.items:
            if isinstance(item.expr, ast.Star):
                rewritten_items.append(item)
            else:
                # Derive the output name before any rewriting replaces the
                # expression with synthesized ($key/$agg) references.
                alias = item.alias
                if alias is None and isinstance(item.expr, ast.ColumnRef):
                    alias = item.expr.parts[-1]
                rewritten_items.append(
                    ast.SelectItem(self._extract_aggs(item.expr, agg_state), alias)
                )
        having = (
            self._extract_aggs(self._substitute_aliases(select.having, alias_map), agg_state)
            if select.having is not None
            else None
        )
        order_items = [
            ast.OrderItem(
                self._extract_aggs(self._substitute_aliases(o.expr, alias_map), agg_state)
                if not isinstance(o.expr, ast.Literal)
                else o.expr,
                o.ascending,
            )
            for o in select.order_by
        ]

        if agg_state.specs or group_exprs:
            plan, key_names = self._plan_aggregate(plan, group_exprs, agg_state)
            # Replace group expressions appearing verbatim with key refs.
            substitutions = dict(zip(map(ast.key, group_exprs), key_names))
            rewritten_items = [
                ast.SelectItem(self._substitute_exprs(i.expr, substitutions), i.alias)
                if not isinstance(i.expr, ast.Star)
                else i
                for i in rewritten_items
            ]
            if having is not None:
                having = self._substitute_exprs(having, substitutions)
                plan = FilterNode(child=plan, predicate=having, schema=plan.schema)
            order_items = [
                ast.OrderItem(self._substitute_exprs(o.expr, substitutions), o.ascending)
                if not isinstance(o.expr, ast.Literal)
                else o
                for o in order_items
            ]
        elif select.having is not None:
            raise AnalysisError("HAVING requires aggregation")

        plan = self._plan_projection(plan, rewritten_items, join_context)

        if select.distinct:
            plan = DistinctNode(child=plan, schema=plan.schema)

        if order_items:
            plan = self._plan_order_by(plan, order_items)

        if select.limit is not None:
            plan = LimitNode(child=plan, limit=select.limit, schema=plan.schema)
        return plan

    def _plan_where(self, plan: PlanNode, where: ast.Expr) -> PlanNode:
        """Split the WHERE conjunction: IN-subquery conjuncts become
        semi/anti joins; everything else stays a filter."""
        regular: list[ast.Expr] = []
        for conjunct in ast.conjuncts(where):
            subquery = _as_in_subquery(conjunct)
            if subquery is not None:
                plan = self._plan_in_subquery(plan, subquery)
            else:
                regular.append(conjunct)
        predicate = ast.conjoin(regular)
        if predicate is not None:
            plan = FilterNode(child=plan, predicate=predicate, schema=plan.schema)
        return plan

    def _plan_in_subquery(self, outer: PlanNode, node: ast.InSubquery) -> JoinNode:
        """Lower ``x [NOT] IN (SELECT ...)`` to a semi/anti join."""
        sub_plan = self.plan_select(node.query)
        if len(sub_plan.schema) != 1:
            raise AnalysisError(
                "IN (SELECT ...) subquery must produce exactly one column"
            )
        sub_column = ast.ColumnRef((sub_plan.schema.fields[0].name,))
        keys = (node.operand, sub_column)
        bound = [Binder(outer.schema, self.functions).bind(node.operand), _output_column(sub_plan, 0)]
        return JoinNode(
            kind="ANTI" if node.negated else "SEMI",
            left=outer,
            right=sub_plan,
            schema=outer.schema,
            equi_keys=[_meet_keys(keys, bound, "IN (SELECT ...)")],
        )

    # -- FROM ------------------------------------------------------------

    def _plan_from(self, item: ast.FromItem, join_context: bool) -> PlanNode:
        if isinstance(item, ast.TableRef):
            return self._plan_table(item, join_context)
        if isinstance(item, ast.SubqueryRef):
            plan = self.plan_select(item.query)
            if join_context and item.alias:
                plan = _qualify(plan, item.alias)
            return plan
        if isinstance(item, ast.TvfRef):
            return self._plan_tvf(item)
        if isinstance(item, ast.Join):
            left = self._plan_from(item.left, True)
            right = self._plan_from(item.right, True)
            schema = left.schema.merge(right.schema)
            if item.kind == "CROSS":
                return JoinNode(kind="CROSS", left=left, right=right, schema=schema)
            equi, residual = _split_join_condition(item.condition)
            oriented, extra_residual = _orient_equi_keys(
                equi, left.schema, right.schema, self.functions
            )
            return JoinNode(
                kind=item.kind, left=left, right=right, schema=schema,
                equi_keys=oriented, residual=ast.conjoin(residual + extra_residual),
            )
        raise AnalysisError(f"unsupported FROM item {item!r}")

    def _plan_table(self, ref: ast.TableRef, join_context: bool) -> PlanNode:
        if self.system_tables is not None and self.system_tables.resolves(ref.path):
            return self._plan_system_table(ref, join_context)
        table = self.catalog.resolve(ref.path)
        base = OBJECT_TABLE_SCHEMA if table.kind is TableKind.OBJECT else table.schema
        qualifier = ref.alias or ref.path[-1]
        if join_context:
            schema = base.rename_all(qualifier)
        else:
            schema = base
        return ScanNode(
            table=table,
            schema=schema,
            columns=base.names(),
            qualifier=qualifier if join_context else None,
            snapshot_ms=self._system_time_ms(ref),
        )

    def _plan_system_table(self, ref: ast.TableRef, join_context: bool) -> SystemTableNode:
        if ref.system_time is not None:
            raise AnalysisError(
                "INFORMATION_SCHEMA tables do not support FOR SYSTEM_TIME AS OF"
            )
        name = self.system_tables.normalize(ref.path)
        base = self.system_tables.schema(name)
        qualifier = ref.alias or ref.path[-1]
        schema = base.rename_all(qualifier) if join_context else base
        return SystemTableNode(
            name=name,
            schema=schema,
            base_schema=base,
            qualifier=qualifier if join_context else None,
        )

    def _system_time_ms(self, ref: ast.TableRef) -> float | None:
        """Evaluate ``FOR SYSTEM_TIME AS OF`` to a snapshot in simulated
        milliseconds (TIMESTAMP values are microseconds since epoch; the
        simulation clock counts milliseconds from the same origin)."""
        if ref.system_time is None:
            return None
        from repro.data.column import Column
        from repro.data.types import DataType as _DT
        from repro.data.batch import RecordBatch
        from repro.sql.expressions import evaluate

        bound = Binder(Schema(()), self.functions).bind(ref.system_time)
        if bound.dtype not in (_DT.TIMESTAMP, _DT.DATE):
            raise AnalysisError("FOR SYSTEM_TIME AS OF expects a TIMESTAMP")
        one_row = RecordBatch(
            Schema.of(("$dummy", _DT.INT64)), [Column(_DT.INT64, [0])]
        )
        value = evaluate(bound, one_row)[0]
        if bound.dtype is _DT.DATE:
            from repro.sql.dates import MICROS_PER_DAY

            value = value * MICROS_PER_DAY
        return value / 1000.0

    def _plan_tvf(self, ref: ast.TvfRef) -> TvfNode:
        if self.tvf_schema_resolver is None:
            raise AnalysisError(f"no handler registered for {ref.name}")
        input_plan: PlanNode | None = None
        input_table: TableInfo | None = None
        input_schema: Schema | None = None
        if ref.input_query is not None:
            input_plan = self.plan_select(ref.input_query)
            input_schema = input_plan.schema
        elif ref.input_table is not None:
            input_table = self.catalog.resolve(ref.input_table)
            input_schema = (
                OBJECT_TABLE_SCHEMA
                if input_table.kind is TableKind.OBJECT
                else input_table.schema
            )
        schema = self.tvf_schema_resolver(ref.name, ref.model, input_schema)
        return TvfNode(
            name=ref.name, model=ref.model, input_plan=input_plan,
            input_table=input_table, schema=schema, options=dict(ref.options),
        )

    # -- aggregation -------------------------------------------------------

    def _resolve_group_expr(
        self, expr: ast.Expr, items: list[ast.SelectItem], alias_map: dict
    ) -> ast.Expr:
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            index = expr.value - 1
            if not 0 <= index < len(items) or isinstance(items[index].expr, ast.Star):
                raise AnalysisError(f"GROUP BY position {expr.value} out of range")
            return items[index].expr
        return self._substitute_aliases(expr, alias_map)

    def _substitute_aliases(self, expr: ast.Expr | None, alias_map: dict) -> ast.Expr | None:
        if expr is None or not alias_map:
            return expr
        return ast.rewrite(expr, lambda e: (
            alias_map.get(e.parts[0].lower())
            if isinstance(e, ast.ColumnRef) and len(e.parts) == 1
            and e.parts[0].lower() in alias_map
            else None
        ))

    def _extract_aggs(self, expr: ast.Expr, state: _AggState) -> ast.Expr:
        """Replace aggregate calls with refs to synthesized columns."""

        def visit(e: ast.Expr) -> ast.Expr | None:
            if isinstance(e, ast.FunctionCall) and e.name in AGGREGATE_FUNCTIONS:
                signature = ast.key(e)
                existing = state.by_signature.get(signature)
                if existing is not None:
                    return ast.ColumnRef((existing,))
                output = f"$agg{len(state.specs)}"
                arg = None if e.is_star else (e.args[0] if e.args else None)
                if not e.is_star and arg is None:
                    raise AnalysisError(f"{e.name}() requires an argument or *")
                state.specs.append(
                    AggSpec(func=e.name, arg=arg, output=output, distinct=e.distinct)
                )
                state.by_signature[signature] = output
                return ast.ColumnRef((output,))
            return None

        return ast.rewrite(expr, visit)

    def _plan_aggregate(
        self, child: PlanNode, group_exprs: list[ast.Expr], state: _AggState
    ) -> tuple[AggregateNode, list[str]]:
        binder = Binder(child.schema, self.functions)
        fields: list[Field] = []
        group_items: list[tuple[ast.Expr, str]] = []
        key_names: list[str] = []
        for i, expr in enumerate(group_exprs):
            name = f"$key{i}"
            dtype = binder.bind(expr).dtype
            fields.append(Field(name, dtype))
            group_items.append((expr, name))
            key_names.append(name)
        for spec in state.specs:
            spec.dtype = _agg_dtype(spec, binder)
            fields.append(Field(spec.output, spec.dtype))
        schema = Schema(tuple(fields))
        node = AggregateNode(
            child=child, group_items=group_items, aggregates=state.specs, schema=schema
        )
        return node, key_names

    def _substitute_exprs(self, expr: ast.Expr, substitutions: dict) -> ast.Expr:
        def visit(e: ast.Expr) -> ast.Expr | None:
            name = substitutions.get(ast.key(e))
            return None if name is None else ast.ColumnRef((name,))

        return ast.rewrite(expr, visit)

    # -- projection / ordering -----------------------------------------------

    def _plan_projection(
        self, child: PlanNode, items: list[ast.SelectItem], join_context: bool
    ) -> ProjectNode:
        binder = Binder(child.schema, self.functions)
        out_items: list[tuple[ast.Expr, str]] = []
        fields: list[Field] = []
        used: set[str] = set()
        for i, item in enumerate(items):
            if isinstance(item.expr, ast.Star):
                for f in child.schema:
                    if f.name.startswith("$"):
                        continue
                    if item.expr.qualifier is not None and not f.name.lower().startswith(
                        item.expr.qualifier.lower() + "."
                    ):
                        continue
                    out_name = f.name.rsplit(".", 1)[-1]
                    out_name = _dedupe(out_name, used)
                    out_items.append((ast.ColumnRef((f.name,)), out_name))
                    fields.append(Field(out_name, f.dtype))
                continue
            name = item.alias or _derive_name(item.expr, i)
            name = _dedupe(name, used)
            dtype = binder.bind(item.expr).dtype
            out_items.append((item.expr, name))
            fields.append(Field(name, dtype))
        return ProjectNode(child=child, items=out_items, schema=Schema(tuple(fields)))

    def _plan_order_by(self, plan: ProjectNode, order_items: list[ast.OrderItem]) -> PlanNode:
        keys: list[tuple[ast.Expr, bool]] = []
        hidden: list[tuple[ast.Expr, str]] = []
        binder = Binder(plan.schema, self.functions)
        child_binder = Binder(plan.child.schema, self.functions)
        for i, item in enumerate(order_items):
            expr = item.expr
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                index = expr.value - 1
                if not 0 <= index < len(plan.items):
                    raise AnalysisError(f"ORDER BY position {expr.value} out of range")
                keys.append((ast.ColumnRef((plan.items[index][1],)), item.ascending))
                continue
            try:
                binder.bind(expr)
                keys.append((expr, item.ascending))
            except AnalysisError:
                # Not expressible over the output: compute a hidden column
                # against the pre-projection schema.
                dtype = child_binder.bind(expr).dtype
                name = f"$order{i}"
                hidden.append((expr, name))
                plan = ProjectNode(
                    child=plan.child,
                    items=plan.items + [(expr, name)],
                    schema=Schema(plan.schema.fields + (Field(name, dtype),)),
                )
                binder = Binder(plan.schema, self.functions)
                keys.append((ast.ColumnRef((name,)), item.ascending))
        sorted_plan: PlanNode = SortNode(child=plan, keys=keys, schema=plan.schema)
        if hidden:
            visible = [
                (ast.ColumnRef((name,)), name)
                for name in plan.schema.names()
                if not name.startswith("$order")
            ]
            visible_schema = Schema(
                tuple(f for f in plan.schema.fields if not f.name.startswith("$order"))
            )
            sorted_plan = ProjectNode(child=sorted_plan, items=visible, schema=visible_schema)
        return sorted_plan


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------


def _one_row_plan() -> PlanNode:
    """FROM-less SELECT: a single-row, zero-column relation."""
    from repro.engine.plan import ValuesNode

    return ValuesNode(rows=[[]], schema=Schema(()))


def _qualify(plan: PlanNode, alias: str) -> ProjectNode:
    items = [
        (ast.ColumnRef((f.name,)), f"{alias}.{f.name.rsplit('.', 1)[-1]}")
        for f in plan.schema
    ]
    schema = Schema(
        tuple(
            Field(f"{alias}.{f.name.rsplit('.', 1)[-1]}", f.dtype, f.nullable)
            for f in plan.schema
        )
    )
    return ProjectNode(child=plan, items=items, schema=schema)


def _split_join_condition(
    condition: ast.Expr | None,
) -> tuple[list[tuple[ast.Expr, ast.Expr]], list[ast.Expr]]:
    """Separate equi-key conjuncts from the residual ones."""
    equi: list[tuple[ast.Expr, ast.Expr]] = []
    residual: list[ast.Expr] = []
    for clause in ast.conjuncts(condition) if condition is not None else ():
        if (
            isinstance(clause, ast.BinaryOp)
            and clause.op == "="
            and isinstance(clause.left, ast.ColumnRef)
            and isinstance(clause.right, ast.ColumnRef)
        ):
            equi.append((clause.left, clause.right))
        else:
            residual.append(clause)
    return equi, residual


def _as_in_subquery(expr: ast.Expr) -> ast.InSubquery | None:
    """Recognize ``x IN (SELECT)``, ``x NOT IN (SELECT)``, and
    ``NOT (x IN (SELECT))`` conjuncts."""
    if isinstance(expr, ast.InSubquery):
        return expr
    if (
        isinstance(expr, ast.UnaryOp)
        and expr.op == "NOT"
        and isinstance(expr.operand, ast.InSubquery)
    ):
        inner = expr.operand
        return ast.InSubquery(inner.operand, inner.query, negated=not inner.negated)
    return None


def _orient_equi_keys(
    equi: list[tuple[ast.Expr, ast.Expr]],
    left_schema: Schema,
    right_schema: Schema,
    functions: FunctionRegistry,
) -> tuple[list[tuple[ast.Expr, ast.Expr]], list[ast.Expr]]:
    """Orient each ``a = b`` pair so the first expr binds against the left
    child and the second against the right, then meet their types (see
    _meet_keys); pairs that cannot be oriented (e.g. both sides reference
    the same child) fall back to residuals."""
    binders = (Binder(left_schema, functions), Binder(right_schema, functions))

    def bind(binder: Binder, expr: ast.Expr) -> BoundExpr | None:
        try:
            return binder.bind(expr)
        except AnalysisError:
            return None

    oriented: list[tuple[ast.Expr, ast.Expr]] = []
    residuals: list[ast.Expr] = []
    for a, b in equi:
        for keys in ((a, b), (b, a)):
            bound = [bind(binder, key) for binder, key in zip(binders, keys)]
            if None not in bound:
                oriented.append(_meet_keys(keys, bound, "join keys"))
                break
        else:
            residuals.append(ast.BinaryOp("=", a, b))
    return oriented, residuals


def _meet_keys(keys: tuple[ast.Expr, ast.Expr], bound: list[BoundExpr], construct: str):
    """An equality's two keys — ``bound`` each against its own side — with
    the one whose type differs cast to the type the two meet in."""
    _, dtype = Binder.coerce(bound, construct)
    return tuple(k if b.dtype is dtype else ast.Cast(k, dtype.value) for k, b in zip(keys, bound))


def _output_column(plan: PlanNode, i: int) -> BoundExpr:
    """Column ``i`` of ``plan`` as its type meets another's: a bare NULL
    where the plan (each arm of a union) selects NULL."""
    f = plan.schema.fields[i]
    while isinstance(plan, (DistinctNode, LimitNode, SortNode)):
        plan = plan.child
    if isinstance(plan, UnionAllNode):
        null = all(isinstance(_output_column(arm, i), BoundLiteral) for arm in plan.inputs)
    else:
        item = plan.items[i][0] if isinstance(plan, ProjectNode) else None
        null = isinstance(item, ast.Literal) and item.value is None and item.type_hint is None
    return BoundLiteral(None, f.dtype) if null else BoundColumn(i, f.name, f.dtype)


def _cast_columns(plan: PlanNode, dtypes: list[DataType]) -> PlanNode:
    """``plan`` with each column not of its type in ``dtypes`` cast to it."""
    if all(dtype is f.dtype for dtype, f in zip(dtypes, plan.schema)):
        return plan
    items = [
        (ast.ColumnRef((f.name,)) if dtype is f.dtype
         else ast.Cast(ast.ColumnRef((f.name,)), dtype.value), f.name)
        for f, dtype in zip(plan.schema, dtypes)
    ]
    schema = Schema(tuple(Field(f.name, dtype, f.nullable) for f, dtype in zip(plan.schema, dtypes)))
    return ProjectNode(child=plan, items=items, schema=schema)


def _derive_name(expr: ast.Expr, index: int) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.parts[-1]
    return f"f{index}_"


def _dedupe(name: str, used: set[str]) -> str:
    candidate = name
    suffix = 1
    while candidate.lower() in used:
        candidate = f"{name}_{suffix}"
        suffix += 1
    used.add(candidate.lower())
    return candidate


def _agg_dtype(spec: AggSpec, binder: Binder) -> DataType:
    if spec.func == "COUNT":
        return DataType.INT64
    if spec.arg is None:
        raise AnalysisError(f"{spec.func}() requires an argument")
    arg_dtype = binder.bind(spec.arg).dtype
    if spec.func == "AVG":
        return DataType.FLOAT64
    if spec.func == "SUM":
        return arg_dtype if arg_dtype in (DataType.INT64, DataType.FLOAT64) else DataType.FLOAT64
    return arg_dtype  # MIN/MAX preserve type
