"""The SQL tree's one walker against the walkers it replaced.

``sql/ast_nodes.py`` owns the tree's shape: ``children`` / ``walk``,
``rewrite``, ``conjuncts`` / ``conjoin`` and ``key``. The hand-rolled copies
they replaced are kept verbatim in ``tests/reference_ast.py``; on every
expression kind the two agree. Two structural checks keep the module the
only owner: each dataclass field that holds a node is a declared child, and
no AND / OR chain is built outside the tree module and the parser.
"""

from __future__ import annotations

import ast as pyast
import dataclasses
import re
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sql import ast_nodes as ast
from repro.sql.expressions import collect_column_refs
from repro.sql.parser import parse_expression, parse_statement
from repro.sql.printer import strip_qualifiers, to_sql

from tests import reference_ast as reference
from tests.test_sql_printer import expression_strategy

ROOT = Path(__file__).resolve().parent.parent


def keys(exprs) -> list:
    return [ast.key(e) for e in exprs]


def _rename_and_fold(e):
    """Renames ``a`` and replaces a DISTINCT call whole, before its
    arguments (which may hold an ``a``) are visited."""
    if isinstance(e, ast.ColumnRef) and e.parts[-1] == "a":
        return ast.ColumnRef(e.parts[:-1] + ("z",))
    if isinstance(e, ast.FunctionCall) and e.distinct:
        return ast.Literal(0)
    return None


def _recording(visit):
    seen: list = []

    def record(e):
        seen.append(ast.key(e))
        return visit(e)

    return record, seen


class TestAgainstReference:
    @given(expression_strategy)
    def test_identity_rewrite_returns_the_tree_itself(self, expr):
        assert ast.rewrite(expr, lambda e: None) is expr
        assert ast.key(reference._rewrite(expr, lambda e: None)) == ast.key(expr)

    @given(expression_strategy)
    def test_rewrite_visits_and_replaces_as_the_reference_did(self, expr):
        new_visit, new_seen = _recording(_rename_and_fold)
        old_visit, old_seen = _recording(_rename_and_fold)
        new = ast.rewrite(expr, new_visit)
        assert ast.key(new) == ast.key(reference._rewrite(expr, old_visit))
        assert new_seen == old_seen

    @given(expression_strategy)
    def test_strip_qualifiers(self, expr):
        assert ast.key(strip_qualifiers(expr)) == ast.key(reference.strip_qualifiers(expr))

    @given(expression_strategy)
    def test_collect_column_refs(self, expr):
        assert collect_column_refs(expr) == reference.collect_column_refs(expr)

    @given(expression_strategy)
    def test_conjuncts_match_both_flatteners(self, expr):
        flat = keys(ast.conjuncts(expr))
        assert flat == keys(reference._flatten_where(expr)) == keys(reference._flatten_and(expr))


_clauses = expression_strategy.filter(
    lambda e: not (isinstance(e, ast.BinaryOp) and e.op in ("AND", "OR"))
)


class TestConjunctions:
    @given(st.lists(_clauses, min_size=1, max_size=6), st.sampled_from(["AND", "OR"]))
    def test_conjoin_inverts_conjuncts_on_left_associative_chains(self, clauses, op):
        chain = reduce(lambda left, right: ast.BinaryOp(op, left, right), clauses)
        assert keys(ast.conjuncts(chain, op)) == keys(clauses)
        assert ast.key(ast.conjoin(ast.conjuncts(chain, op), op)) == ast.key(chain)

    def test_conjoin_builds_the_parsers_tree(self):
        clauses = [parse_expression(sql) for sql in ("a = 1", "b OR c", "NOT d")]
        assert ast.conjoin(clauses) == parse_expression("a = 1 AND (b OR c) AND NOT d")
        assert ast.conjoin(clauses[1:2], "OR") is clauses[1]
        assert ast.conjoin([]) is None


class TestKey:
    def test_tells_apart_what_str_and_eq_conflate(self):
        plain, distinct = parse_expression("COUNT(x)"), parse_expression("COUNT(DISTINCT x)")
        assert str(plain) == str(distinct)
        assert ast.key(plain) != ast.key(distinct)
        literals = [ast.Literal(1), ast.Literal(1.0), ast.Literal(True)]
        assert literals[0] == literals[1] == literals[2]
        assert len(set(keys(literals))) == 3
        assert ast.key(ast.Literal("2023-11-01")) != ast.key(ast.Literal("2023-11-01", "DATE"))

    @given(expression_strategy)
    def test_survives_print_and_parse(self, expr):
        assert ast.key(parse_expression(to_sql(expr))) == ast.key(expr)

    def test_a_subquery_is_only_itself(self):
        sql = "SELECT a FROM t WHERE a IN (SELECT b FROM u)"
        where, twin = parse_statement(sql).where, parse_statement(sql).where
        assert ast.key(where) == ast.key(where) != ast.key(twin)
        assert ast.rewrite(where, lambda e: None) is where


class TestWalk:
    def test_reaches_every_table_in_order(self):
        statement = parse_statement(
            "SELECT a FROM t1 JOIN (SELECT b FROM t2) AS s ON t1.a = s.b "
            "WHERE a IN (SELECT c FROM t3 WHERE c NOT IN (SELECT d FROM t4)) "
            "UNION ALL SELECT e FROM ML.PREDICT(MODEL m, (SELECT f FROM t5))"
        )
        tables = [n.name for n in ast.walk(statement) if isinstance(n, ast.TableRef)]
        assert tables == ["t1", "t2", "t3", "t4", "t5"]

    def test_children_in_field_order(self):
        case = parse_expression("CASE WHEN a THEN b WHEN c THEN d ELSE e END")
        assert [c.name for c in ast.children(case)] == ["a", "b", "c", "d", "e"]
        update = parse_statement("UPDATE ds.t SET x = 1, y = z WHERE w")
        assert keys(ast.children(update)) == keys(
            [ast.Literal(1), ast.ColumnRef(("z",)), ast.ColumnRef(("w",))]
        )


def _node_classes():
    return [c for c in vars(ast).values() if isinstance(c, type) and issubclass(c, ast.Node)]


_NODE_NAMES = {c.__name__ for c in _node_classes()} | {"FromItem", "Statement"}


@pytest.mark.parametrize(
    "cls", [c for c in _node_classes() if dataclasses.is_dataclass(c)], ids=lambda c: c.__name__
)
def test_every_field_that_holds_a_node_is_a_declared_child(cls):
    holding = {
        f.name for f in dataclasses.fields(cls)
        if _NODE_NAMES & set(re.findall(r"\w+", str(f.type)))
    }
    assert set(cls.child_fields) == holding


def test_and_or_chains_are_built_only_by_the_tree_module_and_the_parser():
    allowed = {"src/repro/sql/ast_nodes.py", "src/repro/sql/parser.py"}
    built = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        name = path.relative_to(ROOT).as_posix()
        for node in pyast.walk(pyast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, pyast.Call):
                continue
            callee = getattr(node.func, "attr", getattr(node.func, "id", None))
            ops = [*node.args[:1], *(k.value for k in node.keywords if k.arg == "op")]
            if callee == "BinaryOp" and any(
                isinstance(op, pyast.Constant) and op.value in ("AND", "OR") for op in ops
            ) and name not in allowed:
                built.append(f"{name}:{node.lineno}")
    assert not built, f"AND / OR chains built outside ast.conjoin: {built}"
