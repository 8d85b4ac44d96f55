"""The governance memos against the recompute-per-hit code they replaced.

``IamService`` memoises decisions until its next grant / revoke / group
change, ``TablePolicySet`` memoises each principal's resolved view until
its next policy add, and ``table_digest`` is built from those memos plus
the schema's kept fingerprint. The oracle is ``tests/reference_plan_cache.py``
— the parent's ``is_allowed``, ``resolve``, ``policy_digest`` and
``table_digest``, verbatim — run on the spot against the same live state.

A Hypothesis state machine interleaves every mutator the memos depend on
(grant, revoke, group join, the three policy adds, drop / re-create,
replace, DML) with governed result-cache hits. After every step, every
remembered decision and view, and every (principal, table) digest, must
equal the reference; every cached run must return what an uncached run
returns. Alongside: the guards that keep the memo keys complete.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import Role
from repro.cache.plan import table_digest
from repro.data import DataType, Schema
from repro.errors import ReproError
from repro.security.iam import Permission, Principal, _Binding
from repro.security.policies import (
    ColumnAcl,
    DataMaskingRule,
    MaskingKind,
    RowAccessPolicy,
)

from tests import reference_plan_cache as reference
from tests.helpers import make_platform

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

SCHEMA = Schema.of(("id", DataType.INT64), ("v", DataType.FLOAT64))
TABLES = ("a", "b")
USERS = tuple(Principal.user(f"u{i}") for i in range(3))
GROUP = Principal.group("analysts")
GRANTEES = USERS + (GROUP,)
ROLES = (Role.DATA_VIEWER, Role.DATA_EDITOR, Role.JOB_USER)
PERMISSIONS = (Permission.TABLES_GET_DATA, Permission.TABLES_GET, Permission.JOBS_CREATE)
QUERIES = (
    "SELECT id, v FROM m.a ORDER BY id",
    "SELECT COUNT(*) AS n, SUM(v) AS s FROM m.b",
    "SELECT x.id, y.v FROM m.a x JOIN m.b y ON x.id = y.id ORDER BY x.id, y.v",
)
FILTERS = ("id < 5", "id >= 3", "v > 2.0")

principals = st.sampled_from(GRANTEES)
users = st.sampled_from(USERS)
tables = st.sampled_from(TABLES)
grantee_sets = st.frozensets(principals, max_size=3)


def _outcome(run):
    try:
        result = run()
    except ReproError as exc:
        return type(exc).__name__
    return result.rows()


class GovernedHits(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.platform, self.admin = make_platform()
        self.platform.catalog.create_dataset("m")
        for name in TABLES:
            self.platform.tables.create_managed_table("m", name, SCHEMA)
        self.engine = self.platform.home_engine
        self.project = f"projects/{self.platform.config.project}"
        self.next_id = 0
        self.policy_names = 0
        # Everyone may run jobs and u0 starts able to read; data access is
        # what the rules move. The admin reads throughout.
        for user in USERS:
            self.platform.iam.grant(self.project, Role.JOB_USER, user)
        self.platform.iam.grant(self.project, Role.DATA_VIEWER, USERS[0])
        self.readers = USERS + (self.admin,)
        self.versions = dict.fromkeys(TABLES, 0)

    def _resource(self, index: int) -> str:
        if index == 0:
            return self.project
        if index == 1:
            return f"{self.project}/datasets/m"
        return self.platform.catalog.get_table("m", TABLES[index - 2]).resource_name

    def _add(self, name: str, method: str, item) -> None:
        """One policy add on table ``name``: one new generation."""
        policies = self.platform.catalog.get_table("m", name).policies
        before = policies.generation
        getattr(policies, method)(item)
        assert policies.generation == before + 1

    # -- IAM ------------------------------------------------------------------

    @rule(where=st.integers(0, 3), role=st.sampled_from(ROLES), who=principals)
    def grant(self, where, role, who):
        self.platform.iam.grant(self._resource(where), role, who)

    @rule(where=st.integers(0, 3), role=st.sampled_from(ROLES), who=principals)
    def revoke(self, where, role, who):
        self.platform.iam.revoke(self._resource(where), role, who)

    @rule(who=users)
    def join_group(self, who):
        self.platform.iam.add_group_member(GROUP, who)

    # -- fine-grained policies ---------------------------------------------------

    @rule(name=tables, sql=st.sampled_from(FILTERS), grantees=grantee_sets)
    def add_row_policy(self, name, sql, grantees):
        self.policy_names += 1
        self._add(name, "add_row_policy",
                  RowAccessPolicy(f"p{self.policy_names}", sql, grantees))

    @rule(name=tables, readers=grantee_sets)
    def add_column_acl(self, name, readers):
        self._add(name, "add_column_acl", ColumnAcl("v", readers | {self.admin}))

    @rule(name=tables, kind=st.sampled_from([MaskingKind.NULLIFY, MaskingKind.DEFAULT_VALUE]),
          readers=grantee_sets)
    def add_masking_rule(self, name, kind, readers):
        self._add(name, "add_masking_rule", DataMaskingRule("v", kind, readers))

    # -- DDL and DML ------------------------------------------------------------

    @rule(name=tables, rows=st.integers(0, 2))
    def drop_and_recreate(self, name, rows):
        """Drop, re-create and load: a restarted version line would reach
        a version an entry of the dropped table was keyed at."""
        self.platform.catalog.drop_table("m", name)
        self.platform.tables.create_managed_table("m", name, SCHEMA)
        self.insert(name, rows)

    @rule(name=tables)
    def replace(self, name):
        self.platform.tables.create_managed_table("m", name, SCHEMA, replace=True)

    @rule(name=tables, rows=st.integers(1, 2))
    def insert(self, name, rows):
        for _ in range(rows):
            self.next_id += 1
            self.engine.execute(
                f"INSERT INTO m.{name} VALUES ({self.next_id % 7}, {self.next_id}.0)",
                self.admin)

    # -- governed hits --------------------------------------------------------

    @rule(sql=st.sampled_from(QUERIES), reader=st.integers(0, len(USERS)))
    def governed_hit(self, sql, reader):
        """Store (or hit), hit, then run uncached: all three agree."""
        who = self.readers[reader]
        runs = [
            _outcome(lambda: self.engine.execute(sql, who, use_query_cache=True)),
            _outcome(lambda: self.engine.execute(sql, who, use_query_cache=True)),
            _outcome(lambda: self.engine.execute(sql, who)),
        ]
        assert runs[0] == runs[1] == runs[2], (sql, who, runs)

    # -- the memos equal the reference, after every step -------------------------

    @invariant()
    def a_table_ids_version_never_goes_back(self):
        """A cache key names a table by id and version, so a re-created
        table must continue the dropped one's version line."""
        for name in TABLES:
            version = self.platform.catalog.get_table("m", name).version
            assert version >= self.versions[name], (name, version, self.versions[name])
            self.versions[name] = version

    @invariant()
    def every_remembered_decision_is_the_reference(self):
        iam = self.platform.iam
        for (who, permission, resource), decision in iam._decisions.items():
            assert decision == reference.is_allowed(iam, who, permission, resource)

    @invariant()
    def every_asked_decision_is_the_reference(self):
        iam = self.platform.iam
        for where in range(4):
            resource = self._resource(where)
            for who in self.readers:
                for permission in PERMISSIONS:
                    got = iam.is_allowed(who, permission, resource)
                    assert got == reference.is_allowed(iam, who, permission, resource)

    @invariant()
    def every_remembered_view_and_digest_is_the_reference(self):
        for name in TABLES:
            table = self.platform.catalog.get_table("m", name)
            for who, view in table.policies._views.items():
                assert view.digest == reference.policy_digest(table, who)
            for who in self.readers + (GROUP,):
                assert table_digest(table, who) == reference.table_digest(table, who)


TestGovernedHits = GovernedHits.TestCase
TestGovernedHits.settings = settings(deadline=None, stateful_step_count=25)


# -- the guards that keep the memo keys complete --------------------------------


def test_a_binding_holds_only_what_the_decision_key_covers():
    """A decision is memoised on ``(principal, permission, resource)`` and
    cleared by every grant, revoke and group join. That is exact only
    while a binding is a role and its members. A new field — a time
    condition, say — must enter the key or the memo's invalidation before
    this list may grow."""
    assert [f.name for f in dataclasses.fields(_Binding)] == ["role", "members"]


POLICY_LISTS = {"row_policies", "column_acls", "masking_rules"}
MUTATING = {"append", "extend", "insert", "remove", "pop", "clear", "sort", "reverse"}
ALLOWED = {
    ("TablePolicySet", "add_row_policy"),
    ("TablePolicySet", "add_column_acl"),
    ("TablePolicySet", "add_masking_rule"),
}


def _policy_list_writes(tree: ast.AST) -> list[tuple[str | None, str | None, int]]:
    """(class, function, line) of every statement in ``tree`` that changes
    a policy list in place or rebinds one."""
    found = []

    def is_policy_list(node) -> bool:
        while isinstance(node, ast.Subscript):
            node = node.value
        return isinstance(node, ast.Attribute) and node.attr in POLICY_LISTS

    def visit(node, cls, fn):
        if isinstance(node, ast.ClassDef):
            cls, fn = node.name, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        writes = False
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            writes = node.func.attr in MUTATING and is_policy_list(node.func.value)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [
                node.target]
            writes = any(is_policy_list(t) for t in targets)
        if writes:
            found.append((cls, fn, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, fn)

    visit(tree, None, None)
    return found


def test_only_the_three_add_methods_change_a_policy_list():
    """``TablePolicySet``'s view memo is cleared by its ``add_*`` methods.
    Any other write to ``row_policies`` / ``column_acls`` /
    ``masking_rules`` in ``src/`` would leave a stale view behind."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for cls, fn, line in _policy_list_writes(ast.parse(path.read_text())):
            if (cls, fn) not in ALLOWED:
                offenders.append(f"{path.relative_to(SRC)}:{line} ({cls}.{fn})")
    assert offenders == []


def test_the_policy_list_guard_sees_a_write():
    """The guard is not vacuous: each way of changing a list is caught."""
    code = (
        "def f(table, p):\n"
        "    table.policies.row_policies.append(p)\n"
        "    table.policies.column_acls[0] = p\n"
        "    table.policies.masking_rules += [p]\n"
        "    del table.policies.row_policies[0]\n"
        "    table.policies.masking_rules = []\n"
    )
    assert [line for _, _, line in _policy_list_writes(ast.parse(code))] == [2, 3, 4, 5, 6]
