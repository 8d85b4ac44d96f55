"""The query cache's fast path: a statement whose text the cache knows is
not parsed at submit, its result tier is probed from the text, and a hit
costs key building, the IAM/policy recheck and a dict lookup.

Pinned here, as tests rather than prose:

* **Equivalence** — for every suite statement and both an admin and a
  governed analyst, cold rows == warm rows == rows with the fast path
  forced to miss.
* **No work on a hit** — a warm result hit tokenizes and parses nothing
  and does not ask the plan tier; a warm plan-only hit parses nothing.
* **Every change falls off** — revoked reader, new row policy, new mask,
  DML, transaction commit, DROP + recreate, another ``snapshot_ms``,
  another principal, a flipped engine flag: none is served from the fast
  path, each returns what a platform with no cache history returns.
* **Fail closed** — the per-hit IAM recheck reads the tables the job just
  resolved, not the ``_refs`` side map, so an evicted text is a miss.
* **Same errors, same JOBS rows** — syntax errors still raise at submit, a
  known text over a dropped table still fails at execution, and the JOBS
  row of a warm hit is field for field the row of the parsed route.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro import Role
from repro.data import DataType, Schema
from repro.engine import engine as engine_module
from repro.errors import AccessDeniedError, ReproError, SqlSyntaxError
from repro.security import RowAccessPolicy
from repro.security.policies import DataMaskingRule, MaskingKind
from repro.serving import jobs as jobs_module
from repro.serving.workload import build_serving_platform, mixed_queries
from repro.sql import parser as parser_module

from tests.helpers import make_platform, setup_sales_lake

SALES_Q = "SELECT region, COUNT(*) AS n FROM ds.sales GROUP BY region ORDER BY region"
ITEMS_Q = "SELECT id, v FROM m.items ORDER BY id"
ITEMS_SCHEMA = Schema.of(("id", DataType.INT64), ("v", DataType.FLOAT64))


def build():
    """A platform with a BigLake table (``ds.sales``), a writable managed
    table (``m.items``) and a non-admin reader — the same every call."""
    platform, admin = make_platform()
    setup_sales_lake(platform, admin)
    platform.catalog.create_dataset("m")
    platform.tables.create_managed_table("m", "items", ITEMS_SCHEMA)
    engine = platform.home_engine
    engine.execute("INSERT INTO m.items VALUES (1, 1.0)", admin)
    engine.execute("INSERT INTO m.items VALUES (2, 2.0)", admin)
    reader = platform.create_user("reader", [Role.DATA_VIEWER, Role.JOB_USER])
    platform.iam.grant("connections/ds.lakeconn", Role.CONNECTION_USER, reader)
    return SimpleNamespace(
        platform=platform, admin=admin, reader=reader, engine=engine,
        cache=platform.query_cache,
    )


@pytest.fixture
def env():
    return build()


@pytest.fixture
def calls(monkeypatch):
    """Counting wrappers around the tokenizer and the statement parser
    (both modules that call it)."""
    counts = {"tokenize": 0, "parse_statement": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        parser_module, "tokenize", counting("tokenize", parser_module.tokenize))
    parse = counting("parse_statement", parser_module.parse_statement)
    monkeypatch.setattr(jobs_module, "parse_statement", parse)
    monkeypatch.setattr(engine_module, "parse_statement", parse)
    return counts


def result_tier(env):
    return env.cache.snapshot()["result"]


def plan_tier(env):
    return env.cache.snapshot()["plan"]


# -- equivalence over the suites ----------------------------------------------


@pytest.fixture(scope="module")
def governed():
    """Both TPC lakes, an admin, and an analyst under a row policy and a
    mask on each fact table (the ``dashboard_hot`` governance)."""
    platform, admin, users = build_serving_platform(scale=0.05, analysts=1)
    analyst = users[0]
    grantees = frozenset([analyst])
    lineitem = platform.catalog.get_table("tpch", "lineitem")
    lineitem.policies.add_row_policy(
        RowAccessPolicy("analysts", "l_quantity < 40", grantees))
    lineitem.policies.add_masking_rule(
        DataMaskingRule("l_returnflag", MaskingKind.HASH, grantees))
    sales = platform.catalog.get_table("tpcds", "store_sales")
    sales.policies.add_row_policy(
        RowAccessPolicy("analysts", "ss_quantity < 90", grantees))
    sales.policies.add_masking_rule(
        DataMaskingRule("ss_net_profit", MaskingKind.DEFAULT_VALUE, grantees))
    return platform, {"admin": admin, "analyst": analyst}


@pytest.mark.parametrize("who", ["admin", "analyst"])
@pytest.mark.parametrize("name,sql", mixed_queries(), ids=[n for n, _ in mixed_queries()])
def test_cold_warm_and_forced_miss_rows_agree(governed, who, name, sql):
    platform, principals = governed
    principal = principals[who]
    engine = platform.home_engine
    cache = platform.query_cache
    cold = engine.execute(sql, principal, use_query_cache=True)
    assert cold.stats.cache_hit is False
    warm = engine.execute(sql, principal, use_query_cache=True)
    assert warm.stats.cache_hit is True
    assert warm.rows() == cold.rows()
    # Forget the text: the statement is parsed and planned again and the
    # result tier is reached the long way round, keyed from the new plan's
    # tables (a hit, unless the planner now orders the joins differently).
    cache._refs.clear()
    assert not cache.knows(sql, engine)
    relearned = engine.execute(sql, principal, use_query_cache=True)
    assert relearned.rows() == cold.rows()
    assert cache.knows(sql, engine)
    again = engine.execute(sql, principal, use_query_cache=True)
    assert again.stats.cache_hit is True
    assert again.rows() == cold.rows()
    # And a real execution from the cached plan.
    assert engine.execute(sql, principal).rows() == cold.rows()


# -- a hit does no parsing or planning -----------------------------------------


class TestNoWorkOnAHit:
    def test_warm_result_hit_parses_and_clones_nothing(self, env, calls):
        cold = env.engine.execute(SALES_Q, env.reader, use_query_cache=True)
        assert calls["parse_statement"] == 1 and calls["tokenize"] >= 1
        plan_before = plan_tier(env)
        calls.update(dict.fromkeys(calls, 0))
        job = env.platform.submit(SALES_Q, env.reader, use_query_cache=True)
        assert job.kind == "select" and job.statement is None
        warm = job.wait()
        assert warm.stats.cache_hit is True
        assert warm.rows() == cold.rows()
        assert calls == {"tokenize": 0, "parse_statement": 0}
        # The plan tier was not asked: no hit, no miss, no recency bump.
        assert plan_tier(env) == plan_before

    def test_warm_plan_only_hit_parses_nothing(self, env, calls):
        cold = env.engine.execute(SALES_Q, env.admin)
        calls.update(dict.fromkeys(calls, 0))
        warm = env.engine.execute(SALES_Q, env.admin)
        assert warm.rows() == cold.rows()
        assert warm.stats.cache_hit is False and warm.stats.scan_tasks > 0  # really ran
        assert calls["tokenize"] == 0 and calls["parse_statement"] == 0
        assert plan_tier(env)["hits"] == 1

    def test_result_miss_on_a_known_text_parses_once_and_looks_up_once(self, env, calls):
        env.engine.execute(ITEMS_Q, env.admin, use_query_cache=True)
        env.engine.execute("INSERT INTO m.items VALUES (3, 3.0)", env.admin)
        before = result_tier(env)
        calls.update(dict.fromkeys(calls, 0))
        job = env.platform.submit(ITEMS_Q, env.admin, use_query_cache=True)
        assert job.statement is None  # known text: still lazy at submit
        fresh = job.wait()
        assert fresh.stats.cache_hit is False
        assert fresh.rows() == [(1, 1.0), (2, 2.0), (3, 3.0)]
        assert calls["parse_statement"] == 1
        after = result_tier(env)
        assert after["misses"] == before["misses"] + 1  # probed once, not twice
        assert after["entries"] == before["entries"] + 1

    def test_information_schema_is_never_known(self, env, calls):
        sql = "SELECT COUNT(*) AS n FROM INFORMATION_SCHEMA.JOBS"
        for use_query_cache in (False, True, True):
            before = calls["parse_statement"]
            job = env.platform.submit(sql, env.admin, use_query_cache=use_query_cache)
            assert job.statement is not None
            assert job.wait().stats.cache_hit is False
            assert calls["parse_statement"] == before + 1
            assert not env.cache.knows(sql, env.engine)
        assert result_tier(env)["entries"] == 0
        assert result_tier(env)["misses"] == 0  # never even probed

    def test_tvf_statements_are_never_known(self, calls):
        from repro.ml.models import serialize_model
        from repro.workloads.objects_corpus import (
            build_image_corpus,
            train_classifier_for_corpus,
        )

        platform, admin = make_platform()
        store = platform.stores.store_for("gcp/us-central1")
        build_image_corpus(store, "media", count=6, spread_create_time_ms=6_000)
        conn = platform.connections.create_connection("us.media")
        platform.connections.grant_lake_access(conn, "media")
        platform.iam.grant("connections/us.media", Role.CONNECTION_USER, admin)
        platform.catalog.create_dataset("dataset1")
        platform.tables.create_object_table(
            admin, "dataset1", "files", "media", "images", "us.media")
        platform.ml.import_model(
            "dataset1.resnet50", serialize_model(train_classifier_for_corpus()))
        sql = (
            "SELECT predictions FROM ML.PREDICT(MODEL dataset1.resnet50, "
            "(SELECT ML.DECODE_IMAGE(data) AS image FROM dataset1.files)) LIMIT 1"
        )
        for _ in range(2):
            before = calls["parse_statement"]
            job = platform.submit(sql, admin, use_query_cache=True)
            assert job.statement is not None
            assert job.wait().stats.cache_hit is False
            assert calls["parse_statement"] == before + 1
            assert not platform.query_cache.knows(sql, platform.home_engine)
        assert platform.query_cache.snapshot()["plan"]["entries"] == 0


# -- every change falls off the fast path --------------------------------------


def _grant_row_policy(env):
    env.platform.catalog.get_table("ds", "sales").policies.add_row_policy(
        RowAccessPolicy("us_only", "region = 'us'", frozenset({env.reader})))


def _grant_mask(env):
    env.platform.catalog.get_table("ds", "sales").policies.add_masking_rule(
        DataMaskingRule("region", MaskingKind.HASH, frozenset({env.reader})))


def _insert(env):
    env.engine.execute("INSERT INTO m.items VALUES (3, 3.0)", env.admin)


def _drop_and_recreate(env):
    env.platform.catalog.drop_table("m", "items")
    env.platform.tables.create_managed_table("m", "items", ITEMS_SCHEMA)
    env.engine.execute("INSERT INTO m.items VALUES (9, 9.0)", env.admin)


def _drop_and_recreate_to_the_same_version(env):
    """The cached entry was keyed at version 2; two INSERTs into the
    re-created table would bring a restarted version line back to 2."""
    env.platform.catalog.drop_table("m", "items")
    env.platform.tables.create_managed_table("m", "items", ITEMS_SCHEMA)
    for _ in range(2):
        env.engine.execute("INSERT INTO m.items VALUES (7, 7.0)", env.admin)


def _flip(flag):
    def mutate(env):
        setattr(env.engine, flag, not getattr(env.engine, flag))

    return mutate


def _nothing(env):
    pass


JOIN_Q = (
    "SELECT s.region, COUNT(*) AS n FROM ds.sales s JOIN m.items i "
    "ON s.order_id = i.id GROUP BY s.region ORDER BY s.region"
)

FALL_OFF_CASES = {
    # name: (sql, warmed as, mutation, asked as, extra execute kwargs)
    "row policy added": (SALES_Q, "reader", _grant_row_policy, "reader", {}),
    "mask added": (SALES_Q, "reader", _grant_mask, "reader", {}),
    "dml on a referenced table": (ITEMS_Q, "admin", _insert, "admin", {}),
    "dml on one table of a join": (JOIN_Q, "admin", _insert, "admin", {}),
    "drop and recreate": (ITEMS_Q, "admin", _drop_and_recreate, "admin", {}),
    "drop and recreate to the same version": (
        ITEMS_Q, "admin", _drop_and_recreate_to_the_same_version, "admin", {}),
    "different principal": (SALES_Q, "admin", _nothing, "reader", {}),
    "different snapshot_ms": (SALES_Q, "admin", _nothing, "admin", {"snapshot_ms": 1e9}),
    "enable_dpp flipped": (JOIN_Q, "admin", _flip("enable_dpp"), "admin", {}),
    "use_stats flipped": (JOIN_Q, "admin", _flip("use_stats"), "admin", {}),
}


@pytest.mark.parametrize("case", FALL_OFF_CASES)
def test_change_falls_off_the_fast_path(case):
    sql, warmed_as, mutate, asked_as, kwargs = FALL_OFF_CASES[case]
    warmed = build()
    principal = getattr(warmed, warmed_as)
    warmed.engine.execute(sql, principal, use_query_cache=True)
    assert warmed.engine.execute(sql, principal, use_query_cache=True).stats.cache_hit
    mutate(warmed)
    hits = result_tier(warmed)["hits"]
    after = warmed.engine.execute(
        sql, getattr(warmed, asked_as), use_query_cache=True, **kwargs)
    assert after.stats.cache_hit is False
    assert result_tier(warmed)["hits"] == hits
    # A platform that never cached anything, in the same end state.
    fresh = build()
    mutate(fresh)
    expected = fresh.engine.execute(sql, getattr(fresh, asked_as), **kwargs)
    assert after.rows() == expected.rows()
    assert after.schema == expected.schema
    # The new state is cached and served in its own right.
    again = warmed.engine.execute(
        sql, getattr(warmed, asked_as), use_query_cache=True, **kwargs)
    assert again.stats.cache_hit is True
    assert again.rows() == expected.rows()


def test_txn_commit_falls_off_the_fast_path():
    from repro.txn.workload import build_txn_platform

    sql = "SELECT order_id, total FROM txn.orders ORDER BY order_id"

    def commit(platform, admin):
        txn = platform.begin(admin)
        txn.execute("UPDATE txn.orders SET total = total + 5.0 WHERE order_id = 1")
        txn.commit()

    platform, admin = build_txn_platform(orders=3)
    engine = platform.home_engine
    engine.execute(sql, admin, use_query_cache=True)
    assert engine.execute(sql, admin, use_query_cache=True).stats.cache_hit
    commit(platform, admin)
    after = engine.execute(sql, admin, use_query_cache=True)
    assert after.stats.cache_hit is False
    fresh, fresh_admin = build_txn_platform(orders=3)
    commit(fresh, fresh_admin)
    assert after.rows() == fresh.home_engine.execute(sql, fresh_admin).rows()


class TestIamRecheck:
    def _revoke(self, env):
        env.platform.iam.revoke(
            f"projects/{env.platform.config.project}", Role.DATA_VIEWER, env.reader)

    def test_revoked_reader_falls_off_and_is_denied(self, env):
        env.engine.execute(SALES_Q, env.reader, use_query_cache=True)
        assert env.engine.execute(SALES_Q, env.reader, use_query_cache=True).stats.cache_hit
        self._revoke(env)
        hits = result_tier(env)["hits"]
        job = env.platform.submit(SALES_Q, env.reader, use_query_cache=True)
        assert job.statement is None  # still a known text: denied at execution
        with pytest.raises(AccessDeniedError):
            job.wait()
        assert result_tier(env)["hits"] == hits
        fresh = build()
        self._revoke(fresh)
        with pytest.raises(AccessDeniedError):
            fresh.engine.execute(SALES_Q, fresh.reader)

    def test_every_hit_rechecks_iam_on_every_table(self, env, monkeypatch):
        env.engine.execute(JOIN_Q, env.reader, use_query_cache=True)
        checked = []
        original = type(env.platform.iam).is_allowed

        def spy(self, principal, permission, resource):
            checked.append((str(principal), permission.name, resource))
            return original(self, principal, permission, resource)

        monkeypatch.setattr(type(env.platform.iam), "is_allowed", spy)
        assert env.engine.execute(JOIN_Q, env.reader, use_query_cache=True).stats.cache_hit
        data_checks = [c for c in checked if c[1] == "TABLES_GET_DATA"]
        assert sorted(c[2] for c in data_checks) == sorted(
            env.platform.catalog.get_table(d, n).resource_name
            for d, n in (("ds", "sales"), ("m", "items"))
        )
        assert {c[0] for c in data_checks} == {str(env.reader)}

    def test_every_hit_digests_the_policies_afresh(self, env, monkeypatch):
        """Each hit keys on digests equal to ones recomputed from scratch
        (tests/reference_plan_cache.py) — across a policy change, a
        revoke, a re-grant and DML between the hits — and it digests
        every table it reads, whatever the memos hold."""
        from repro.cache import plan as plan_module

        from tests import reference_plan_cache as reference

        keyed = []
        original = plan_module.table_digest

        def spy(table, principal):
            digest = original(table, principal)
            keyed.append((digest, reference.table_digest(table, principal)))
            return digest

        monkeypatch.setattr(plan_module, "table_digest", spy)
        project = f"projects/{env.platform.config.project}"
        changes = [
            _nothing,
            _grant_row_policy,
            lambda env: env.platform.iam.revoke(project, Role.DATA_VIEWER, env.reader),
            lambda env: env.platform.iam.grant(project, Role.DATA_VIEWER, env.reader),
            _grant_mask,
            _insert,
        ]
        for change in changes:
            change(env)
            for sql in (SALES_Q, JOIN_Q):
                try:
                    env.engine.execute(sql, env.reader, use_query_cache=True)
                except AccessDeniedError:
                    pass
                keyed.clear()
                try:
                    hit = env.engine.execute(sql, env.reader, use_query_cache=True)
                except AccessDeniedError:
                    continue
                assert hit.stats.cache_hit
                assert len(keyed) == (1 if sql == SALES_Q else 2)
                assert all(got == want for got, want in keyed), keyed

    def test_refs_evicted_entry_is_a_miss_not_a_vacuous_pass(self, env):
        """The regression the ``key[:6]`` slice invited: the result entry
        outlives the side map's memory of its text. The IAM recheck must
        not pass for want of tables to check."""
        env.engine.execute(SALES_Q, env.reader, use_query_cache=True)
        assert result_tier(env)["entries"] == 1
        base = env.cache._base_key(SALES_Q, env.engine)
        for i in range(env.cache._refs_capacity + 1):
            env.engine.execute(f"SELECT * FROM ds.sales LIMIT {i + 1}", env.admin)
        assert base not in env.cache._refs
        assert result_tier(env)["entries"] == 1  # the entry itself lives on
        self._revoke(env)
        hits = result_tier(env)["hits"]
        job = env.platform.submit(SALES_Q, env.reader, use_query_cache=True)
        assert job.statement is not None  # unknown again: parsed at submit
        with pytest.raises(AccessDeniedError):
            job.wait()
        assert result_tier(env)["hits"] == hits

    def test_lookup_needs_the_tables_it_rechecks(self, env):
        """A result key is built from resolved tables and carries them; no
        key can be built for a text whose tables are unknown or gone."""
        env.engine.execute(SALES_Q, env.reader, use_query_cache=True)
        resolution = env.cache.resolve(SALES_Q, env.engine, env.reader)
        key = env.cache.text_result_key(resolution, env.reader, None)
        assert [t.name for t in key.tables] == ["sales"]
        env.cache._refs.clear()
        assert env.cache.resolve(SALES_Q, env.engine, env.reader) is None
        env.engine.execute(SALES_Q, env.reader, use_query_cache=True)
        env.platform.catalog.drop_table("ds", "sales")
        assert env.cache.resolve(SALES_Q, env.engine, env.reader) is None


# -- same errors, same JOBS rows -----------------------------------------------


class TestErrorsAndJobsRows:
    def test_syntax_error_on_unknown_text_raises_at_submit(self, env):
        with pytest.raises(SqlSyntaxError):
            env.platform.submit("SELEC region FROM ds.sales", env.admin)
        last = env.platform.history.last
        assert last.state == "FAILED" and last.kind == "invalid"
        assert last.error_code

    def test_known_text_over_a_dropped_table_fails_at_execution(self, env):
        env.engine.execute(ITEMS_Q, env.admin, use_query_cache=True)
        env.platform.catalog.drop_table("m", "items")
        job = env.platform.submit(ITEMS_Q, env.admin, use_query_cache=True)
        assert job.state == "PENDING"  # submit accepted it unparsed
        with pytest.raises(ReproError) as known:
            job.wait()
        assert job.state == "FAILED"
        fresh = build()
        fresh.platform.catalog.drop_table("m", "items")
        fresh_job = fresh.platform.submit(ITEMS_Q, fresh.admin, use_query_cache=True)
        with pytest.raises(ReproError) as unknown:
            fresh_job.wait()
        assert type(known.value) is type(unknown.value)
        assert str(known.value) == str(unknown.value)

    def test_jobs_row_of_a_warm_hit_is_unchanged(self):
        """Two identical platforms serve the same warm hit, one from the
        text (lazy statement, probe before the plan tier), one with the
        text forgotten first (parsed at submit, keyed from the plan): the
        JOBS rows agree in every column."""

        def warm_hit_row(forget_text: bool):
            env = build()
            env.engine.execute(SALES_Q, env.reader, use_query_cache=True)
            env.platform.ctx.clock.advance(5.0)
            if forget_text:
                env.cache._refs.clear()
            job = env.platform.submit(SALES_Q, env.reader, use_query_cache=True)
            assert (job.statement is None) is (not forget_text)
            assert job.wait().stats.cache_hit is True
            result = env.engine.execute(
                f"SELECT * FROM INFORMATION_SCHEMA.JOBS WHERE job_id = '{job.job_id}'",
                env.admin,
            )
            (row,) = result.rows()
            return dict(zip(result.schema.names(), row))

        fast, parsed = warm_hit_row(False), warm_hit_row(True)
        assert fast == parsed
        assert fast["kind"] == "select" and fast["state"] == "SUCCEEDED"
        assert fast["cache_hit"] is True
        assert fast["bytes_scanned"] == 0 and fast["bytes_read"] == 0
        assert fast["creation_ms"] <= fast["start_ms"] <= fast["end_ms"]
        assert fast["total_ms"] > 0
