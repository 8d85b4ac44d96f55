"""Plan cache + query-result cache: hits, snapshot-keyed coherence
(invalidation by keying, never flushing), governance, and the JOBS
``cache_hit`` surface."""

import pytest

from repro import LakehousePlatform
from repro.cache import CacheConfig
from repro.cache.plan import QueryCache, QueryCacheConfig
from repro.core.platform import PlatformConfig
from repro.data import DataType, Schema
from repro.errors import AnalysisError
from repro.security import RowAccessPolicy
from repro.engine.plan import PlanNode
from repro.metastore.catalog import TableInfo
from repro.security.iam import Role
from repro.serving.workload import build_serving_platform, mixed_queries
from repro.sql.parser import parse_statement

from tests.helpers import make_platform, setup_sales_lake

SALES_Q = "SELECT region, COUNT(*) AS n FROM ds.sales GROUP BY region ORDER BY region"


@pytest.fixture
def env():
    platform, admin = make_platform()
    setup_sales_lake(platform, admin)
    return platform, admin


@pytest.fixture(scope="module")
def suite_env():
    """Both TPC lakes, admin only, each of the 17 suite statements run once:
    a table's first read fills its metadata cache and prunes nothing, so
    only later runs are comparable with each other."""
    platform, admin, _ = build_serving_platform(scale=0.05, analysts=0)
    for _, sql in mixed_queries():
        platform.home_engine.execute(sql, admin)
    return platform, admin


def plan_fingerprint(value):
    """Every attribute of every node of a plan, node identities included:
    any write to any node — a rebound child, an appended filter, a new
    attribute — changes it."""
    if isinstance(value, PlanNode):
        attrs = {name: plan_fingerprint(v) for name, v in vars(value).items()}
        return (type(value).__name__, id(value), attrs)
    if isinstance(value, (list, tuple)):
        return [plan_fingerprint(item) for item in value]
    if isinstance(value, TableInfo):
        return value.table_id
    return repr(value)


def make_managed(platform, admin):
    """A writable managed table (ds.sales is BigLake: INSERT is rejected)."""
    platform.catalog.create_dataset("m")
    platform.tables.create_managed_table(
        "m", "items", Schema.of(("id", DataType.INT64), ("v", DataType.FLOAT64))
    )
    platform.home_engine.execute("INSERT INTO m.items VALUES (1, 1.0)", admin)
    platform.home_engine.execute("INSERT INTO m.items VALUES (2, 2.0)", admin)
    return "SELECT id, v FROM m.items ORDER BY id"


def plan_stats(platform):
    return platform.query_cache.snapshot()["plan"]


def result_stats(platform):
    return platform.query_cache.snapshot()["result"]


class TestPlanCache:
    def test_second_run_hits(self, env):
        platform, admin = env
        r1 = platform.home_engine.execute(SALES_Q, admin)
        assert plan_stats(platform)["entries"] == 1
        assert plan_stats(platform)["hits"] == 0
        r2 = platform.home_engine.execute(SALES_Q, admin)
        assert plan_stats(platform)["hits"] == 1
        assert r1.rows() == r2.rows()

    def test_dml_invalidates_by_keying_not_flushing(self, env):
        platform, admin = env
        q = make_managed(platform, admin)
        platform.home_engine.execute(q, admin)
        entries_before = plan_stats(platform)["entries"]
        hits_before = plan_stats(platform)["hits"]
        platform.home_engine.execute("INSERT INTO m.items VALUES (3, 3.0)", admin)
        # The table version bumped, so the old entry stops being addressed —
        # but it is still resident (keyed coherence, no flush).
        assert plan_stats(platform)["entries"] >= entries_before
        platform.home_engine.execute(q, admin)
        stats = plan_stats(platform)
        assert stats["hits"] == hits_before  # miss: new snapshot digest
        assert stats["entries"] >= entries_before + 1  # old + new coexist
        platform.home_engine.execute(q, admin)
        assert plan_stats(platform)["hits"] == hits_before + 1

    def test_policy_digest_separates_principals(self, env):
        platform, admin = env
        analyst = platform.create_user("analyst", [Role.DATA_VIEWER, Role.JOB_USER])
        table = platform.catalog.get_table("ds", "sales")
        table.policies.add_row_policy(
            RowAccessPolicy("us_only", "region = 'us'", frozenset({analyst}))
        )
        full = platform.home_engine.execute(SALES_Q, admin)
        entries_after_admin = plan_stats(platform)["entries"]
        filtered = platform.home_engine.execute(SALES_Q, analyst)
        # Different effective policy -> different key -> second entry.
        assert plan_stats(platform)["entries"] == entries_after_admin + 1
        assert filtered.rows() != full.rows()
        assert [r[0] for r in filtered.rows()] == ["us"]
        # Each principal now hits their own entry, rows stay principal-true.
        assert platform.home_engine.execute(SALES_Q, analyst).rows() == filtered.rows()
        assert platform.home_engine.execute(SALES_Q, admin).rows() == full.rows()
        assert plan_stats(platform)["hits"] == 2

    def test_capacity_bounded_lru(self, env):
        platform, admin = env
        platform.query_cache.config.plan_capacity = 2
        platform.query_cache.plans.capacity_bytes = 2
        platform.query_cache.plans.admission_limit = 2
        for lim in (1, 2, 3):
            platform.home_engine.execute(f"SELECT * FROM ds.sales LIMIT {lim}", admin)
        stats = plan_stats(platform)
        assert stats["entries"] == 2
        assert stats["evictions"] == 1

    @pytest.mark.parametrize("name,sql", mixed_queries(), ids=[n for n, _ in mixed_queries()])
    def test_executing_a_cached_plan_leaves_it_untouched(self, suite_env, name, sql):
        """A plan is sealed after optimize: the plan tier hands every hit
        the one stored object, and running it — dynamic partition pruning
        included — writes to no node, so two runs are the same run."""
        platform, admin = suite_env
        engine = platform.home_engine
        cache = platform.query_cache
        plan = engine.plan(parse_statement(sql))
        assert cache.store_plan(sql, engine, admin, plan)
        assert cache.lookup_plan(sql, engine, admin) is plan
        assert cache.lookup_plan(sql, engine, admin) is cache.lookup_plan(sql, engine, admin)
        sealed, text = plan_fingerprint(plan), plan.describe()
        hits = plan_stats(platform)["hits"]
        first = engine.execute(sql, admin)
        assert plan_fingerprint(plan) == sealed
        second = engine.execute(sql, admin)
        assert plan_stats(platform)["hits"] == hits + 2  # both ran the shared plan
        assert plan_fingerprint(plan) == sealed and plan.describe() == text
        assert first.plan_text == second.plan_text == text
        assert second.rows() == first.rows()
        assert second.stats.dpp_applied == first.stats.dpp_applied
        assert second.stats.files_read == first.stats.files_read
        if name == "tpcds.q_dpp":
            assert first.stats.dpp_applied > 0  # the pruning state exists, off the plan

    def test_ast_submissions_bypass_caches(self, env):
        platform, admin = env
        statement = parse_statement(SALES_Q)
        platform.home_engine.execute(statement, admin)
        platform.home_engine.execute(statement, admin)
        stats = plan_stats(platform)
        assert stats["entries"] == 0
        assert stats["hits"] == 0


class TestResultCache:
    def test_warm_hit_identical_rows_zero_scan(self):
        # Data cache off: any byte read must come from a real scan, so a
        # result-cache hit is visible as exactly zero object-store reads.
        platform = LakehousePlatform(
            PlatformConfig(data_cache=CacheConfig(enabled=False))
        )
        admin = platform.admin_user()
        setup_sales_lake(platform, admin)
        cold = platform.home_engine.execute(SALES_Q, admin, use_query_cache=True)
        assert cold.stats.cache_hit is False
        assert cold.stats.bytes_scanned > 0
        before = platform.ctx.metering.snapshot()
        warm = platform.home_engine.execute(SALES_Q, admin, use_query_cache=True)
        delta = platform.ctx.metering.delta_since(before)
        assert warm.stats.cache_hit is True
        assert warm.rows() == cold.rows()
        assert warm.stats.bytes_scanned == 0
        assert delta.bytes_read == 0
        assert result_stats(platform)["hits"] == 1

    def test_opt_in_required(self, env):
        platform, admin = env
        platform.home_engine.execute(SALES_Q, admin)
        platform.home_engine.execute(SALES_Q, admin)
        assert result_stats(platform)["entries"] == 0
        r = platform.home_engine.execute(SALES_Q, admin)
        assert r.stats.cache_hit is False

    def test_jobs_carries_cache_hit_column(self, env):
        platform, admin = env
        platform.home_engine.execute(SALES_Q, admin, use_query_cache=True)
        platform.home_engine.execute(SALES_Q, admin, use_query_cache=True)
        rows = platform.home_engine.execute(
            "SELECT job_id, cache_hit, bytes_scanned FROM INFORMATION_SCHEMA.JOBS "
            "WHERE kind = 'select' AND sql LIKE '%ds.sales%' ORDER BY job_id",
            admin,
        ).rows()
        cold, warm = rows[0], rows[1]
        assert cold[1] is False and cold[2] > 0
        assert warm[1] is True and warm[2] == 0

    def test_dml_with_use_query_cache_rejected_eagerly(self, env):
        platform, admin = env
        with pytest.raises(AnalysisError, match="use_query_cache"):
            platform.home_engine.execute(
                "INSERT INTO ds.sales VALUES (1000, 'eu', 2.0, 2023)",
                admin,
                use_query_cache=True,
            )
        # The failure was recorded before any execution (FAILED job row).
        last = platform.history.last
        assert last.state == "FAILED"
        assert "use_query_cache" in last.error

    def test_dml_invalidates_result_by_keying(self, env):
        platform, admin = env
        q = make_managed(platform, admin)
        cold = platform.home_engine.execute(q, admin, use_query_cache=True)
        platform.home_engine.execute("INSERT INTO m.items VALUES (3, 3.0)", admin)
        # Old entry still resident — nothing was flushed.
        assert result_stats(platform)["entries"] == 1
        fresh = platform.home_engine.execute(q, admin, use_query_cache=True)
        assert fresh.stats.cache_hit is False
        assert fresh.rows() != cold.rows()
        assert result_stats(platform)["entries"] == 2

    def test_snapshot_ms_is_part_of_the_key(self, env):
        platform, admin = env
        now = platform.ctx.clock.now_ms
        live = platform.home_engine.execute(SALES_Q, admin, use_query_cache=True)
        pinned = platform.home_engine.execute(
            SALES_Q, admin, snapshot_ms=now, use_query_cache=True
        )
        assert pinned.stats.cache_hit is False  # distinct key, own entry
        assert result_stats(platform)["entries"] == 2
        again = platform.home_engine.execute(
            SALES_Q, admin, snapshot_ms=now, use_query_cache=True
        )
        assert again.stats.cache_hit is True
        assert again.rows() == pinned.rows()
        assert live.stats.cache_hit is False

    def test_results_are_per_principal(self, env):
        platform, admin = env
        analyst = platform.create_user("analyst", [Role.DATA_VIEWER, Role.JOB_USER])
        platform.home_engine.execute(SALES_Q, admin, use_query_cache=True)
        r = platform.home_engine.execute(SALES_Q, analyst, use_query_cache=True)
        assert r.stats.cache_hit is False  # never served across principals

    def test_revoked_reader_not_served_from_cache(self, env):
        platform, admin = env
        reader = platform.create_user("reader", [Role.DATA_VIEWER, Role.JOB_USER])
        warm = platform.home_engine.execute(SALES_Q, reader, use_query_cache=True)
        assert warm.rows()
        platform.iam.revoke(
            f"projects/{platform.config.project}", Role.DATA_VIEWER, reader
        )
        # The entry is still resident, but the hit path re-checks IAM and
        # falls through to a real execution, which raises the normal error.
        from repro.errors import AccessDeniedError

        with pytest.raises(AccessDeniedError):
            platform.home_engine.execute(SALES_Q, reader, use_query_cache=True)

    def test_information_schema_never_result_cached(self, env):
        platform, admin = env
        q = "SELECT COUNT(*) AS n FROM INFORMATION_SCHEMA.JOBS"
        platform.home_engine.execute(q, admin, use_query_cache=True)
        r = platform.home_engine.execute(q, admin, use_query_cache=True)
        assert r.stats.cache_hit is False
        assert result_stats(platform)["entries"] == 0


class TestTransactionCoherence:
    def test_txn_commit_invalidates_both_caches_keyed_not_flushed(self):
        from repro.txn.workload import build_txn_platform

        platform, admin = build_txn_platform(orders=3)
        q = "SELECT order_id, total FROM txn.orders ORDER BY order_id"
        cold = platform.home_engine.execute(q, admin, use_query_cache=True)
        plan_entries = plan_stats(platform)["entries"]
        result_entries = result_stats(platform)["entries"]
        assert plan_entries >= 1 and result_entries == 1

        txn = platform.begin(admin)
        txn.execute("UPDATE txn.orders SET total = total + 5.0 WHERE order_id = 1")
        txn.commit()

        # Nothing was flushed...
        assert plan_stats(platform)["entries"] >= plan_entries
        assert result_stats(platform)["entries"] >= result_entries
        # ...but the commit bumped the table version, so both tiers miss.
        fresh = platform.home_engine.execute(q, admin, use_query_cache=True)
        assert fresh.stats.cache_hit is False
        assert fresh.rows() != cold.rows()
        # And the post-commit snapshot caches + serves normally.
        again = platform.home_engine.execute(q, admin, use_query_cache=True)
        assert again.stats.cache_hit is True
        assert again.rows() == fresh.rows()


class TestCacheStatsSurface:
    def test_plan_and_result_tiers_in_cache_stats(self, env):
        platform, admin = env
        platform.home_engine.execute(SALES_Q, admin, use_query_cache=True)
        platform.home_engine.execute(SALES_Q, admin, use_query_cache=True)
        rows = platform.home_engine.execute(
            "SELECT tier, hits, entries FROM INFORMATION_SCHEMA.CACHE_STATS "
            "ORDER BY tier",
            admin,
        ).rows()
        by_tier = {tier: (hits, entries) for tier, hits, entries in rows}
        # A result hit is served before the plan tier is asked: the cold
        # run's plan (and this very statement's) is resident, never hit.
        assert by_tier["plan"] == (0, 2)
        assert by_tier["result"] == (1, 1)


class TestQueryCacheUnit:
    def test_unresolvable_table_is_a_miss(self):
        platform, admin = make_platform()
        setup_sales_lake(platform, admin)
        engine = platform.home_engine
        cache = QueryCache(platform.ctx, platform.catalog, QueryCacheConfig())
        plan = engine.plan(parse_statement(SALES_Q))
        assert cache.store_plan(SALES_Q, engine, admin, plan)
        platform.catalog.drop_table("ds", "sales")
        assert cache.lookup_plan(SALES_Q, engine, admin) is None

    def test_result_admission_rejects_oversized(self):
        platform, admin = make_platform()
        setup_sales_lake(platform, admin)
        config = QueryCacheConfig(
            result_capacity_bytes=64, result_admission_fraction=0.25
        )
        cache = QueryCache(platform.ctx, platform.catalog, config)
        schema = Schema.of(("a", DataType.INT64))
        assert not cache.results.put(("k",), (schema, (), ""), 1000)
        assert cache.results.stats.admission_rejects == 1
