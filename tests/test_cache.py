"""Unit and integration tests for the multi-tier data cache.

Covers the LRU/admission mechanics of one :class:`CacheTier`, the
generation/enabled gating of :class:`DataCache`, fault-injected bypasses
(slower, never wrong), the warm-scan integration through the engine, the
``CACHE_STATS`` / ``JOBS`` observability surface, and the ceil-based wave
model in ``QueryStats.finalize``.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig, CacheTier, DataCache
from repro.core.platform import LakehousePlatform, PlatformConfig
from repro.engine.engine import QueryStats
from repro.faults import FaultSpec
from repro.simtime import SimContext
from repro.storageapi.read_api import SessionStats

from tests.helpers import make_platform, setup_sales_lake

SALES_SQL = (
    "SELECT region, COUNT(*) AS n, SUM(amount) AS total "
    "FROM ds.sales GROUP BY region ORDER BY region"
)


class TestCacheTier:
    def test_hit_moves_to_lru_tail(self):
        tier = CacheTier("t", capacity_bytes=100, admission_fraction=1.0)
        tier.put(("a",), "A", 40)
        tier.put(("b",), "B", 40)
        tier.get(("a",))  # refresh a: b is now the LRU victim
        tier.put(("c",), "C", 40)
        assert tier.get(("b",)) is None
        assert tier.get(("a",)) == ("A", 40)
        assert tier.stats.evictions == 1

    def test_eviction_frees_until_fit(self):
        tier = CacheTier("t", capacity_bytes=100, admission_fraction=1.0)
        for name in "abcd":
            tier.put((name,), name, 25)
        tier.put(("e",), "e", 60)  # must evict a, b, and c
        assert len(tier) == 2
        assert tier.resident_bytes == 85
        assert tier.stats.evictions == 3

    def test_admission_rejects_oversize(self):
        tier = CacheTier("t", capacity_bytes=100, admission_fraction=0.25)
        assert not tier.put(("big",), "x", 26)  # over the 25-byte limit
        assert tier.put(("ok",), "y", 25)
        assert tier.stats.admission_rejects == 1
        assert len(tier) == 1

    def test_overwrite_same_key_replaces_size(self):
        tier = CacheTier("t", capacity_bytes=100, admission_fraction=1.0)
        tier.put(("a",), "v1", 30)
        tier.put(("a",), "v2", 50)
        assert len(tier) == 1
        assert tier.resident_bytes == 50
        assert tier.get(("a",)) == ("v2", 50)

    def test_hit_and_miss_counters(self):
        tier = CacheTier("t", capacity_bytes=100, admission_fraction=1.0)
        tier.put(("a",), "A", 10)
        tier.get(("a",))
        tier.get(("a",))
        tier.get(("zzz",))
        assert tier.stats.hits == 2
        assert tier.stats.misses == 1
        assert tier.stats.hit_bytes == 20
        assert tier.stats.hit_ratio == 2 / 3


class TestDataCacheGating:
    def _cache(self, **overrides):
        return DataCache(SimContext(), CacheConfig(**overrides))

    def test_generation_zero_never_cached(self):
        cache = self._cache()
        cache.admit_chunk("b", "k", 0, 0, "c", "value", 10)
        assert cache.lookup_chunk("b", "k", 0, 0, "c") is None
        assert len(cache.chunks) == 0

    def test_disabled_cache_is_inert(self):
        cache = self._cache(enabled=False)
        cache.admit_chunk("b", "k", 7, 0, "c", "value", 10)
        assert cache.lookup_chunk("b", "k", 7, 0, "c") is None
        assert len(cache.chunks) == 0

    def test_generation_is_part_of_the_key(self):
        cache = self._cache()
        cache.admit_chunk("b", "k", 1, 0, "c", "old", 10)
        cache.admit_chunk("b", "k", 2, 0, "c", "new", 10)
        assert cache.lookup_chunk("b", "k", 1, 0, "c")[0] == "old"
        assert cache.lookup_chunk("b", "k", 2, 0, "c")[0] == "new"

    def test_chunk_hit_charges_sim_time(self):
        cache = self._cache()
        ctx = cache.ctx
        cache.admit_chunk("b", "k", 1, 0, "c", "value", 1024)
        before = ctx.clock.now_ms
        assert cache.lookup_chunk("b", "k", 1, 0, "c") == ("value", 1024)
        assert ctx.clock.now_ms > before
        assert ctx.metering.op_counts.get("data_cache.hit", 0) == 1

    def test_hit_and_miss_metrics_exported(self):
        cache = self._cache()
        cache.admit_chunk("b", "k", 1, 0, "c", "value", 10)
        cache.lookup_chunk("b", "k", 1, 0, "c")
        cache.lookup_chunk("b", "k", 1, 0, "missing")
        rendered = cache.ctx.metrics.render()
        assert 'repro_cache_hits_total{tier="chunk"} 1' in rendered
        assert 'repro_cache_misses_total{tier="chunk"} 1' in rendered
        assert 'repro_cache_bytes_total{tier="chunk"} 10' in rendered
        assert 'repro_cache_resident_bytes{tier="chunk"} 10' in rendered


class TestFaultBypass:
    def test_get_fault_degrades_to_miss(self):
        cache = DataCache(SimContext(), CacheConfig())
        cache.admit_chunk("b", "k", 1, 0, "c", "value", 10)
        cache.ctx.faults.add(
            FaultSpec(op="cache.get", error="UnavailableError", count=1)
        )
        assert cache.lookup_chunk("b", "k", 1, 0, "c") is None  # bypassed
        assert cache.lookup_chunk("b", "k", 1, 0, "c") is not None  # healthy again
        assert cache.ctx.metering.op_counts.get("repro.degraded", 0) == 1
        assert "repro_cache_bypass_total" in cache.ctx.metrics.render()

    def test_put_fault_skips_admission(self):
        cache = DataCache(SimContext(), CacheConfig())
        cache.ctx.faults.add(
            FaultSpec(op="cache.put", error="UnavailableError", count=1)
        )
        cache.admit_chunk("b", "k", 1, 0, "c", "value", 10)
        assert len(cache.chunks) == 0
        cache.admit_chunk("b", "k", 1, 0, "c", "value", 10)
        assert len(cache.chunks) == 1

    def test_query_survives_cache_faults(self):
        platform, admin = make_platform()
        setup_sales_lake(platform, admin)
        baseline = platform.home_engine.execute(SALES_SQL, admin).rows()
        platform.ctx.faults.add(
            FaultSpec(op="cache.", error="UnavailableError", rate=1.0)
        )
        result = platform.home_engine.execute(SALES_SQL, admin)
        assert result.rows() == baseline
        assert result.stats.degraded


class TestWarmScanIntegration:
    def test_warm_run_serves_from_cache(self):
        platform, admin = make_platform()
        setup_sales_lake(platform, admin)
        cold = platform.home_engine.execute(SALES_SQL, admin)
        warm = platform.home_engine.execute(SALES_SQL, admin)
        assert warm.rows() == cold.rows()
        assert cold.stats.cache_hit_bytes == 0
        assert warm.stats.bytes_scanned == 0
        assert warm.stats.cache_hit_bytes > 0
        assert warm.stats.cache_hit_ratio == 1.0
        assert warm.stats.elapsed_ms < cold.stats.elapsed_ms

    def test_disabled_cache_reproduces_cold_baseline(self):
        enabled_platform, admin_a = make_platform()
        setup_sales_lake(enabled_platform, admin_a)
        disabled_platform = LakehousePlatform(
            PlatformConfig(data_cache=CacheConfig(enabled=False))
        )
        admin_b = disabled_platform.admin_user()
        setup_sales_lake(disabled_platform, admin_b)
        warm = enabled_platform.home_engine.execute(SALES_SQL, admin_a)
        warm = enabled_platform.home_engine.execute(SALES_SQL, admin_a)
        cold = disabled_platform.home_engine.execute(SALES_SQL, admin_b)
        cold = disabled_platform.home_engine.execute(SALES_SQL, admin_b)
        assert warm.rows() == cold.rows()
        assert cold.stats.cache_hit_bytes == 0
        assert cold.stats.bytes_scanned > 0

    def test_projection_change_still_correct_when_warm(self):
        # Warm the cache with one shape, then ask for different columns:
        # missing chunks are ranged-fetched, the answer stays right.
        platform, admin = make_platform()
        setup_sales_lake(platform, admin)
        platform.home_engine.execute(SALES_SQL, admin)
        result = platform.home_engine.execute(
            "SELECT year, COUNT(*) AS n FROM ds.sales GROUP BY year ORDER BY year",
            admin,
        )
        assert result.rows() == [(2022, 100), (2023, 100)]

    def test_dictionary_tier_shares_decoded_dictionaries(self):
        platform, admin = make_platform()
        setup_sales_lake(platform, admin)
        platform.home_engine.execute(SALES_SQL, admin)
        # Distinct dictionaries across the 4 files: one shared 3-value
        # region dictionary plus the two single-value year dictionaries
        # ([2022], [2023]) — content-addressing stores each once.
        assert len(platform.data_cache.dictionaries) == 3
        assert platform.data_cache.dictionaries.stats.hits >= 3


class TestCacheObservability:
    def test_cache_stats_system_table(self):
        platform, admin = make_platform()
        setup_sales_lake(platform, admin)
        platform.home_engine.execute(SALES_SQL, admin)
        platform.home_engine.execute(SALES_SQL, admin)
        rows = platform.home_engine.execute(
            "SELECT tier, hits, misses, hit_ratio FROM INFORMATION_SCHEMA.CACHE_STATS "
            "ORDER BY tier",
            admin,
        ).rows()
        by_tier = {tier: (hits, misses, ratio) for tier, hits, misses, ratio in rows}
        assert set(by_tier) == {"footer", "chunk", "dictionary", "plan", "result"}
        assert by_tier["chunk"][0] > 0
        assert 0.0 < by_tier["chunk"][2] <= 1.0

    def test_jobs_table_carries_cache_columns(self):
        platform, admin = make_platform()
        setup_sales_lake(platform, admin)
        platform.home_engine.execute(SALES_SQL, admin)
        platform.home_engine.execute(SALES_SQL, admin)
        rows = platform.home_engine.execute(
            "SELECT job_id, cache_hit_bytes, cache_hit_ratio "
            "FROM INFORMATION_SCHEMA.JOBS ORDER BY job_id",
            admin,
        ).rows()
        cold_row, warm_row = rows[0], rows[1]
        assert cold_row[1] == 0
        assert warm_row[1] > 0
        assert warm_row[2] == 1.0


class TestWaveModelFinalize:
    """Satellite: elapsed time uses ceil(tasks / slots) waves."""

    def _stats(self, tasks: int) -> QueryStats:
        stats = QueryStats()
        stats.scan_tasks = tasks
        stats.scan_work_ms = 120.0
        return stats

    def test_three_tasks_on_two_slots_take_two_waves(self):
        stats = self._stats(3)
        stats.finalize(slots=2, startup_ms=0.0)
        # ceil(3/2) = 2 waves: 2/3 of the scan work elapses, not 1/2.
        assert stats.elapsed_ms == pytest.approx(120.0 * 2 / 3)

    def test_tasks_at_or_below_slots_take_one_wave(self):
        for tasks in (1, 2, 4):
            stats = self._stats(tasks)
            stats.finalize(slots=4, startup_ms=0.0)
            assert stats.elapsed_ms == pytest.approx(120.0 / tasks)

    def test_many_waves(self):
        stats = self._stats(10)
        stats.finalize(slots=4, startup_ms=0.0)
        assert stats.elapsed_ms == pytest.approx(120.0 * 3 / 10)


class TestSessionStatsAccumulation:
    """Satellite regression: a SessionStats seeing several resolutions must
    accumulate file counts, not overwrite them (files_pruned went negative
    when a later, smaller resolution clobbered an earlier one)."""

    def test_file_streams_accumulate_into_shared_stats(self):
        from repro.sql.analysis import ConstraintSet

        platform, admin = make_platform()
        table, _ = setup_sales_lake(platform, admin)
        platform.read_api.create_read_session(admin, table)  # warm metadata
        stats = SessionStats()
        for _ in range(2):
            platform.read_api._file_streams(
                table, ConstraintSet(), None, 8, stats
            )
        assert stats.files_total == 8
        assert stats.files_after_pruning == 8
        assert stats.files_pruned == 0

    def test_resolution_cache_hits_accumulate(self):
        platform, admin = make_platform()
        table, _ = setup_sales_lake(platform, admin)
        platform.read_api.create_read_session(admin, table, reuse=True)
        second = platform.read_api.create_read_session(admin, table, reuse=True)
        assert second.stats.served_from_session_cache
        assert second.stats.files_total == 4
        assert second.stats.files_pruned >= 0


class TestAgeEviction:
    """Satellite: TTL/idle expiry on the sim clock, with the eviction
    metric split by reason (``lru`` pressure vs ``ttl``/``idle`` age)."""

    def _tier(self, dropped, **age):
        clock = [0.0]
        tier = CacheTier(
            "t",
            capacity_bytes=100,
            admission_fraction=1.0,
            now_fn=lambda: clock[0],
            on_evict=lambda t, reason: dropped.append((t.name, reason)),
            **age,
        )
        return tier, clock

    def test_ttl_expires_on_get(self):
        dropped = []
        tier, clock = self._tier(dropped, ttl_ms=10.0)
        tier.put(("a",), "A", 40)
        clock[0] = 11.0
        assert tier.get(("a",)) is None
        assert tier.stats.expired_ttl == 1
        assert tier.stats.evictions == 0  # age expiry is not LRU pressure
        assert tier.stats.misses == 1
        assert tier.resident_bytes == 0
        assert dropped == [("t", "ttl")]

    def test_touch_does_not_extend_ttl(self):
        # TTL bounds total lifetime since admission; hits don't renew it.
        dropped = []
        tier, clock = self._tier(dropped, ttl_ms=10.0)
        tier.put(("a",), "A", 40)
        clock[0] = 8.0
        assert tier.get(("a",)) == ("A", 40)
        clock[0] = 11.0
        assert tier.get(("a",)) is None
        assert tier.stats.expired_ttl == 1

    def test_idle_spares_recently_touched_entries(self):
        dropped = []
        tier, clock = self._tier(dropped, idle_ms=30.0)
        tier.put(("a",), "A", 40)
        tier.put(("b",), "B", 40)
        clock[0] = 20.0
        tier.get(("a",))  # a touched at 20; b still untouched since 0
        clock[0] = 45.0
        assert tier.get(("b",)) is None  # idle 45 > 30
        assert tier.get(("a",)) == ("A", 40)  # idle 25 <= 30
        assert tier.stats.expired_idle == 1
        assert dropped == [("t", "idle")]

    def test_ttl_wins_when_both_bounds_exceeded(self):
        dropped = []
        tier, clock = self._tier(dropped, ttl_ms=10.0, idle_ms=5.0)
        tier.put(("a",), "A", 40)
        clock[0] = 20.0
        assert tier.get(("a",)) is None
        assert tier.stats.expired_ttl == 1
        assert tier.stats.expired_idle == 0
        assert dropped == [("t", "ttl")]

    def test_put_sweeps_expired_entries(self):
        dropped = []
        tier, clock = self._tier(dropped, ttl_ms=10.0)
        tier.put(("a",), "A", 40)
        clock[0] = 15.0
        tier.put(("b",), "B", 40)
        assert len(tier) == 1
        assert tier.resident_bytes == 40
        assert tier.stats.expired_ttl == 1
        assert dropped == [("t", "ttl")]

    def test_lru_and_ttl_counted_separately(self):
        dropped = []
        tier, clock = self._tier(dropped, ttl_ms=10.0)
        tier.put(("a",), "A", 60)
        tier.put(("b",), "B", 60)  # capacity pressure evicts a (lru)
        clock[0] = 15.0
        tier.put(("c",), "C", 10)  # sweep drops b (ttl) before admitting c
        assert tier.stats.evictions == 1
        assert tier.stats.expired_ttl == 1
        assert dropped == [("t", "lru"), ("t", "ttl")]

    def test_data_cache_exports_reason_split_metric(self):
        cache = DataCache(SimContext(), CacheConfig(ttl_ms=5.0))
        cache.admit_chunk("b", "k", 1, 0, "c", "value", 10)
        cache.ctx.clock.advance(6.0)
        assert cache.lookup_chunk("b", "k", 1, 0, "c") is None
        assert cache.chunks.stats.expired_ttl == 1
        rendered = cache.ctx.metrics.render()
        assert (
            'repro_cache_evictions_total{reason="ttl",tier="chunk"} 1'
            in rendered
        )

    def test_expiry_never_changes_results(self):
        # Coherence under aggressive aging: a TTL short enough to expire
        # everything between queries must only cost time, never rows.
        aged = LakehousePlatform(
            PlatformConfig(data_cache=CacheConfig(ttl_ms=1.0))
        )
        admin = aged.admin_user()
        setup_sales_lake(aged, admin)
        cold = aged.home_engine.execute(SALES_SQL, admin).rows()
        warm = aged.home_engine.execute(SALES_SQL, admin).rows()
        assert warm == cold
        expired = sum(t.stats.expired_ttl for t in aged.data_cache.tiers())
        assert expired > 0  # the aging actually fired
        # And against an unaged platform: identical answers.
        fresh, fresh_admin = make_platform()
        setup_sales_lake(fresh, fresh_admin)
        assert fresh.home_engine.execute(SALES_SQL, fresh_admin).rows() == cold


class TestWarmChunkBytes:
    """The scheduler's probe reads a per-object counter the chunk tier keeps
    where it admits, replaces, expires and evicts."""

    OBJECTS = [("b", "f0"), ("b", "f1"), ("c", "f0")]
    step = st.one_of(
        # admit / replace; a new generation is how a rewrite invalidates
        st.tuples(st.just("put"), st.integers(0, 2), st.integers(1, 3), st.integers(0, 3),
                  st.integers(0, 40)),
        st.tuples(st.just("get"), st.integers(0, 2), st.integers(1, 3), st.integers(0, 3)),
        st.tuples(st.just("wait"), st.floats(0.0, 12.0)),
    )

    @staticmethod
    def recomputed(cache, prefix):
        return sum(e[1] for k, e in cache.chunks._entries.items() if k[:3] == prefix)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(step, max_size=40))
    def test_counter_is_the_recomputed_sum(self, steps):
        cache = DataCache(
            SimContext(),
            CacheConfig(chunk_capacity_bytes=100, admission_fraction=0.3, ttl_ms=20.0, idle_ms=8.0),
        )
        for op, *args in steps:
            if op == "put":
                obj, generation, rg, size = args
                cache.admit_chunk(*self.OBJECTS[obj], generation, rg, "col", "v", size)
            elif op == "get":
                obj, generation, rg = args
                cache.lookup_chunk(*self.OBJECTS[obj], generation, rg, "col")
            else:
                cache.ctx.clock.advance(args[0])
            for bucket, key in self.OBJECTS:
                for generation in (1, 2, 3):
                    assert cache.warm_chunk_bytes(bucket, key, generation) == self.recomputed(
                        cache, (bucket, key, generation)
                    )
            assert sum(cache.chunks.object_bytes.values()) == cache.chunks.resident_bytes
            assert all(cache.chunks.object_bytes.values())  # no object left at zero

    def test_probe_does_not_perturb_the_cache(self):
        cache = DataCache(SimContext(), CacheConfig(chunk_capacity_bytes=100, admission_fraction=1.0))
        cache.admit_chunk("b", "k", 1, 0, "x", "v", 30)
        cache.admit_chunk("b", "k", 1, 1, "x", "v", 30)
        cache.admit_chunk("b", "other", 1, 0, "x", "v", 30)
        stats, order = copy.copy(cache.chunks.stats), list(cache.chunks._entries)
        now = cache.ctx.clock.now_ms
        assert cache.warm_chunk_bytes("b", "k", 1) == 60
        assert cache.warm_chunk_bytes("b", "k", 2) == 0
        assert cache.warm_chunk_bytes("b", "k", 0) == 0  # unknown generation: never cached
        assert (cache.chunks.stats, list(cache.chunks._entries)) == (stats, order)
        assert cache.ctx.clock.now_ms == now
        cache.admit_chunk("b", "big", 1, 0, "x", "v", 70)  # evicts both chunks of k
        assert cache.warm_chunk_bytes("b", "k", 1) == 0
