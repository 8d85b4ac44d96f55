"""Snapshot-keyed plan and query-result caches (control-plane siblings of
the slot-local data cache).

Two tiers, both bounded LRUs reusing :class:`~repro.cache.CacheTier`:

* **plan** — optimized physical plans keyed by ``(SQL text, engine
  identity + planner flags, per-table snapshot digests, principal-policy
  digest)``. Planning is pure computation on the control plane (it
  advances no sim clock and consults no fault hazards), so serving a
  cached plan is invisible to every determinism gate — it is enabled by
  default.
* **result** — completed SELECT results keyed like the plan tier plus the
  requesting principal and the ``snapshot_ms`` time-travel pin. Serving a
  hit skips the scan entirely (it charges only the cheap
  ``cache_lookup_ms``), so it *does* change the simulated timeline — it
  is opt-in per statement via ``use_query_cache=True``.

Coherence is by *keying*, never flushing, exactly like the data cache:
each referenced table contributes ``(table_id, version, schema
fingerprint, policy digest)`` to the key, and
:attr:`~repro.metastore.catalog.TableInfo.version` has one writer per
storage, at the point that storage's change becomes visible: the managed
seam (``TableManager.append`` / ``._mutate``), the BLMT commit epilogue
(``BlmtManager.committed``), the metadata-cache refresh commit
(``ReadApi.record_refresh``) and the catalog's replace. Stale entries stop
being addressed and age out of the LRU; policy changes alter the policy
digest the same way. Not covered (ROADMAP, "Smaller known gaps"): a result
hit never consults ``max_staleness_ms``, and a table read by listing has no
commit point at all. Entries are never served across
principals: the result key carries ``str(principal)`` and a per-table IAM
read check runs on every hit, against the tables the key was just built
from (a denied principal falls through to a real execution, which raises
the ordinary access error).

Plans containing TVFs are never cached (handlers are registered per
engine and models may be mutable); plans over ``INFORMATION_SCHEMA`` are
plan-cacheable (the plan is static) but never result-cacheable (the
underlying telemetry changes with every statement).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.cache import (
    HIT_BYTES_HELP,
    HITS_HELP,
    MISSES_HELP,
    RESIDENT_HELP,
    CacheTier,
    eviction_counter,
)
from repro.engine.plan import ScanNode, SystemTableNode, TvfNode
from repro.errors import ReproError
from repro.obs.metrics import MetricHandles
from repro.security.iam import IamService, Permission, Principal

if TYPE_CHECKING:
    from repro.data.batch import RecordBatch
    from repro.data.types import Schema
    from repro.engine.plan import PlanNode
    from repro.metastore.catalog import Catalog, TableInfo
    from repro.simtime import SimContext


@dataclass
class QueryCacheConfig:
    """Capacity knobs for the plan and result tiers."""

    # Plan tier: entry-counted LRU (a plan's footprint is a few nodes).
    plan_capacity: int = 256
    # Result tier: byte-bounded by materialized batch size. Statements opt
    # in per submit/execute with ``use_query_cache=True``.
    result_capacity_bytes: int = 64 * 1024 * 1024
    result_admission_fraction: float = 0.25


# -- snapshot digests ---------------------------------------------------------


def table_digest(table: "TableInfo", principal: "Principal") -> tuple:
    """One table's contribution to a cache key: identity, data version,
    schema shape, and the principal's effective policy view. The last two
    are memoised on the objects they come from (the frozen schema, and the
    policy set until its next change), so a warm key costs lookups."""
    return (
        table.table_id,
        table.version,
        table.schema.fingerprint,
        table.policies.resolve(principal).digest,
    )


def _plan_refs(plan: "PlanNode") -> tuple[list["TableInfo"], bool] | None:
    """``(scanned tables, references INFORMATION_SCHEMA)`` for a plan, or
    None when the plan contains a TVF (uncacheable)."""
    tables: list["TableInfo"] = []
    has_system = False
    stack = [plan]
    while stack:  # pre-order, left to right
        node = stack.pop()
        if isinstance(node, TvfNode):
            return None
        if isinstance(node, ScanNode):
            tables.append(node.table)
        elif isinstance(node, SystemTableNode):
            has_system = True
        stack.extend(reversed(node.children()))
    return tables, has_system


@dataclass(frozen=True)
class Resolution:
    """What a SQL text's remembered table refs resolve to *now*, for one
    principal: the tables looked up fresh in the catalog and their snapshot
    digests. Built once per job (:meth:`QueryCache.resolve`) and shared by
    both tiers, so a job pays one catalog lookup and one policy digest per
    referenced table however many tiers it asks."""

    base: tuple
    tables: "tuple[TableInfo, ...]"
    digests: tuple
    # False when the text also reads INFORMATION_SCHEMA: plan-cacheable,
    # never result-cacheable.
    result_cacheable: bool

    @property
    def plan_key(self) -> tuple:
        return self.base + (self.digests,)


@dataclass(frozen=True)
class ResultKey:
    """A result-tier address plus the freshly resolved tables whose digests
    it was built from — what the per-hit IAM recheck reads, so the recheck
    never depends on a side map still remembering the text."""

    key: tuple
    tables: "tuple[TableInfo, ...]"


class QueryCache:
    """The plan + result cache one platform's engines share.

    Lookups go text -> refs -> digests -> tier: a side map remembers which
    tables each SQL text referenced the last time it was planned, those
    tables are re-resolved *fresh* from the catalog (never from stored
    references — a dropped or recreated table must not pin its old
    metadata), and their current digests complete the key. Any table that
    no longer resolves is a miss. A text the side map knows is a SELECT by
    construction, which is what lets the serving layer skip parsing it
    until a tier misses (:meth:`knows`).

    Unlike the data cache, neither tier consults fault hazards or (for the
    plan tier) charges sim time: these caches cannot serve stale data by
    construction, and the plan tier must stay byte-invisible to seeded
    chaos runs since it is on by default.
    """

    def __init__(
        self,
        ctx: "SimContext",
        catalog: "Catalog",
        config: QueryCacheConfig | None = None,
        iam: "IamService | None" = None,
    ) -> None:
        self.ctx = ctx
        self.catalog = catalog
        self.config = config or QueryCacheConfig()
        self.iam = iam
        now_fn = lambda: ctx.clock.now_ms  # noqa: E731
        # Plan entries all count size 1: the tier bound is an entry count.
        on_evict = eviction_counter(ctx.metrics)
        self.plans = CacheTier(
            "plan", self.config.plan_capacity, 1.0, now_fn=now_fn, on_evict=on_evict
        )
        self.results = CacheTier(
            "result",
            self.config.result_capacity_bytes,
            self.config.result_admission_fraction,
            now_fn=now_fn,
            on_evict=on_evict,
        )
        # sql base key -> ((dataset, name) refs, result-cacheable?) from the
        # last planning; an LRU so adversarial unique-SQL streams cannot
        # grow it unbounded.
        self._refs: "OrderedDict[tuple, tuple[tuple, bool]]" = OrderedDict()
        self._refs_capacity = max(16, 4 * self.config.plan_capacity)
        self._meters = MetricHandles(ctx.metrics)

    # -- metrics ------------------------------------------------------------

    def _count(self, tier: CacheTier, hit: bool, nbytes: int = 0) -> None:
        meters = self._meters
        labels = (("tier", tier.name),)
        if hit:
            meters.counter("repro_cache_hits_total", HITS_HELP, labels).inc()
            if nbytes:
                meters.counter("repro_cache_bytes_total", HIT_BYTES_HELP, labels).inc(
                    nbytes
                )
        else:
            meters.counter("repro_cache_misses_total", MISSES_HELP, labels).inc()
        meters.gauge("repro_cache_resident_bytes", RESIDENT_HELP, labels).set(
            tier.resident_bytes
        )

    # -- keys ---------------------------------------------------------------

    @staticmethod
    def _base_key(sql_text: str, engine: Any) -> tuple:
        """SQL text + everything about the engine that shapes its plans
        (or could shape results): name, planner flags, execution flags."""
        return (
            sql_text,
            engine.name,
            engine.use_stats,
            engine.enable_aggregate_pushdown,
            engine.enable_dpp,
            engine.use_row_oriented_reader,
        )

    def _remember_refs(
        self, base: tuple, tables: list["TableInfo"], result_cacheable: bool
    ) -> None:
        self._refs[base] = (
            tuple((t.dataset, t.name) for t in tables), result_cacheable
        )
        self._refs.move_to_end(base)
        while len(self._refs) > self._refs_capacity:
            self._refs.popitem(last=False)

    def knows(self, sql_text: str, engine: Any) -> bool:
        """True when ``sql_text`` was planned here before as a SELECT over
        catalog tables only — the texts the result tier can be probed for
        without parsing. TVF statements are never remembered and
        INFORMATION_SCHEMA readers never count as known."""
        remembered = self._refs.get(self._base_key(sql_text, engine))
        return remembered is not None and remembered[1]

    def _resolve(self, base: tuple, principal: "Principal") -> Resolution | None:
        remembered = self._refs.get(base)
        if remembered is None:
            return None
        refs, result_cacheable = remembered
        tables = []
        for dataset, name in refs:
            try:
                tables.append(self.catalog.get_table(dataset, name))
            except ReproError:
                return None
        return Resolution(
            base,
            tuple(tables),
            tuple(table_digest(table, principal) for table in tables),
            result_cacheable,
        )

    def resolve(
        self, sql_text: str, engine: Any, principal: "Principal"
    ) -> Resolution | None:
        """The current catalog resolution and snapshot digests of the
        tables ``sql_text`` referenced at its last planning — None when the
        text is unknown or any table is gone."""
        return self._resolve(self._base_key(sql_text, engine), principal)

    # -- plan tier ----------------------------------------------------------

    def lookup_plan(
        self,
        sql_text: str,
        engine: Any,
        principal: "Principal",
        resolution: Resolution | None = None,
    ) -> PlanNode | None:
        """The cached plan for ``sql_text`` — the one object every hit
        shares; execution never writes to a plan — or None. Pass the job's
        :meth:`resolve` result to reuse its digests."""
        if resolution is None:
            resolution = self.resolve(sql_text, engine, principal)
        if resolution is None:
            self.plans.stats.misses += 1
            self._count(self.plans, hit=False)
            return None
        entry = self.plans.get(resolution.plan_key)
        if entry is None:
            self._count(self.plans, hit=False)
            return None
        self._count(self.plans, hit=True)
        return entry[0]

    def store_plan(
        self, sql_text: str, engine: Any, principal: "Principal", plan: PlanNode
    ) -> bool:
        """Admit an optimized plan. Returns True on admission."""
        refs = _plan_refs(plan)
        if refs is None:
            return False
        tables, has_system = refs
        base = self._base_key(sql_text, engine)
        self._remember_refs(base, tables, not has_system)
        resolution = self._resolve(base, principal)
        if resolution is None:
            return False
        return self.plans.put(resolution.plan_key, plan, 1)

    # -- result tier --------------------------------------------------------

    def text_result_key(
        self,
        resolution: Resolution,
        principal: "Principal",
        snapshot_ms: float | None,
    ) -> ResultKey | None:
        """The result-cache key built from the SQL text alone (its
        remembered refs, resolved by :meth:`resolve`), or None when the
        text is not result-cacheable."""
        if not resolution.result_cacheable:
            return None
        return ResultKey(
            resolution.plan_key + (str(principal), snapshot_ms), resolution.tables
        )

    def result_key(
        self,
        sql_text: str,
        engine: Any,
        principal: "Principal",
        snapshot_ms: float | None,
        plan: PlanNode,
    ) -> ResultKey | None:
        """The result-cache key for an about-to-run SELECT, from the tables
        its plan scans, or None when it is not result-cacheable (TVFs,
        INFORMATION_SCHEMA, or an unresolvable table)."""
        refs = _plan_refs(plan)
        if refs is None:
            return None
        tables, has_system = refs
        if has_system:
            return None
        base = self._base_key(sql_text, engine)
        self._remember_refs(base, tables, True)
        resolution = self._resolve(base, principal)
        if resolution is None:
            return None
        return self.text_result_key(resolution, principal, snapshot_ms)

    def _tables_readable(
        self, tables: "tuple[TableInfo, ...]", principal: "Principal"
    ) -> bool:
        """Re-check IAM table read access on a hit: a permission revoked
        after the entry was stored must fall through to real execution
        (which raises the ordinary access error)."""
        if self.iam is None:
            return True
        return all(
            self.iam.is_allowed(
                principal, Permission.TABLES_GET_DATA, table.resource_name
            ).allowed
            for table in tables
        )

    def lookup_result(
        self, key: ResultKey, principal: "Principal"
    ) -> "tuple[Schema, list[RecordBatch], str] | None":
        """``(schema, batches, plan_text)`` for a cached SELECT, or None.
        Hits charge one cheap lookup on the sim clock — no scan, no decode."""
        if not self._tables_readable(key.tables, principal):
            self.results.stats.misses += 1
            self._count(self.results, hit=False)
            return None
        entry = self.results.get(key.key)
        if entry is None:
            self._count(self.results, hit=False)
            return None
        self.ctx.charge("query_cache.hit", self.ctx.costs.cache_lookup_ms)
        self._count(self.results, hit=True, nbytes=entry[1])
        schema, batches, plan_text = entry[0]
        return schema, list(batches), plan_text

    def store_result(
        self,
        key: ResultKey,
        schema: "Schema",
        batches: "list[RecordBatch]",
        plan_text: str,
    ) -> bool:
        nbytes = sum(b.nbytes() for b in batches)
        return self.results.put(
            key.key, (schema, tuple(batches), plan_text), max(1, nbytes)
        )

    # -- reporting ----------------------------------------------------------

    def tiers(self) -> list[CacheTier]:
        return [self.plans, self.results]

    def stats_rows(self) -> list[tuple]:
        """Rows for ``INFORMATION_SCHEMA.CACHE_STATS`` (one per tier),
        schema-compatible with the data cache's rows."""
        rows = []
        for tier in self.tiers():
            s = tier.stats
            rows.append(
                (
                    tier.name,
                    len(tier),
                    tier.resident_bytes,
                    tier.capacity_bytes,
                    s.hits,
                    s.misses,
                    s.evictions,
                    s.admission_rejects,
                    s.hit_bytes,
                    round(s.hit_ratio, 6),
                )
            )
        return rows

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """{tier: counters} for the CLI and benchmarks."""
        out: dict[str, dict[str, Any]] = {}
        for tier in self.tiers():
            s = tier.stats
            out[tier.name] = {
                "entries": len(tier),
                "resident_bytes": tier.resident_bytes,
                "capacity_bytes": tier.capacity_bytes,
                "hits": s.hits,
                "misses": s.misses,
                "evictions": s.evictions,
                "admission_rejects": s.admission_rejects,
                "hit_bytes": s.hit_bytes,
                "hit_ratio": round(s.hit_ratio, 6),
            }
        return out
