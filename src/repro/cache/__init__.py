"""Multi-tier columnar data cache (§3.3/§3.4): footers, chunks, dictionaries.

The paper closes the gap between lake and managed storage by caching file
*data*, not just metadata, next to the slots. This module is that layer for
the reproduction: a slot-local cache with three tiers —

* **footer** — parsed :class:`~repro.formats.pqs.FileFooter` objects (plus
  object size), so a warm scan skips the per-file footer round trips.
* **chunk** — decoded column chunks (:class:`~repro.data.column.Column` or
  :class:`~repro.data.column.DictionaryColumn`, dictionary encoding
  preserved), so a warm scan skips both the object-store GET and the decode.
* **dictionary** — decoded dictionary value vectors, content-addressed, so
  identical dictionaries (the common case across row groups and compacted
  files of one table) are stored once and shared.

Coherence is by *keying*, not invalidation: every entry is keyed by
``(bucket, key, generation, ...)`` where ``generation`` is the object
store's per-PUT generation number (carried on
:class:`~repro.metastore.bigmeta.FileEntry`). DML rewrites and BLMT
compaction write new objects (new keys), in-place overwrites bump the
generation, and Iceberg pointer swaps change the referenced data files —
in every case the stale entries simply stop being addressed and age out
of the LRU. There is no explicit flush. Entries whose generation is
unknown (``0``) are never cached.

Each tier is a capacity-bounded LRU with admission-by-size: an item larger
than ``admission_fraction`` of the tier's capacity is not admitted (one
giant scan must not wipe out the working set).

Failure policy: every get/put consults the fault injector at the
``cache.get`` / ``cache.put`` hazard points; an injected cache error turns
the operation into a miss (get) or a skipped admission (put) and records a
degradation — the cache can make a query slower, never wrong.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import ReproError
from repro.faults import record_degradation
from repro.obs.metrics import MetricHandles
from repro.simtime import MIB

if TYPE_CHECKING:
    from repro.data.column import Column, DictionaryColumn
    from repro.formats.pqs import FileFooter
    from repro.simtime import SimContext


# Help text of the ``repro_cache_*`` metric families. The data cache and the
# query cache (:mod:`repro.cache.plan`) count into the same families, told
# apart by the ``tier`` label, and the registry keeps whichever help string
# registered first — so the text names no one cache.
HITS_HELP = "cache hits per tier"
MISSES_HELP = "cache misses per tier"
HIT_BYTES_HELP = "bytes served from cache per tier"
EVICTIONS_HELP = "cache evictions per tier and reason"
RESIDENT_HELP = "bytes currently resident per cache tier"


@dataclass
class CacheConfig:
    """Capacity knobs for the three tiers (bytes of *source* data)."""

    enabled: bool = True
    footer_capacity_bytes: int = 8 * 1024 * 1024
    chunk_capacity_bytes: int = 256 * 1024 * 1024
    dictionary_capacity_bytes: int = 32 * 1024 * 1024
    # Admission-by-size: reject items larger than this fraction of the
    # tier's capacity instead of evicting the whole working set for them.
    admission_fraction: float = 0.25
    # Age-based eviction, both off by default (None). ``ttl_ms`` bounds an
    # entry's total lifetime since admission; ``idle_ms`` bounds the time
    # since it was last touched. Expiry is lazy (checked on get, swept on
    # put) on the deterministic sim clock — no background threads.
    ttl_ms: float | None = None
    idle_ms: float | None = None


@dataclass
class TierStats:
    """Raw counters for one tier (also exported as metrics)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0  # capacity-pressure (LRU) evictions only
    hit_bytes: int = 0
    admission_rejects: int = 0
    # Age-based removals, split by which bound fired (TTL before idle when
    # both would apply). Not part of ``evictions``: the CACHE_STATS column
    # keeps meaning "pushed out by capacity", as it always has.
    expired_ttl: int = 0
    expired_idle: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CacheTier:
    """One capacity-bounded LRU map from tuple keys to (value, size).

    Optionally age-bounded: ``ttl_ms`` expires entries a fixed time after
    admission, ``idle_ms`` expires entries untouched for that long. Expiry
    is lazy — checked when an entry is read, swept when one is written —
    against ``now_fn`` (the sim clock), so behavior is deterministic and
    nothing happens "in the background". Every removal reports its reason
    (``lru`` / ``ttl`` / ``idle``) through ``on_evict``.
    """

    def __init__(
        self,
        name: str,
        capacity_bytes: int,
        admission_fraction: float,
        ttl_ms: float | None = None,
        idle_ms: float | None = None,
        now_fn: Any = None,
        on_evict: Any = None,
    ) -> None:
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.admission_limit = int(capacity_bytes * admission_fraction)
        self.ttl_ms = ttl_ms
        self.idle_ms = idle_ms
        # Entries are [value, size, inserted_ms, touched_ms] lists.
        self._entries: "OrderedDict[tuple, list]" = OrderedDict()
        self._now = now_fn or (lambda: 0.0)
        self._on_evict = on_evict
        self.resident_bytes = 0
        self.stats = TierStats()

    def __len__(self) -> int:
        return len(self._entries)

    def _expiry_reason(self, entry: list, now: float) -> str | None:
        if self.ttl_ms is not None and now - entry[2] > self.ttl_ms:
            return "ttl"
        if self.idle_ms is not None and now - entry[3] > self.idle_ms:
            return "idle"
        return None

    def _account(self, key: tuple, delta: int) -> None:
        """The one place resident bytes change: an entry under ``key`` was
        admitted (``delta > 0``) or left — replaced, expired or evicted."""
        self.resident_bytes += delta

    def _drop(self, key: tuple, entry: list, reason: str) -> None:
        self._account(key, -entry[1])
        if reason == "lru":
            self.stats.evictions += 1
        elif reason == "ttl":
            self.stats.expired_ttl += 1
        else:
            self.stats.expired_idle += 1
        if self._on_evict is not None:
            self._on_evict(self, reason)

    def sweep(self, now: float | None = None) -> None:
        """Remove every expired entry (no-op when age bounds are off)."""
        if self.ttl_ms is None and self.idle_ms is None:
            return
        now = self._now() if now is None else now
        for key, entry in list(self._entries.items()):
            reason = self._expiry_reason(entry, now)
            if reason is not None:
                del self._entries[key]
                self._drop(key, entry, reason)

    def get(self, key: tuple) -> tuple[Any, int] | None:
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        now = self._now()
        reason = self._expiry_reason(entry, now)
        if reason is not None:
            del self._entries[key]
            self._drop(key, entry, reason)
            self.stats.misses += 1
            return None
        entry[3] = now
        self._entries.move_to_end(key)
        self.stats.hits += 1
        self.stats.hit_bytes += entry[1]
        return entry[0], entry[1]

    def put(self, key: tuple, value: Any, size_bytes: int) -> bool:
        """Admit ``(key, value)``; returns False if rejected by size."""
        if size_bytes > self.admission_limit or size_bytes > self.capacity_bytes:
            self.stats.admission_rejects += 1
            return False
        now = self._now()
        self.sweep(now)
        old = self._entries.pop(key, None)
        if old is not None:
            self._account(key, -old[1])
        while self._entries and self.resident_bytes + size_bytes > self.capacity_bytes:
            evicted, entry = self._entries.popitem(last=False)
            self._drop(evicted, entry, "lru")
        self._entries[key] = [value, size_bytes, now, now]
        self._account(key, size_bytes)
        return True


class ChunkTier(CacheTier):
    """The chunk tier, which also knows how many bytes it holds of each
    object: its keys are ``(bucket, key, generation, row group, column)``,
    and :attr:`object_bytes` maps the first three to the resident total."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.object_bytes: dict[tuple, int] = {}

    def _account(self, key: tuple, delta: int) -> None:
        super()._account(key, delta)
        held = self.object_bytes.get(key[:3], 0) + delta
        if held:
            self.object_bytes[key[:3]] = held
        else:
            self.object_bytes.pop(key[:3], None)


@dataclass
class Tally:
    """Lookups of one tier not yet counted into the registry: hits, misses,
    bytes served, and the tier's resident bytes at the latest lookup — what
    a gauge set at every lookup would read."""

    tier: CacheTier
    hits: int = 0
    misses: int = 0
    hit_bytes: int = 0
    resident_bytes: int = 0

    def add(self, nbytes: int | None) -> None:
        """One lookup: a hit serving ``nbytes``, or a miss (None)."""
        if nbytes is None:
            self.misses += 1
        else:
            self.hits += 1
            self.hit_bytes += nbytes
        self.resident_bytes = self.tier.resident_bytes


def eviction_counter(metrics) -> Any:
    """Tier eviction callback: one metric, split by tier and by why the
    entry left (``lru`` pressure vs ``ttl``/``idle`` age bounds). Closed over
    the registry alone — a bound method of the owning cache would make every
    tier point back at its owner."""

    def on_evict(tier: CacheTier, reason: str) -> None:
        metrics.counter("repro_cache_evictions_total", EVICTIONS_HELP).inc(
            tier=tier.name, reason=reason
        )

    return on_evict


class DataCache:
    """The slot-local data cache one platform's engines share.

    Read paths call :meth:`lookup_footer` / :meth:`lookup_chunk` before
    touching the object store and :meth:`admit_footer` / :meth:`admit_chunk`
    after a cold fetch; :meth:`decode_chunk` is the dictionary-sharing
    decode used by both. Hits charge the (much cheaper)
    ``cache_lookup_ms`` + ``cache_hit_per_mib_ms`` sim-time costs instead
    of GET latency + decode cost.
    """

    def __init__(self, ctx: "SimContext", config: CacheConfig | None = None) -> None:
        self.ctx = ctx
        self.config = config or CacheConfig()
        fraction = self.config.admission_fraction
        tier_kwargs = dict(
            ttl_ms=self.config.ttl_ms,
            idle_ms=self.config.idle_ms,
            now_fn=lambda: ctx.clock.now_ms,
            on_evict=eviction_counter(ctx.metrics),
        )
        self.footers = CacheTier(
            "footer", self.config.footer_capacity_bytes, fraction, **tier_kwargs
        )
        self.chunks = ChunkTier(
            "chunk", self.config.chunk_capacity_bytes, fraction, **tier_kwargs
        )
        self.dictionaries = CacheTier(
            "dictionary", self.config.dictionary_capacity_bytes, fraction, **tier_kwargs
        )
        self._meters = MetricHandles(ctx.metrics)

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    def tiers(self) -> list[CacheTier]:
        return [self.footers, self.chunks, self.dictionaries]

    # -- fault gating -------------------------------------------------------

    def _guard(self, op: str, tier: CacheTier) -> bool:
        """Consult the ``cache.get``/``cache.put`` hazard point. An injected
        fault degrades the operation to a bypass (never an error)."""
        try:
            self.ctx.faults.check(op, tier=tier.name)
        except ReproError:
            record_degradation(self.ctx, "data_cache", f"{tier.name} {op} bypassed")
            self.ctx.metrics.counter(
                "repro_cache_bypass_total", "cache operations bypassed by injected faults"
            ).inc(tier=tier.name, op=op)
            return False
        return True

    # -- metrics ------------------------------------------------------------

    def _count(self, tier: CacheTier, nbytes: int | None, tally: Tally | None = None) -> None:
        """Count one lookup of ``tier`` — a hit serving ``nbytes``, or a miss
        (None) — into the registry now, or into ``tally`` for :meth:`count`."""
        if tally is not None:
            tally.add(nbytes)
            return
        tally = Tally(tier)
        tally.add(nbytes)
        self.count(tally)

    def count(self, tally: Tally) -> None:
        """Add a tally's lookups to the registry: the counters and gauge one
        count per lookup would have left."""
        if not (tally.hits or tally.misses):
            return
        meters = self._meters
        labels = (("tier", tally.tier.name),)
        if tally.hits:
            meters.counter("repro_cache_hits_total", HITS_HELP, labels).inc(tally.hits)
            meters.counter("repro_cache_bytes_total", HIT_BYTES_HELP, labels).inc(
                tally.hit_bytes
            )
        if tally.misses:
            meters.counter("repro_cache_misses_total", MISSES_HELP, labels).inc(
                tally.misses
            )
        meters.gauge("repro_cache_resident_bytes", RESIDENT_HELP, labels).set(
            tally.resident_bytes
        )

    # -- footer tier --------------------------------------------------------

    def lookup_footer(
        self, bucket: str, key: str, generation: int
    ) -> "tuple[FileFooter, int] | None":
        """Cached ``(footer, object_size)`` or None. Hits charge one cheap
        lookup instead of the two ranged GETs of a remote footer read."""
        if not self.enabled or generation <= 0:
            return None
        if not self._guard("cache.get", self.footers):
            return None
        entry = self.footers.get((bucket, key, generation))
        if entry is None:
            self._count(self.footers, None)
            return None
        self.ctx.charge("data_cache.hit", self.ctx.costs.cache_lookup_ms)
        self._count(self.footers, entry[1])
        return entry[0]

    def admit_footer(
        self, bucket: str, key: str, generation: int,
        footer: "FileFooter", size_bytes: int,
    ) -> None:
        if not self.enabled or generation <= 0:
            return
        if not self._guard("cache.put", self.footers):
            return
        # Footers are tiny relative to data; account them at a nominal
        # serialized size so the tier bound still means something.
        footer_bytes = 256 + 64 * sum(len(rg.columns) for rg in footer.row_groups)
        self.footers.put((bucket, key, generation), (footer, size_bytes), footer_bytes)

    # -- chunk tier ---------------------------------------------------------

    def lookup_chunk(
        self, bucket: str, key: str, generation: int, rg_index: int, column: str,
        tally: Tally | None = None,
    ) -> "tuple[Column | DictionaryColumn, int] | None":
        """Cached decoded chunk as ``(column, source_bytes)`` or None.
        Hits charge the cheap memory-bandwidth cost, not GET + decode.

        The lookup is counted into the registry now, or into ``tally`` (of
        :attr:`chunks`) for the caller to :meth:`count` once — a scan looks
        up every chunk of a file and counts the file."""
        if not self.enabled or generation <= 0:
            return None
        if not self._guard("cache.get", self.chunks):
            return None
        entry = self.chunks.get((bucket, key, generation, rg_index, column))
        if entry is not None:
            self.ctx.charge(
                "data_cache.hit",
                self.ctx.costs.cache_lookup_ms
                + (entry[1] / MIB) * self.ctx.costs.cache_hit_per_mib_ms,
            )
        self._count(self.chunks, None if entry is None else entry[1], tally)
        return entry

    def admit_chunk(
        self, bucket: str, key: str, generation: int, rg_index: int, column: str,
        value: "Column | DictionaryColumn", size_bytes: int,
    ) -> None:
        if not self.enabled or generation <= 0:
            return
        if not self._guard("cache.put", self.chunks):
            return
        self.chunks.put((bucket, key, generation, rg_index, column), value, size_bytes)

    def warm_chunk_bytes(self, bucket: str, key: str, generation: int) -> int:
        """Source bytes of one object currently resident in the chunk tier.

        The scheduler's cost estimator calls this at planning time to
        discount warm files; it must not perturb what it measures, so the
        probe is non-mutating (no LRU touch, no hit/miss accounting) and
        consults no fault hazard — a mis-estimate only skews the schedule,
        never the data.
        """
        if not self.enabled or generation <= 0:
            return 0
        return self.chunks.object_bytes.get((bucket, key, generation), 0)

    # -- dictionary tier ----------------------------------------------------

    def decode_chunk(
        self, dtype, encoding: str, payload: bytes
    ) -> "Column | DictionaryColumn":
        """Decode one encoded chunk, sharing decoded dictionary vectors
        through the content-addressed dictionary tier.

        Dictionary payloads carry their value vector inline; across row
        groups (and across the files compaction rewrites) those vectors are
        usually identical, so the decoded :class:`Column` is keyed by
        content digest and reused — one copy per distinct dictionary.
        """
        from repro.data.column import DictionaryColumn
        from repro.formats import pqs

        decoded = pqs._decode_chunk(dtype, encoding, payload)
        if not isinstance(decoded, DictionaryColumn) or not self.enabled:
            return decoded
        dict_len = int.from_bytes(payload[:4], "little")
        dict_bytes = payload[4 : 4 + dict_len]
        digest = (dtype.name, dict_len, zlib.crc32(dict_bytes))
        if self._guard("cache.get", self.dictionaries):
            entry = self.dictionaries.get(digest)
            if entry is not None:
                self._count(self.dictionaries, entry[1])
                return DictionaryColumn(dtype, decoded.codes, entry[0])
            self._count(self.dictionaries, None)
        if self._guard("cache.put", self.dictionaries):
            self.dictionaries.put(digest, decoded.dictionary, dict_len)
        return decoded

    # -- reporting ----------------------------------------------------------

    def stats_rows(self) -> list[tuple]:
        """Rows for ``INFORMATION_SCHEMA.CACHE_STATS`` (one per tier)."""
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
                "expired_ttl": s.expired_ttl,
                "expired_idle": s.expired_idle,
                "admission_rejects": s.admission_rejects,
                "hit_bytes": s.hit_bytes,
                "hit_ratio": round(s.hit_ratio, 6),
            }
        return out
