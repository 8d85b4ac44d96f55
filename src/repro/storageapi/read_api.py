"""The Storage Read API (§2.2.1): sessions, parallel streams, governance.

``CreateReadSession`` resolves the table's file set (through the Big
Metadata cache when enabled, otherwise by listing the bucket and reading
file footers — the slow path §3.3 describes), applies constraint-based
partition/file pruning, compiles the caller's effective security policies,
and partitions work into streams. ``ReadRows`` then streams Arrow-like
batches with projections, user predicates, security filters, and masking
applied inside the trust boundary by Superluminal.

Object tables (§4.1) are served from the metadata cache *directly*: each
cached object becomes a row, so listing a billion objects is a metadata
lookup, not an object-store LIST.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field, fields, replace
from typing import Any, Iterator

from repro.cache import DataCache, Tally
from repro.data.batch import RecordBatch, batch_from_pydict
from repro.data.column import Column
from repro.data.types import DataType, Schema
from repro.errors import (
    AccessDeniedError,
    CatalogError,
    SessionExpiredError,
    StorageApiError,
    TransientError,
)
from repro.faults import record_degradation
from repro.formats import pqs
from repro.formats.readers import RowReader, surviving_row_groups
from repro.metastore.bigmeta import BigMetadataService, ColumnStats, FileEntry, prune_entries
from repro.metastore.catalog import MetadataCacheMode, TableInfo, TableKind
from repro.metastore.constraints import ConstraintSet, StatsTable, can_match
from repro.objectstore.registry import StoreRegistry
from repro.security.audit import AuditLog
from repro.security.connections import ConnectionManager
from repro.security.iam import IamService, Permission, Principal
from repro.security.policies import EffectiveAccess
from repro.simtime import MIB, SimContext
from repro.sql import ast_nodes as ast
from repro.sql.analysis import extract_constraints
from repro.sql.expressions import FunctionRegistry
from repro.sql.parser import parse_expression
from repro.sql.printer import to_sql
from repro.storageapi.fileutil import entry_from_footer, partition_values, read_remote_footer
from repro.storageapi.managed import ManagedStorage
from repro.storageapi.superluminal import Superluminal

_session_ids = itertools.count(1)

# Columns every Object table exposes (§4.1): object-store attributes, plus
# ``data`` — the object's content, fetched lazily and only for rows that
# survive the governance filters ("access to a row implies access to the
# content of the corresponding object").
OBJECT_TABLE_SCHEMA = Schema.of(
    ("uri", DataType.STRING),
    ("bucket", DataType.STRING),
    ("key", DataType.STRING),
    ("size", DataType.INT64),
    ("content_type", DataType.STRING),
    ("create_time", DataType.TIMESTAMP),
    ("update_time", DataType.TIMESTAMP),
    ("generation", DataType.INT64),
    ("data", DataType.BYTES),
)

_SESSION_TTL_MS = 6 * 3600 * 1000.0

# Server-side session registry bound (oldest sessions fall off first) and
# the default resolution-cache capacity (entries, LRU).
_SESSION_REGISTRY_LIMIT = 1024
_RESOLUTION_CACHE_ENTRIES = 64


@dataclass
class SessionStats:
    """Counters accumulated across a session's streams."""

    files_total: int = 0
    files_after_pruning: int = 0
    bytes_scanned: int = 0
    rows_scanned: int = 0
    rows_returned: int = 0
    row_groups_pruned: int = 0
    # Source bytes served from the slot-local data cache (chunk hits).
    cache_hit_bytes: int = 0
    cpu_ms: float = 0.0  # server-side decode/filter cost (CPU efficiency)
    # ReadRows payload accounting (§3.4 future work): logical Arrow-like
    # bytes vs the dictionary/RLE wire bytes actually shipped.
    wire_bytes_plain: int = 0
    wire_bytes_encoded: int = 0
    served_from_session_cache: bool = False

    @property
    def files_pruned(self) -> int:
        return self.files_total - self.files_after_pruning

    def snapshot(self) -> "SessionStats":
        """Copy of the current counters, for retry-safe rollback."""
        return replace(self)

    def restore(self, snap: "SessionStats") -> None:
        """Rewind to a :meth:`snapshot`. Stream reads accumulate into these
        counters mid-stream, so a task-level retry that re-runs the whole
        stream must first discard the failed attempt's partial progress or
        every retried byte/row would be double-counted (the global
        ``readapi_*_total`` metrics are deliberately *not* rewound — they
        measure IO actually performed, retried work included)."""
        for f in fields(self):
            setattr(self, f.name, getattr(snap, f.name))


class _Backlog:
    """The units not yet started on any stream of one session. Rebalancing
    and splitting only move not-yet-started units between the session's
    streams, so only a cursor move changes the count — and the session is
    drained exactly when it reaches zero."""

    __slots__ = ("units",)

    def __init__(self) -> None:
        self.units = 0


@dataclass
class ReadStream:
    """One unit of parallel consumption: a subset of the session's files."""

    stream_id: int
    files: list[FileEntry] = field(default_factory=list)
    # For managed tables, streams carry batches instead of files.
    batches: list[RecordBatch] = field(default_factory=list)
    # Consumption cursor: index of the next not-yet-started unit (file, or
    # batch for managed tables). Units below the cursor are started or
    # consumed and must never be moved by the rebalancer. It moves through
    # :meth:`advance` and :meth:`restore_progress`, which keep the session's
    # backlog (shared by all its streams) in step.
    offset: int = 0
    rows_returned: int = 0
    backlog: _Backlog = field(default_factory=_Backlog, repr=False, compare=False)

    def advance(self, units: int) -> None:
        """Mark the next ``units`` units started."""
        self.offset += units
        self.backlog.units -= units

    @property
    def unit_count(self) -> int:
        return len(self.batches) if self.batches else len(self.files)

    @property
    def exhausted(self) -> bool:
        return self.offset >= self.unit_count

    @property
    def pending_files(self) -> list[FileEntry]:
        """Files not yet started — the only ones a rebalancer may move."""
        return self.files[self.offset:]

    @property
    def pending_bytes(self) -> int:
        return sum(e.size_bytes for e in self.pending_files)

    def progress(self) -> dict[str, int]:
        """Consumer-reportable progress for this stream."""
        return {
            "stream_id": self.stream_id,
            "consumed_units": self.offset,
            "total_units": self.unit_count,
            "rows_returned": self.rows_returned,
        }

    def progress_snapshot(self) -> tuple[int, int]:
        """Cursor state for retry-safe rollback (pairs with
        :meth:`SessionStats.snapshot` in task-level retries)."""
        return (self.offset, self.rows_returned)

    def restore_progress(self, snap: tuple[int, int]) -> None:
        offset, self.rows_returned = snap
        self.advance(offset - self.offset)


@dataclass
class ReadSession:
    """A consistent point-in-time read of one table.

    The session owns its compiled scan. ``restriction`` is the caller's row
    restriction as a tree — the one parse of the text a wire caller sent, or
    the tree an in-process caller handed over — ``constraints`` the pruning
    bounds extracted from it, and ``pipeline`` the Superluminal enforcement
    compiled from it against ``access``, the principal's effective access at
    the time. :attr:`row_restriction` is the same restriction in the wire
    format: the text :meth:`serialize` ships and the resolution cache keys
    on. Every stream reads through a :meth:`~Superluminal.fresh` view of the
    one pipeline; :meth:`ReadApi.read_rows` re-resolves the access on every
    call and recompiles when it no longer equals ``access``.
    """

    session_id: str
    table: TableInfo
    principal: Principal
    output_schema: Schema
    columns: list[str]
    restriction: ast.Expr | None
    constraints: ConstraintSet
    access: EffectiveAccess
    pipeline: Superluminal
    streams: list[ReadStream]
    engine_location: str | None
    created_ms: float
    expires_ms: float
    stats: SessionStats = field(default_factory=SessionStats)
    table_stats: dict[str, Any] | None = None
    use_row_oriented_reader: bool = False
    # (func, column-or-None, output-name) partial aggregates computed
    # server-side by Superluminal (§3.4 future work: aggregate pushdown).
    aggregates: list[tuple[str, str | None, str]] = field(default_factory=list)
    # None: no wire accounting; "arrow": plain payloads; "encoded":
    # dictionary/RLE-compressed payloads (§3.4 future work).
    wire_format: str | None = None
    # Ranged reads: fetch only the surviving row-group x needed-column
    # chunks (with range coalescing) instead of whole objects.
    ranged_reads: bool = False
    # The restriction as text: what the caller sent, else rendered on demand.
    restriction_text: str | None = None

    @property
    def row_restriction(self) -> str | None:
        """The restriction in the wire format (SQL text)."""
        if self.restriction_text is None and self.restriction is not None:
            self.restriction_text = to_sql(self.restriction)
        return self.restriction_text

    def serialize(self) -> bytes:
        """Wire handle for "over the wire" handoff: a stable byte blob with
        no live object references. Another consumer re-joins the session
        with :meth:`ReadApi.attach`, which re-resolves the stream ids
        against the deployment's session registry."""
        from repro.storageapi.streams import serialize_session

        return serialize_session(self)

    def __post_init__(self) -> None:
        self.backlog = backlog = _Backlog()
        for stream in self.streams:
            stream.backlog = backlog
            backlog.units += stream.unit_count - stream.offset

    @property
    def drained(self) -> bool:
        """Every stream exhausted, in O(1)."""
        return self.backlog.units == 0

    def progress(self) -> list[dict[str, int]]:
        """Per-stream consumption progress (one dict per stream)."""
        return [stream.progress() for stream in self.streams]


class ReadApi:
    """The Read API service endpoint for one deployment."""

    def __init__(
        self,
        catalog,
        bigmeta: BigMetadataService,
        connections: ConnectionManager,
        iam: IamService,
        audit: AuditLog,
        stores: StoreRegistry,
        managed: ManagedStorage,
        ctx: SimContext,
        data_cache: DataCache,
        functions: FunctionRegistry | None = None,
    ) -> None:
        self.catalog = catalog
        self.bigmeta = bigmeta
        self.connections = connections
        self.iam = iam
        self.audit = audit
        self.stores = stores
        self.managed = managed
        self.ctx = ctx
        self.functions = functions
        # Slot-local multi-tier data cache, the layer under every columnar
        # scan; disabled, it is inert and every scan is cold.
        self.data_cache = data_cache
        # table_id -> simulated time of last metadata-cache refresh.
        self._cache_refreshed_ms: dict[str, float] = {}
        # Read-session reuse (§3.4 future work): cache of resolved file
        # sets keyed by (table, version, restriction, snapshot) so a
        # re-created session skips the expensive enumerate/prune step.
        # Bounded LRU: steady DML bumps table.version, so distinct keys
        # grow without bound while only recent versions can ever hit.
        self._resolution_cache: OrderedDict[tuple, tuple[list[FileEntry], int]] = OrderedDict()
        self.resolution_cache_entries = _RESOLUTION_CACHE_ENTRIES
        self.session_cache_hits = 0
        # Live sessions by id, for serialized-handle re-attach. Expired
        # sessions are pruned on registration/attach; the oldest fall off
        # past the registry bound.
        self._sessions: OrderedDict[str, ReadSession] = OrderedDict()

    # ------------------------------------------------------------------
    # CreateReadSession
    # ------------------------------------------------------------------

    def create_read_session(
        self, principal: Principal, table: TableInfo, **kwargs
    ) -> ReadSession:
        """Open a consistent read session over ``table`` (traced wrapper;
        see :meth:`_create_read_session` for the parameters)."""
        with self.ctx.tracer.span(
            "read_api.create_session", layer="storageapi", table=table.table_id
        ) as span:
            session = self._create_read_session(principal, table, **kwargs)
            span.set_tag("files_total", session.stats.files_total)
            span.set_tag("files_pruned", session.stats.files_pruned)
            if session.stats.served_from_session_cache:
                span.set_tag("session_cache_hit", True)
            return session

    def _create_read_session(
        self,
        principal: Principal,
        table: TableInfo,
        columns: list[str] | None = None,
        row_restriction: str | ast.Expr | None = None,
        snapshot_ms: float | None = None,
        max_streams: int = 8,
        with_table_stats: bool = False,
        engine_location: str | None = None,
        use_row_oriented_reader: bool = False,
        aggregates: list[tuple[str, str | None, str]] | None = None,
        wire_format: str | None = None,
        reuse: bool = False,
        ranged_reads: bool = False,
    ) -> ReadSession:
        """Open a consistent read session over ``table``.

        ``row_restriction`` is SQL text — the wire format, parsed once, here
        — or the expression tree an in-process engine already holds. Either
        way the tree is bound against the table's effective schema with this
        deployment's function registry and conjoined with the principal's
        row policies before any IO, so both forms pass the same checks.

        ``aggregates`` pushes partial MIN/MAX/SUM/COUNT computation into the
        server; ``wire_format`` selects ReadRows payload accounting;
        ``reuse=True`` serves the file resolution from the session cache
        when the table has not changed (§3.4 future work, all three).

        Raises :class:`AccessDeniedError` if the principal lacks table
        access or requests a column denied by a column ACL.
        """
        decision = self.iam.is_allowed(
            principal, Permission.TABLES_GET_DATA, table.resource_name
        )
        self.audit.record(
            principal, "read_session.create", table.resource_name,
            decision.allowed, decision.reason,
        )
        if not decision.allowed:
            raise AccessDeniedError(
                f"{principal} cannot read {table.table_id}: {decision.reason}"
            )

        table_schema = self._effective_schema(table)
        access = table.policies.resolve(principal)
        # Text becomes a tree here and nowhere else; everything below, and
        # every stream, works from the tree.
        if isinstance(row_restriction, str):
            restriction_text = row_restriction
            restriction = parse_expression(row_restriction) if row_restriction else None
        else:
            restriction_text, restriction = None, row_restriction
        projected = columns if columns is not None else [
            f.name for f in table_schema if f.name not in access.denied_columns
        ]
        # Compile enforcement now so denied columns fail before any IO.
        pipeline = self._compile(table, access, projected, restriction)
        self.ctx.metrics.counter(
            "readapi_sessions_total", "read sessions created by table kind"
        ).inc(kind=table.kind.name.lower())

        constraints = ConstraintSet()
        if restriction is not None:
            constraints = extract_constraints(restriction, table_schema)

        stats = SessionStats()
        streams: list[ReadStream]
        cache_key = None
        if reuse and table.kind not in (TableKind.MANAGED,):
            if restriction_text is None and restriction is not None:
                restriction_text = to_sql(restriction)
            cache_key = (
                table.table_id, table.version, restriction_text, snapshot_ms, max_streams
            )
        if cache_key is not None and cache_key in self._resolution_cache:
            self._resolution_cache.move_to_end(cache_key)
            entries, total = self._resolution_cache[cache_key]
            # Accumulate (+=): a SessionStats may see several resolutions
            # (multi-prefix or re-resolved sessions); assignment would
            # overwrite earlier counts and let files_pruned go negative.
            stats.files_total += total
            stats.files_after_pruning += len(entries)
            stats.served_from_session_cache = True
            self.session_cache_hits += 1
            self.ctx.metrics.counter(
                "readapi_session_cache_hits_total", "read sessions served from the resolution cache"
            ).inc()
            streams = self._balance_streams(entries, max_streams)
        elif table.kind is TableKind.MANAGED:
            streams = self._managed_streams(table, max_streams)
        elif table.kind is TableKind.OBJECT:
            streams = self._object_table_streams(table, constraints, snapshot_ms, max_streams, stats)
        else:
            streams = self._file_streams(table, constraints, snapshot_ms, max_streams, stats)
        if cache_key is not None and not stats.served_from_session_cache:
            resolved = [f for s in streams for f in s.files]
            self._resolution_cache[cache_key] = (resolved, stats.files_total)
            evicted = 0
            while len(self._resolution_cache) > max(1, self.resolution_cache_entries):
                self._resolution_cache.popitem(last=False)
                evicted += 1
            if evicted:
                self.ctx.metrics.counter(
                    "repro_session_cache_evictions_total",
                    "resolution-cache entries evicted (LRU, oldest first)",
                ).inc(evicted)

        table_stats = None
        if with_table_stats and self.bigmeta.has_table(table.table_id):
            table_stats = self.bigmeta.table_stats(table.table_id)

        now = self.ctx.clock.now_ms
        session = ReadSession(
            session_id=f"sess-{next(_session_ids):08d}",
            table=table,
            principal=principal,
            output_schema=table_schema.select(projected),
            columns=projected,
            restriction=restriction,
            constraints=constraints,
            access=access,
            pipeline=pipeline,
            streams=streams,
            engine_location=engine_location,
            created_ms=now,
            expires_ms=now + _SESSION_TTL_MS,
            stats=stats,
            table_stats=table_stats,
            use_row_oriented_reader=use_row_oriented_reader,
            aggregates=list(aggregates or []),
            wire_format=wire_format,
            ranged_reads=ranged_reads,
            restriction_text=restriction_text,
        )
        self._register_session(session)
        return session

    def _compile(
        self,
        table: TableInfo,
        access: EffectiveAccess,
        columns: list[str],
        restriction: ast.Expr | None,
    ) -> Superluminal:
        """Compile a session's enforcement pipeline against ``access``:
        once at create, and again only when a later ``read_rows`` finds the
        principal's access changed. Raises :class:`AccessDeniedError` for a
        denied column."""
        if table.kind is TableKind.OBJECT and any(c.lower() == "data" for c in columns):
            # Object contents are fetched after row filtering, by bucket and
            # key: widen the projection so both survive enforcement; the
            # read narrows back to the requested columns.
            lowered = {c.lower() for c in columns}
            columns = columns + [c for c in ("bucket", "key") if c not in lowered]
        return Superluminal(
            self._effective_schema(table), access, columns=columns,
            row_restriction=restriction, functions=self.functions,
            tracer=self.ctx.tracer,
        )

    # ------------------------------------------------------------------
    # Session registry + serialized-handle attach (§3.4 handoff)
    # ------------------------------------------------------------------

    def _register_session(self, session: ReadSession) -> None:
        # One TTL on a monotonic clock: insertion order is expiry order, so
        # the expired sessions are a prefix.
        now = self.ctx.clock.now_ms
        while self._sessions and now > next(iter(self._sessions.values())).expires_ms:
            self._sessions.popitem(last=False)
        self._sessions[session.session_id] = session
        while len(self._sessions) > _SESSION_REGISTRY_LIMIT:
            self._sessions.popitem(last=False)

    def attach(self, blob: bytes | str) -> ReadSession:
        """Re-join a live session from its serialized handle.

        The blob (see :meth:`ReadSession.serialize`) carries ids only — no
        live object references survive the wire — so streams are
        re-resolved by id against this deployment's session registry.
        Expiry is enforced here, at attach time: a consumer holding a
        stale handle fails fast instead of deep inside its first read.

        Raises :class:`SessionExpiredError` for an expired handle and
        :class:`StorageApiError` for garbage blobs, sessions unknown to
        this deployment, or handles whose streams no longer resolve.
        """
        from repro.storageapi.streams import parse_handle

        handle = parse_handle(blob)
        now = self.ctx.clock.now_ms
        if now > handle.expires_ms:
            raise SessionExpiredError(
                f"session {handle.session_id} expired before attach"
            )
        session = self._sessions.get(handle.session_id)
        if session is None:
            raise StorageApiError(
                f"unknown session {handle.session_id}: not in this deployment's registry"
            )
        if now > session.expires_ms:
            raise SessionExpiredError(f"session {session.session_id} expired")
        live = {stream.stream_id for stream in session.streams}
        missing = [sid for sid in handle.stream_ids if sid not in live]
        if missing:
            raise StorageApiError(
                f"session {session.session_id} has no stream(s) {missing}"
            )
        self.ctx.metrics.counter(
            "repro_readsession_attaches_total",
            "serialized read-session handles re-attached",
        ).inc()
        self.audit.record(
            session.principal, "read_session.attach",
            session.table.resource_name, True, "registry",
        )
        return session

    def _effective_schema(self, table: TableInfo) -> Schema:
        if table.kind is TableKind.OBJECT:
            return OBJECT_TABLE_SCHEMA
        return table.schema

    # -- stream construction ----------------------------------------------

    def _managed_streams(self, table: TableInfo, max_streams: int) -> list[ReadStream]:
        batches = self.managed.read(table.table_id)
        streams = [ReadStream(stream_id=i) for i in range(max(1, min(max_streams, len(batches) or 1)))]
        for i, batch in enumerate(batches):
            streams[i % len(streams)].batches.append(batch)
        return streams

    def _file_streams(
        self,
        table: TableInfo,
        constraints: ConstraintSet,
        snapshot_ms: float | None,
        max_streams: int,
        stats: SessionStats,
    ) -> list[ReadStream]:
        entries, total = self._resolve_files(table, constraints, snapshot_ms)
        stats.files_total += total
        stats.files_after_pruning += len(entries)
        return self._balance_streams(entries, max_streams)

    @staticmethod
    def _balance_streams(entries: list[FileEntry], max_streams: int) -> list[ReadStream]:
        """Spread files over streams by size (largest-first greedy)."""
        count = max(1, min(max_streams, len(entries) or 1))
        streams = [ReadStream(stream_id=i) for i in range(count)]
        loads = [0] * count
        for entry in sorted(entries, key=lambda e: -e.size_bytes):
            target = loads.index(min(loads))
            streams[target].files.append(entry)
            loads[target] += entry.size_bytes
        return streams

    def estimate_task_costs(self, session: ReadSession) -> list[float] | None:
        """Per-task (per-file) scan cost estimates for the slot scheduler.

        One task per file after pruning, in stream order: GET latency +
        per-MiB transfer + per-MiB decode, with resident cache bytes
        (probed non-mutatingly via
        :meth:`~repro.cache.DataCache.warm_chunk_bytes`) discounted to the
        cheap hit cost. Purely advisory — the scheduler rescales the
        estimates to the *measured* stage scan time, so only their relative
        shape matters. Returns None for managed/object tables, whose tasks
        are not file-shaped (the scheduler falls back to a uniform split).
        """
        if session.table.kind in (TableKind.MANAGED, TableKind.OBJECT):
            return None
        costs = self.ctx.costs
        out: list[float] = []
        for stream in session.streams:
            for entry in stream.files:
                size = max(0, entry.size_bytes)
                cold = (
                    costs.get_first_byte_ms
                    + (size / MIB) * (costs.get_per_mib_ms + costs.scan_per_mib_ms)
                )
                bucket, _, key = entry.file_path.partition("/")
                warm_bytes = min(
                    size, self.data_cache.warm_chunk_bytes(bucket, key, entry.generation)
                )
                warm_fraction = warm_bytes / size if size else 0.0
                warm = (
                    costs.cache_lookup_ms
                    + (warm_bytes / MIB) * costs.cache_hit_per_mib_ms
                )
                out.append(cold * (1.0 - warm_fraction) + warm * warm_fraction)
        return out

    def _object_table_streams(
        self,
        table: TableInfo,
        constraints: ConstraintSet,
        snapshot_ms: float | None,
        max_streams: int,
        stats: SessionStats,
    ) -> list[ReadStream]:
        """Object tables read the metadata cache itself as data (§4.1)."""
        try:
            self._ensure_cache_fresh(table)
            entries = self.bigmeta.prune(table.table_id, constraints, as_of_ms=snapshot_ms)
            stats.files_total += self._live_file_count(table.table_id, snapshot_ms)
        except TransientError:
            # Degraded mode: serve object rows straight from a live LIST,
            # bypassing the unavailable metadata cache.
            record_degradation(self.ctx, "object_table", table.table_id)
            store = self.stores.store_for(table.storage.location)
            self._require_delegated_access(table, store, listing=True)
            listed = [
                _object_entry(table.storage.bucket, meta)
                for meta in store.list_objects(
                    table.storage.bucket, prefix=_dir_prefix(table.storage.prefix)
                )
            ]
            entries = prune_entries(listed, constraints)
            stats.files_total += len(listed)
        stats.files_after_pruning += len(entries)
        count = max(1, min(max_streams, (len(entries) + 4095) // 4096 or 1))
        streams = [ReadStream(stream_id=i) for i in range(count)]
        for i, entry in enumerate(entries):
            streams[i % count].files.append(entry)
        return streams

    # -- file resolution ------------------------------------------------------

    def _resolve_files(
        self,
        table: TableInfo,
        constraints: ConstraintSet,
        snapshot_ms: float | None,
    ) -> tuple[list[FileEntry], int]:
        """(pruned entries, total live files) for a file-backed table."""
        if table.kind is TableKind.BLMT:
            # Big Metadata is the source of truth for managed BigLake tables:
            # there is no listing fallback (the bucket may hold uncommitted
            # files), so transient lookup faults are retried instead.
            pruned = self.ctx.with_retry(
                "bigmeta.prune",
                lambda: self.bigmeta.prune(table.table_id, constraints, as_of_ms=snapshot_ms),
            )
            total = self._live_file_count(table.table_id, snapshot_ms)
            return pruned, total
        if table.kind in (TableKind.BIGLAKE, TableKind.EXTERNAL):
            cache_on = (
                table.kind is TableKind.BIGLAKE
                and table.cache_config.mode is not MetadataCacheMode.DISABLED
            )
            if cache_on:
                try:
                    self._ensure_cache_fresh(table)
                    pruned = self.bigmeta.prune(
                        table.table_id, constraints, as_of_ms=snapshot_ms
                    )
                    total = self._live_file_count(table.table_id, snapshot_ms)
                    return pruned, total
                except TransientError:
                    # Graceful degradation (§3.3): when the metadata cache
                    # is unavailable, fall back to the live LIST + footer
                    # path — slower, but within the staleness bound since
                    # the bucket itself is the source of truth.
                    record_degradation(self.ctx, "metadata_cache", table.table_id)
            return self._resolve_by_listing(table, constraints)
        raise CatalogError(f"cannot stream table kind {table.kind}")

    def _live_file_count(self, table_id: str, snapshot_ms: float | None) -> int:
        """File count without a second metered metadata round trip (the
        prune call already paid it; the count rides in the same response)."""
        return len(self.bigmeta.table(table_id).live_entries(snapshot_ms))

    def _resolve_by_listing(
        self, table: TableInfo, constraints: ConstraintSet
    ) -> tuple[list[FileEntry], int]:
        """The uncached path: LIST the bucket, read every footer (§3.3)."""
        store = self.stores.store_for(table.storage.location)
        self._require_delegated_access(table, store, listing=True)
        entries: list[FileEntry] = []
        total = 0
        caller = None  # the read API front end runs next to the store
        for meta in store.list_objects(table.storage.bucket, prefix=_dir_prefix(table.storage.prefix)):
            if not meta.key.endswith(".pqs"):
                continue
            total += 1
            partition = partition_values(table, meta.key)
            # Partition pruning from the key path alone avoids the footer
            # read; anything else needs the footer statistics.
            if not can_match(constraints, StatsTable.build([(0, partition.items(), ())]))[0]:
                continue
            footer, size = self.ctx.with_retry(
                "objectstore.get_range",
                lambda key=meta.key: read_remote_footer(
                    store, table.storage.bucket, key, caller_location=caller
                ),
            )
            entries.append(entry_from_footer(
                f"{table.storage.bucket}/{meta.key}", size, footer, partition,
                generation=meta.generation,
            ))
        return prune_entries(entries, constraints), total

    def _require_delegated_access(
        self, table: TableInfo, store, listing: bool = False
    ) -> None:
        """Verify the *connection's service account* (never the user) holds
        storage access — the delegated access model of §3.1."""
        if table.connection_name is None:
            return
        conn = self.connections.get_connection(table.connection_name)
        permission = (
            Permission.STORAGE_OBJECTS_LIST if listing else Permission.STORAGE_OBJECTS_GET
        )
        self.iam.require(conn.service_account, permission, f"buckets/{table.storage.bucket}")

    # ------------------------------------------------------------------
    # Metadata cache maintenance (§3.3)
    # ------------------------------------------------------------------

    def _ensure_cache_fresh(self, table: TableInfo) -> None:
        if table.kind is TableKind.BLMT:
            return  # always authoritative
        hits = self.ctx.metrics.counter(
            "bigmeta_cache_hits_total", "metadata-cache reads served without a refresh"
        )
        misses = self.ctx.metrics.counter(
            "bigmeta_cache_misses_total", "metadata-cache reads that triggered a refresh"
        )
        last = self._cache_refreshed_ms.get(table.table_id)
        stale = last is None or (
            self.ctx.clock.now_ms - last > table.cache_config.max_staleness_ms
        )
        if stale and table.cache_config.mode is MetadataCacheMode.AUTOMATIC:
            misses.inc()
            self.refresh_metadata_cache(table)
        elif last is None:
            # Manual mode with no refresh ever: populate once so queries work.
            misses.inc()
            self.refresh_metadata_cache(table)
        else:
            hits.inc()
            current = self.ctx.tracer.current
            if current is not None:
                current.set_tag("cache_hit", True)

    def refresh_metadata_cache(self, table: TableInfo) -> dict[str, int]:
        """Re-scan the bucket and reconcile the Big Metadata cache.

        Runs under the connection's credentials (a background maintenance
        operation the user's credentials could never perform, §3.1).
        Returns counters: {"added": n, "removed": m, "unchanged": k}.
        """
        with self.ctx.tracer.span(
            "read_api.refresh_metadata_cache", layer="storageapi", table=table.table_id
        ):
            return self._refresh_metadata_cache(table)

    def _refresh_metadata_cache(self, table: TableInfo) -> dict[str, int]:
        store = self.stores.store_for(table.storage.location)
        self._require_delegated_access(table, store, listing=True)
        self.bigmeta.register_table(table.table_id)
        current = {
            e.file_path: e for e in self.bigmeta.table(table.table_id).live_entries().values()
        }
        observed: dict[str, FileEntry] = {}
        bucket = table.storage.bucket
        if table.kind is TableKind.OBJECT:
            for meta in store.list_objects(bucket, prefix=_dir_prefix(table.storage.prefix)):
                observed[f"{bucket}/{meta.key}"] = _object_entry(bucket, meta)
        else:
            for meta in store.list_objects(bucket, prefix=_dir_prefix(table.storage.prefix)):
                if not meta.key.endswith(".pqs"):
                    continue
                path = f"{bucket}/{meta.key}"
                known = current.get(path)
                # Generation is a stronger change signal than size: an
                # in-place overwrite of identical length still bumps it.
                # Entries registered without a generation (0) keep the
                # legacy size-only comparison.
                if (
                    known is not None
                    and known.size_bytes == meta.size
                    and known.generation in (0, meta.generation)
                ):
                    observed[path] = known  # unchanged: skip the footer read
                    continue
                footer, size = read_remote_footer(store, bucket, meta.key)
                observed[path] = entry_from_footer(
                    path, size, footer, partition_values(table, meta.key),
                    generation=meta.generation,
                )
        added = [e for p, e in observed.items() if p not in current]
        changed = [
            e for p, e in observed.items() if p in current and current[p] != e
        ]
        removed = [p for p in current if p not in observed]
        self.record_refresh(
            table,
            added=added + changed,
            deleted=removed + [e.file_path for e in changed],
        )
        return {
            "added": len(added),
            "removed": len(removed),
            "unchanged": len(observed) - len(added) - len(changed),
        }

    def record_refresh(
        self, table: TableInfo, added: list[FileEntry], deleted: list[str]
    ) -> None:
        """The one place a metadata-cache refresh becomes visible: commit the
        change to Big Metadata, stamp the refresh time, and bump the version so
        entries keyed on the old file set stop being addressed. Not on the
        first population — it runs inside the first job that can cache
        anything about the table, after that job's keys were digested, so a
        bump there would orphan only that job's own entry."""
        if added or deleted:
            self.bigmeta.commit(table.table_id, added=added, deleted=deleted)
            if table.table_id in self._cache_refreshed_ms:
                table.version += 1
        self._cache_refreshed_ms[table.table_id] = self.ctx.clock.now_ms

    # ------------------------------------------------------------------
    # ReadRows
    # ------------------------------------------------------------------

    def read_rows(
        self, session: ReadSession, stream_index: int, max_units: int | None = None
    ) -> Iterator[RecordBatch]:
        """Stream governed batches from one stream of a session.

        Validation — the fault hazard, session expiry, and the stream
        index — runs *here*, eagerly at call time, not on first ``next()``
        of the returned iterator: an expired session or a bad stream index
        must fail at the call site, not far away wherever the generator is
        first drained.

        Reads advance the stream's consumption cursor, so a second call
        resumes where the previous one stopped. ``max_units`` bounds how
        many units (files; batches for managed tables) this call consumes,
        letting a consumer interleave progress reports or rebalancing
        between files; ``None`` drains the stream.
        """
        self.ctx.faults.check(
            "read_api.read_rows", table=session.table.table_id, stream=stream_index
        )
        if self.ctx.clock.now_ms > session.expires_ms:
            raise SessionExpiredError(f"session {session.session_id} expired")
        if not 0 <= stream_index < len(session.streams):
            raise StorageApiError(f"no stream {stream_index} in session")
        return self._read_rows_impl(
            session, stream_index, self._enforcement(session), max_units
        )

    def _enforcement(self, session: ReadSession) -> Superluminal:
        """This read's view of the session's pipeline, after rechecking the
        principal's rights as they stand *now*. The recheck is the security
        property, not overhead: table access revoked or policies changed
        since create must bind the very next read, exactly as they would a
        freshly created session. The compile is what is reused — while the
        resolved access still equals the one it was built against. Both
        answers are memoised until the next grant / revoke / group change
        (:class:`IamService`) or policy change (:class:`TablePolicySet`), so
        an unchanged session's recheck is two lookups and an identity-equal
        comparison."""
        table = session.table
        decision = self.iam.is_allowed(
            session.principal, Permission.TABLES_GET_DATA, table.resource_name
        )
        if not decision.allowed:
            self.audit.record(
                session.principal, "read_session.read", table.resource_name,
                False, decision.reason,
            )
            raise AccessDeniedError(
                f"{session.principal} cannot read {table.table_id}: {decision.reason}"
            )
        access = table.policies.resolve(session.principal)
        if access != session.access:
            session.pipeline = self._compile(
                table, access, session.columns, session.restriction
            )
            session.access = access
        return session.pipeline.fresh()

    def _read_rows_impl(
        self, session: ReadSession, stream_index: int, enforcement, max_units: int | None
    ) -> Iterator[RecordBatch]:
        stream = session.streams[stream_index]
        if session.table.kind is TableKind.MANAGED:
            batches = self._read_managed_stream(session, stream, enforcement, max_units)
        elif session.table.kind is TableKind.OBJECT:
            batches = self._read_object_stream(session, stream, enforcement, max_units)
        else:
            batches = self._read_file_stream(session, stream, enforcement, max_units)
        if session.aggregates:
            batches = self._aggregate_stream(session, batches)
        else:
            batches = self._wire_accounted(session, batches)
        counter = self.ctx.metrics.counter(
            "repro_readsession_stream_rows_total",
            "rows returned per read-session stream",
        )
        for batch in batches:
            stream.rows_returned += batch.num_rows
            counter.inc(batch.num_rows, stream=str(stream.stream_id))
            yield batch
        if session.drained:
            # Fully drained: no handle has anything left to read, so the
            # registry lets go (a later attach is an unknown session).
            # Whoever holds the session object keeps it.
            self._sessions.pop(session.session_id, None)

    def _wire_accounted(self, session: ReadSession, batches) -> Iterator[RecordBatch]:
        for batch in batches:
            self._account_wire(session, batch)
            yield batch

    def _account_wire(self, session: ReadSession, batch: RecordBatch) -> None:
        """ReadRows payload accounting + transfer/TLS cost (§3.4 f.w.)."""
        if session.wire_format is None:
            return
        from repro.storageapi import wire

        plain = wire.plain_size(batch)
        if session.wire_format == "encoded":
            encoded = len(wire.encode_batch(batch))
        else:
            encoded = plain
        session.stats.wire_bytes_plain += plain
        session.stats.wire_bytes_encoded += encoded
        # Wire transfer + client-side TLS decryption scale with the bytes
        # actually shipped.
        with self.ctx.tracer.span("read_api.wire", layer="storageapi", bytes=encoded):
            self.ctx.charge(
                "read_api.wire",
                (encoded / MIB)
                * (self.ctx.costs.in_region_per_mib_ms + self.ctx.costs.tls_decrypt_per_mib_ms),
            )

    def _aggregate_stream(self, session: ReadSession, batches) -> Iterator[RecordBatch]:
        """Aggregate pushdown (§3.4 future work): compute partial
        MIN/MAX/SUM/COUNT server-side and return one tiny row per stream."""
        from repro.data.types import Field

        counts = {name: 0 for _, _, name in session.aggregates}
        sums: dict[str, float | int | None] = {name: None for _, _, name in session.aggregates}
        mins: dict[str, Any] = {name: None for _, _, name in session.aggregates}
        maxs: dict[str, Any] = {name: None for _, _, name in session.aggregates}
        dtypes: dict[str, DataType] = {}
        for func, column, name in session.aggregates:
            if func == "COUNT":
                dtypes[name] = DataType.INT64
            else:
                dtypes[name] = session.output_schema.field(column).dtype
        for batch in batches:
            for func, column, name in session.aggregates:
                if func == "COUNT" and column is None:
                    counts[name] += batch.num_rows
                    continue
                col = batch.column(column)
                if func == "COUNT":
                    counts[name] += len(col) - col.null_count()
                elif func == "SUM":
                    valid = col.is_valid()
                    if valid.any():
                        part = col.values[valid].sum()
                        part = part.item() if hasattr(part, "item") else part
                        sums[name] = part if sums[name] is None else sums[name] + part
                elif func in ("MIN", "MAX"):
                    lo, hi = col.min_max()
                    target = mins if func == "MIN" else maxs
                    value = lo if func == "MIN" else hi
                    if value is not None:
                        current = target[name]
                        if current is None:
                            target[name] = value
                        else:
                            target[name] = min(current, value) if func == "MIN" else max(current, value)
        fields = []
        columns = []
        for func, column, name in session.aggregates:
            fields.append(Field(name, dtypes[name]))
            if func == "COUNT":
                value = counts[name]
            elif func == "SUM":
                value = sums[name]
            elif func == "MIN":
                value = mins[name]
            else:
                value = maxs[name]
            columns.append(Column.from_pylist(dtypes[name], [value]))
        partial = RecordBatch(Schema(tuple(fields)), columns)
        self._account_wire(session, partial)
        yield partial

    def _count_scanned(self, num_bytes: int) -> None:
        self.ctx.metrics.counter(
            "readapi_bytes_scanned_total", "bytes scanned across all read sessions"
        ).inc(num_bytes)

    def _count_cache_hit(self, num_bytes: int) -> None:
        """Warm reads bypass :meth:`_count_scanned`; without this counter
        the scanned metric silently stops tying out against trace/JOBS
        totals on warm runs (scanned + cache_hit == source bytes)."""
        self.ctx.metrics.counter(
            "readapi_cache_hit_bytes_total",
            "source bytes served from the data cache instead of being scanned",
        ).inc(num_bytes)

    def _read_managed_stream(
        self, session, stream, enforcement, max_units=None
    ) -> Iterator[RecordBatch]:
        taken = 0
        while stream.offset < len(stream.batches) and (max_units is None or taken < max_units):
            batch = stream.batches[stream.offset]
            stream.advance(1)
            taken += 1
            session.stats.bytes_scanned += batch.nbytes()
            self._count_scanned(batch.nbytes())
            yield from self._emit(session, enforcement, batch)

    def _read_object_stream(
        self, session, stream, enforcement, max_units=None
    ) -> Iterator[RecordBatch]:
        """Materialize object-table rows from cached metadata entries.

        When the ``data`` column is requested, object contents are fetched
        *after* row filtering, so a principal only ever reads bytes of
        objects whose rows it can see (§4.1's invariant), and unselected
        objects cost nothing.
        """
        needs_data = any(c.lower() == "data" for c in session.columns)
        if needs_data:
            # The pipeline was compiled with bucket/key kept for the fetch
            # (see _compile); narrowed to the requested columns at the end.
            store = self.stores.store_for(session.table.storage.location)
            self._require_delegated_access(session.table, store)
        chunk = 4096
        taken = 0
        while stream.offset < len(stream.files) and (max_units is None or taken < max_units):
            take = chunk if max_units is None else min(chunk, max_units - taken)
            entries = stream.files[stream.offset : stream.offset + take]
            stream.advance(len(entries))
            taken += len(entries)
            batch = _object_entries_to_batch(entries)
            self.ctx.charge("object_table.materialize", self.ctx.costs.bigmeta_lookup_ms)
            session.stats.rows_scanned += batch.num_rows
            out = enforcement.process(batch)
            if needs_data and out.num_rows:
                out = self._fetch_object_data(session, out)
                out = out.select(session.columns)
            session.stats.rows_returned += out.num_rows
            if out.num_rows:
                yield out

    def _fetch_object_data(self, session, batch: RecordBatch) -> RecordBatch:
        """Fill the ``data`` column by fetching each surviving object."""
        from repro.data.types import Field

        store = self.stores.store_for(session.table.storage.location)
        buckets = batch.column("bucket").to_pylist()
        keys = batch.column("key").to_pylist()
        payloads = []
        for bucket, key in zip(buckets, keys):
            payloads.append(self._get_object(session, store, bucket, key))
        column = Column.from_pylist(DataType.BYTES, payloads)
        return batch.with_column(Field("data", DataType.BYTES), column)

    def _read_file_stream(
        self, session, stream, enforcement, max_units=None
    ) -> Iterator[RecordBatch]:
        table = session.table
        store = self.stores.store_for(table.storage.location)
        self._require_delegated_access(table, store)
        taken = 0
        while stream.offset < len(stream.files) and (max_units is None or taken < max_units):
            # Advance the cursor *before* reading: the file is "started",
            # so a rebalancer can never move it mid-read. A failed read is
            # rewound by the caller's progress snapshot, not here.
            entry = stream.files[stream.offset]
            stream.advance(1)
            taken += 1
            bucket, _, key = entry.file_path.partition("/")
            if session.use_row_oriented_reader:
                data = self._get_object(session, store, bucket, key)
                yield from self._row_oriented_scan(session, data, enforcement)
            else:
                yield from self._columnar_scan(
                    session, store, bucket, key, entry.generation, enforcement
                )

    # -- the scan kernel --------------------------------------------------

    # Selected chunk ranges closer together than this are fetched as one
    # request (standard reader coalescing).
    _COALESCE_GAP_BYTES = 64 * 1024

    def _get_object(self, session, store, bucket: str, key: str) -> bytes:
        """One whole-object GET, retried, accounted as scanned bytes."""
        data = self.ctx.with_retry(
            "objectstore.get",
            lambda: store.get_object(
                bucket, key, caller_location=session.engine_location
            ),
        )
        session.stats.bytes_scanned += len(data)
        self._count_scanned(len(data))
        return data

    def _fetch_ranges(
        self, session, store, bucket: str, key: str, chunks
    ) -> dict[str, bytes]:
        """Fetch the given column chunks with coalesced ranged GETs;
        returns {column_name: payload} and accounts the scanned bytes."""
        buffers: dict[str, bytes] = {}
        for start, stop, members in self._coalesced_ranges(
            sorted(chunks, key=lambda c: c.offset)
        ):
            blob = self.ctx.with_retry(
                "objectstore.get_range",
                lambda start=start, stop=stop: store.get_range(
                    bucket, key, start, stop - start,
                    caller_location=session.engine_location,
                ),
            )
            session.stats.bytes_scanned += len(blob)
            self._count_scanned(len(blob))
            for chunk in members:
                lo = chunk.offset - start
                buffers[chunk.name] = blob[lo : lo + chunk.length]
        return buffers

    def _charge_decode(
        self, session, reader: str, num_bytes: int, cpu_ms: float | None = None
    ) -> None:
        """Account one decode of ``num_bytes`` by ``reader``: session CPU, a
        ``formats.decode`` span and the sim-time charge. ``cpu_ms`` defaults
        to the vectorized per-MiB cost."""
        if cpu_ms is None:
            cpu_ms = (num_bytes / MIB) * self.ctx.costs.scan_per_mib_ms
        session.stats.cpu_ms += cpu_ms
        with self.ctx.tracer.span(
            "formats.decode", layer="formats", reader=reader, bytes=num_bytes
        ):
            self.ctx.charge(f"read_api.{reader}_scan", cpu_ms)

    def _emit(self, session, enforcement, batch) -> Iterator[RecordBatch]:
        session.stats.rows_scanned += batch.num_rows
        out = enforcement.process(batch)
        session.stats.rows_returned += out.num_rows
        if out.num_rows:
            yield out

    def _columnar_scan(
        self, session, store, bucket: str, key: str, generation: int, enforcement
    ) -> Iterator[RecordBatch]:
        """The one columnar scan of a file; the data cache is a layer under
        each step, not a separate path.

        1. Footer: cache hit, else the session's cold fetch shape — a
           ranged footer read (``ranged_reads``) or a whole-object GET —
           and admit it.
        2. Prune row groups by footer stats. None survives: done, nothing
           is decoded and no decode cost is charged.
        3. Chunks of each surviving row group: with the object in hand,
           slices of it, every column (the bytes are already here, so later
           queries hit regardless of projection); otherwise the needed
           columns only, from the chunk tier, the misses by coalesced
           ranged GETs.
        4. Decode and admit what was fetched; enforce. Unfetched columns
           ride as null placeholders so the batch stays aligned with the
           file schema; they are never projected or filtered on.

        The cache is consulted unconditionally: a disabled cache or an
        unknown generation (0) makes every lookup a miss and every admit a
        no-op before any fault hazard or metric, which leaves exactly the
        uncached scan.
        """
        cache = self.data_cache
        # The dictionary tier is keyed by content, not generation, so the
        # "generation 0 is never cached" rule is applied here.
        decode = cache.decode_chunk if generation > 0 else pqs._decode_chunk
        data: bytes | None = None
        cached = cache.lookup_footer(bucket, key, generation)
        if cached is not None:
            footer, _size = cached
        else:
            if session.ranged_reads:
                footer, size = self.ctx.with_retry(
                    "objectstore.get_range",
                    lambda: read_remote_footer(
                        store, bucket, key, caller_location=session.engine_location
                    ),
                )
            else:
                data = self._get_object(session, store, bucket, key)
                footer, size = pqs.read_footer(data), len(data)
            cache.admit_footer(bucket, key, generation, footer, size)

        keep = surviving_row_groups(footer, session.constraints)
        session.stats.row_groups_pruned += len(footer.row_groups) - len(keep)
        if not keep:
            return
        schema = footer.schema
        if data is not None:
            self._charge_decode(session, "vectorized", len(data))
            wanted = schema.names()
        else:
            needed = enforcement.needed_columns
            wanted = [f.name for f in schema if f.name.lower() in needed] or schema.names()[:1]

        # The file's chunk-tier lookups are counted once, when the scan ends —
        # also when the consumer stops reading before it does.
        tally = Tally(cache.chunks)
        try:
            for rg_index in keep:
                rg = footer.row_groups[rg_index]
                resolved: dict[str, Any] = {}
                if data is not None:
                    fetch = [rg.column(name) for name in wanted]
                    buffers = {c.name: data[c.offset : c.offset + c.length] for c in fetch}
                else:
                    fetch = []
                    for name in wanted:
                        hit = cache.lookup_chunk(bucket, key, generation, rg_index, name, tally)
                        if hit is None:
                            fetch.append(rg.column(name))
                            continue
                        resolved[name], nbytes = hit
                        session.stats.cache_hit_bytes += nbytes
                    if fetch:
                        buffers = self._fetch_ranges(session, store, bucket, key, fetch)
                        self._charge_decode(
                            session, "ranged", sum(len(b) for b in buffers.values())
                        )
                for chunk in fetch:
                    decoded = decode(
                        schema.field(chunk.name).dtype, chunk.encoding, buffers[chunk.name]
                    )
                    cache.admit_chunk(
                        bucket, key, generation, rg_index, chunk.name, decoded, chunk.length
                    )
                    resolved[chunk.name] = decoded
                columns = [
                    resolved[f.name] if f.name in resolved
                    else Column.nulls(f.dtype, rg.num_rows)
                    for f in schema
                ]
                yield from self._emit(session, enforcement, RecordBatch(schema, columns))
        finally:
            cache.count(tally)
            if tally.hits:
                self._count_cache_hit(tally.hit_bytes)

    def _coalesced_ranges(self, chunks) -> list[tuple[int, int, list]]:
        """Group offset-sorted chunks into fetch ranges, merging neighbors
        separated by less than the coalescing gap."""
        ranges: list[tuple[int, int, list]] = []
        for chunk in chunks:
            if ranges and chunk.offset - ranges[-1][1] <= self._COALESCE_GAP_BYTES:
                start, _stop, members = ranges[-1]
                members.append(chunk)
                ranges[-1] = (start, max(_stop, chunk.offset + chunk.length), members)
            else:
                ranges.append((chunk.offset, chunk.offset + chunk.length, [chunk]))
        return ranges

    def _row_oriented_scan(self, session, data: bytes, enforcement) -> Iterator[RecordBatch]:
        """The legacy prototype path (§3.4): decode rows, re-columnarize,
        then enforce. Slower in CPU and in simulated time."""
        reader = RowReader(data)
        self._charge_decode(
            session, "row", len(data),
            cpu_ms=(len(data) / MIB) * self.ctx.costs.scan_per_mib_ms * 4.0
            + reader.footer.num_rows * self.ctx.costs.row_scan_overhead_per_row_us / 1000.0,
        )
        for batch in reader.read_all(batch_rows=8192):
            yield from self._emit(session, enforcement, batch)

    # ------------------------------------------------------------------
    # Dynamic work rebalancing
    # ------------------------------------------------------------------

    def split_stream(self, session: ReadSession, stream_index: int) -> int:
        """Split half of a stream's *pending* files into a new stream.

        Only not-yet-started files move; anything at or below the
        consumption cursor stays put so an active consumer never loses a
        file out from under its current read."""
        stream = session.streams[stream_index]
        pending = stream.pending_files
        if len(pending) < 2:
            raise StorageApiError("stream too small to split")
        half = len(pending) // 2
        moved = pending[half:]
        del stream.files[stream.offset + half:]
        new_stream = ReadStream(
            stream_id=len(session.streams), files=moved, backlog=stream.backlog
        )
        session.streams.append(new_stream)
        return new_stream.stream_id


def _object_entry(bucket: str, meta) -> FileEntry:
    """Encode one object's attributes as a metadata-cache entry.

    Object tables reuse the structured-table cache (§4.1): attributes ride
    in ``partition_values`` so the standard pruner can filter on them
    (e.g. ``content_type = 'image/jpeg'`` or ``create_time > ...``).
    """
    create_us = int(meta.create_time_ms * 1000)
    update_us = int(meta.update_time_ms * 1000)
    return FileEntry(
        file_path=f"{bucket}/{meta.key}",
        size_bytes=meta.size,
        row_count=1,
        partition_values=(
            ("bucket", bucket),
            ("content_type", meta.content_type),
            ("create_time", create_us),
            ("generation", meta.generation),
            ("key", meta.key),
            ("size", meta.size),
            ("update_time", update_us),
            ("uri", meta.uri),
        ),
        column_stats=(
            ("create_time", ColumnStats(min_value=create_us, max_value=create_us)),
            ("size", ColumnStats(min_value=meta.size, max_value=meta.size)),
        ),
    )


def _object_entries_to_batch(entries: list[FileEntry]) -> RecordBatch:
    columns = {name: [] for name in OBJECT_TABLE_SCHEMA.names()}
    for entry in entries:
        values = entry.partition()
        for name in columns:
            columns[name].append(values.get(name))
    return batch_from_pydict(OBJECT_TABLE_SCHEMA, columns)


def _dir_prefix(prefix: str) -> str:
    """Normalize a table prefix to a directory prefix so that listing
    ``a/store`` never also matches ``a/store_sales/``."""
    return prefix.rstrip("/") + "/" if prefix else ""
