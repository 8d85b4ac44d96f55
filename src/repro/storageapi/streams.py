"""Serializable session handoff + dynamic stream rebalancing (§3.4).

The real Storage Read API usage pattern (see the ``bq_storage`` paging
exemplar in SNIPPETS.md) is: ``create_read_session(requested_streams=N)``
→ serialize the session → hand the bytes to N independent workers → each
worker attaches and drains one stream concurrently. This module supplies
the three pieces our simulation needs for that story:

- the **handle codec**: :func:`serialize_session` /
  :func:`parse_handle`. The blob is a plain JSON document of ids — never
  live object references — so it survives "process" boundaries; the
  server side (:meth:`ReadApi.attach`) re-resolves stream ids against its
  session registry and enforces expiry at attach time.
- the :class:`StreamRebalancer`: when one consumer lags, its stream's
  *not-yet-started* files are handed to consumers that have gone idle.
  Moving only pending files (everything past the stream's consumption
  cursor) guarantees rebalancing can never change returned rows — the
  same invariant PR 5's speculative backups pin.
- :func:`drain_session`: a deterministic multi-consumer harness — one
  simulated worker per stream, each joining via the serialized handle —
  used by the ``readsession`` CLI, bench E17-RS, and tests. Consumer
  speed skew comes from an explicit ``lag`` map and/or the seeded
  ``consumer.lag`` slowdown hazard; the hazard is probed once per
  consumer in stream order *before* any timing diverges, so the fault
  log is identical with the rebalancer on or off (the PR 5 trick that
  keeps straggler draws speculation-invariant).
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.data.column import DictionaryColumn
from repro.data.types import DataType
from repro.errors import StorageApiError
from repro.simtime import MIB

_HANDLE_VERSION = 1


def serialize_session(session) -> bytes:
    """Encode a session as a stable, process-independent byte handle."""
    handle = {
        "v": _HANDLE_VERSION,
        "session_id": session.session_id,
        "table": session.table.table_id,
        "principal": f"{session.principal.kind.value}:{session.principal.name}",
        "columns": list(session.columns),
        "row_restriction": session.row_restriction,
        "created_ms": session.created_ms,
        "expires_ms": session.expires_ms,
        "streams": [
            {"stream_id": s.stream_id, "units": s.unit_count}
            for s in session.streams
        ],
    }
    return json.dumps(handle, sort_keys=True).encode("utf-8")


@dataclass(frozen=True)
class SessionHandle:
    """The decoded wire handle: ids only, resolved server-side at attach."""

    session_id: str
    table_id: str
    principal: str
    created_ms: float
    expires_ms: float
    stream_ids: tuple[int, ...]


def parse_handle(blob: bytes | str) -> SessionHandle:
    """Decode a serialized session handle; raises StorageApiError on junk."""
    if isinstance(blob, str):
        blob = blob.encode("utf-8")
    try:
        raw = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        raise StorageApiError("not a serialized read-session handle") from None
    if not isinstance(raw, dict) or raw.get("v") != _HANDLE_VERSION:
        raise StorageApiError("unsupported read-session handle version")
    try:
        return SessionHandle(
            session_id=raw["session_id"],
            table_id=raw["table"],
            principal=raw["principal"],
            created_ms=float(raw["created_ms"]),
            expires_ms=float(raw["expires_ms"]),
            stream_ids=tuple(int(s["stream_id"]) for s in raw["streams"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageApiError(f"malformed read-session handle: {exc!r}") from None


# --------------------------------------------------------------------------
# Dynamic stream rebalancing
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RebalanceMove:
    file_path: str
    size_bytes: int
    from_stream: int
    to_stream: int


class StreamRebalancer:
    """Moves pending files from the most-loaded stream to an idle one.

    ``rebalance(to_stream)`` is called when the consumer of ``to_stream``
    runs out of work. The donor is the stream with the most pending bytes;
    the trailing half (rounded up) of its pending files moves. Files at or
    below a stream's consumption cursor are started and never move, so the
    union of files read — and therefore the returned rows — is invariant
    under any rebalancing schedule.
    """

    def __init__(self, session, ctx=None, min_pending: int = 1) -> None:
        self.session = session
        self.ctx = ctx
        self.min_pending = max(1, min_pending)
        self.moves: list[RebalanceMove] = []
        self.rebalances = 0

    def rebalance(self, to_stream: int) -> list[RebalanceMove]:
        target = self.session.streams[to_stream]
        donors = [
            s for s in self.session.streams
            if s.stream_id != target.stream_id and len(s.pending_files) >= self.min_pending
        ]
        if not donors:
            return []
        # Most pending bytes first; ties to the lowest stream id so the
        # schedule is deterministic.
        donor = max(donors, key=lambda s: (s.pending_bytes, -s.stream_id))
        pending = donor.pending_files
        moved = pending[len(pending) // 2:]
        if not moved:
            return []
        del donor.files[len(donor.files) - len(moved):]
        target.files.extend(moved)
        batch = [
            RebalanceMove(e.file_path, e.size_bytes, donor.stream_id, target.stream_id)
            for e in moved
        ]
        self.moves.extend(batch)
        self.rebalances += 1
        if self.ctx is not None:
            self.ctx.metrics.counter(
                "repro_readsession_rebalances_total",
                "dynamic rebalances moving pending files between read streams",
            ).inc()
        return batch


# --------------------------------------------------------------------------
# Deterministic multi-consumer drain harness
# --------------------------------------------------------------------------


@dataclass
class ConsumerStats:
    """What one simulated worker (stream consumer) did during a drain."""

    consumer: str
    stream_id: int
    speed: float
    files: int = 0
    rows: int = 0
    bytes: int = 0
    finished_ms: float = 0.0

    def to_dict(self) -> dict:
        return {
            "consumer": self.consumer,
            "stream_id": self.stream_id,
            "speed": round(self.speed, 6),
            "files": self.files,
            "rows": self.rows,
            "bytes": self.bytes,
            "finished_ms": round(self.finished_ms, 6),
        }


@dataclass
class DrainReport:
    """Outcome of a multi-consumer drain of one session."""

    makespan_ms: float
    rows: int
    bytes: int
    crc: int
    consumers: list[ConsumerStats] = field(default_factory=list)
    moves: list[RebalanceMove] = field(default_factory=list)
    rebalances: int = 0

    def to_dict(self) -> dict:
        return {
            "makespan_ms": round(self.makespan_ms, 6),
            "rows": self.rows,
            "bytes": self.bytes,
            "crc": self.crc,
            "rebalances": self.rebalances,
            "moves": [
                {
                    "file": m.file_path,
                    "bytes": m.size_bytes,
                    "from_stream": m.from_stream,
                    "to_stream": m.to_stream,
                }
                for m in self.moves
            ],
            "consumers": [c.to_dict() for c in self.consumers],
        }


def rows_crc(batches) -> int:
    """Order-insensitive CRC32 over row contents. Consumers race, so the
    interleaving (and stream assignment, under rebalancing) is schedule-
    dependent; the row *set* must not be.

    The digest is the sorted ``repr`` of each row tuple, built column by
    column with the tuple's punctuation folded into the first and last
    column's texts, so a row is one ``", ".join``. Each column position
    is texted across all the batches at once (:func:`_column_texts`)."""
    rows: list[str] = []
    by_width: dict[int, list] = {}
    for batch in batches:
        if batch.num_rows:
            by_width.setdefault(len(batch.columns), []).append(batch)
    for width, group in by_width.items():
        last = ",)" if width == 1 else ")"
        texts = [
            _column_texts(
                [batch.columns[j] for batch in group],
                _folded_repr("(" if j == 0 else "", last if j == width - 1 else ""),
            )
            for j in range(width)
        ]
        rows.extend(texts[0] if width == 1 else map(", ".join, zip(*texts)))
    rows.sort()
    # CRC-32 of the concatenation is the CRC chained over the sorted rows.
    return zlib.crc32("".join(rows).encode("utf-8"))


@functools.cache
def _folded_repr(prefix: str, suffix: str) -> Callable[[object], str]:
    """``repr`` with the row tuple's punctuation around it: one stable
    function per fold, since a column's text memo keys on it."""
    if not (prefix or suffix):
        return repr
    return lambda value: f"{prefix}{value!r}{suffix}"


def _column_texts(columns: list, text: Callable[[object], str]) -> list[str]:
    """``text`` of each python value of ``columns``, one column position
    across a drain's batches, in row order (``text(None)`` at a null).

    Each distinct value is formatted once where formatting is what costs:
    a dictionary column's entries through the text memo of its shared
    dictionary, and the plain FLOAT64 rows of the position through one
    ``np.unique`` over their bit patterns, so -0.0 and 0.0 stay apart, as
    do NaN payloads. Other plain columns format per row."""
    starts = [0, *itertools.accumulate(map(len, columns))]
    out = np.empty(starts[-1], dtype=object)
    floats = []
    for i, column in enumerate(columns):
        if isinstance(column, DictionaryColumn):
            out[starts[i]:starts[i + 1]] = column.texts(text)
        elif column.dtype is DataType.FLOAT64:
            floats.append(i)
        else:
            out[starts[i]:starts[i + 1]] = np.fromiter(
                map(text, column.to_pylist()), dtype=object, count=len(column))
    if floats:
        texts = _float_texts([columns[i] for i in floats], text)
        if len(floats) == len(columns):
            return texts.tolist()
        out[np.concatenate([np.arange(starts[i], starts[i + 1]) for i in floats])] = texts
    return out.tolist()


def _float_texts(columns: list, text: Callable[[object], str]) -> np.ndarray:
    """The texts of plain FLOAT64 columns, concatenated: ``text`` runs once
    per distinct bit pattern of their values."""
    values = np.concatenate([c.values for c in columns])
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    distinct = bits.view(np.float64).tolist()
    by_bits = np.fromiter(
        [*map(text, distinct), text(None)], dtype=object, count=len(distinct) + 1)
    if any(c.validity is not None for c in columns):
        inverse[~np.concatenate([c.is_valid() for c in columns])] = len(distinct)
    return by_bits[inverse]


def drain_session(
    read_api,
    blob: bytes,
    *,
    rebalance: bool = False,
    lag: dict[int, float] | None = None,
) -> DrainReport:
    """Drain a serialized session with one simulated consumer per stream.

    Every consumer independently attaches via ``blob`` (ids over the wire,
    no shared objects), then the harness runs a discrete-event loop on a
    model clock: each consumer reads one file per turn at a cost of
    first-byte latency + per-MiB transfer/decode, scaled by its speed
    factor. ``lag`` maps stream index → slowdown factor (2.0 = half
    speed), multiplied with the seeded ``consumer.lag`` hazard, which is
    probed once per consumer in stream order before the loop starts so
    fault draws are identical whether or not the rebalancer runs. With
    ``rebalance=True`` an idle consumer steals pending files from the
    most-loaded stream instead of finishing.

    The model clock orders events; the reads are real — rows flow through
    the full governed read path (retried on transient faults), and the
    report carries an order-insensitive CRC for invariance checks.
    """
    ctx = read_api.ctx
    session = read_api.attach(blob)
    costs = ctx.costs
    n = len(session.streams)
    speeds = []
    for i in range(n):
        factor = ctx.faults.slowdown("consumer.lag", stream=i)
        factor *= (lag or {}).get(i, 1.0)
        speeds.append(factor)

    consumers = [
        ConsumerStats(consumer=f"worker-{i}", stream_id=session.streams[i].stream_id,
                      speed=speeds[i])
        for i in range(n)
    ]
    rebalancer = StreamRebalancer(session, ctx=ctx) if rebalance else None
    batches = []

    def read_one(index: int) -> float:
        """Read the next file on stream ``index``; returns its model cost."""
        stream = session.streams[index]
        entry = stream.files[stream.offset]

        def attempt():
            progress = stream.progress_snapshot()
            stats = session.stats.snapshot()
            try:
                return list(read_api.read_rows(session, index, max_units=1))
            except BaseException:
                stream.restore_progress(progress)
                session.stats.restore(stats)
                raise
        # Each worker attaches once but retries each file read like any
        # other task (transient hazards on the governed read path).
        got = ctx.with_retry("readsession.read", attempt)
        batches.extend(got)
        stats = consumers[index]
        stats.files += 1
        stats.rows += sum(b.num_rows for b in got)
        stats.bytes += entry.size_bytes
        cost = (
            costs.get_first_byte_ms
            + (entry.size_bytes / MIB) * (costs.get_per_mib_ms + costs.scan_per_mib_ms)
        )
        return cost * speeds[index]

    # Discrete-event loop: (model time, stream index) — ties break on the
    # lower stream index so the schedule is deterministic.
    ready = [(0.0, i) for i in range(n)]
    heapq.heapify(ready)
    makespan = 0.0
    while ready:
        now, index = heapq.heappop(ready)
        stream = session.streams[index]
        if stream.offset < len(stream.files):
            heapq.heappush(ready, (now + read_one(index), index))
            continue
        if rebalancer is not None and rebalancer.rebalance(index):
            heapq.heappush(ready, (now, index))  # stolen work: go again
            continue
        consumers[index].finished_ms = now
        makespan = max(makespan, now)

    report = DrainReport(
        makespan_ms=makespan,
        rows=sum(c.rows for c in consumers),
        bytes=sum(c.bytes for c in consumers),
        crc=rows_crc(batches),
        consumers=consumers,
        moves=list(rebalancer.moves) if rebalancer else [],
        rebalances=rebalancer.rebalances if rebalancer else 0,
    )
    return report
