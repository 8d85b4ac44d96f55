"""Serializable ReadSession handoff: serialize → attach round-trips,
registry semantics, per-stream progress, and the resolution-cache LRU."""

import json

import pytest

from repro.errors import SessionExpiredError, StorageApiError
from repro.storageapi import read_api as read_api_module
from repro.storageapi.streams import (
    StreamRebalancer,
    drain_session,
    parse_handle,
    rows_crc,
)
from tests.helpers import make_platform, setup_sales_lake


def _rows(read_api, session):
    out = []
    for i in range(len(session.streams)):
        for batch in read_api.read_rows(session, i):
            out.extend(zip(*(batch.column(n).to_pylist() for n in batch.schema.names())))
    return sorted(out)


class TestSerializeAttach:
    def test_round_trip_rows_identical(self):
        """Rows consumed through a serialized+attached session are
        byte-identical to direct consumption of a twin session."""
        platform, admin = make_platform()
        info, _ = setup_sales_lake(platform, admin, files=6, rows_per_file=30)
        direct = platform.read_api.create_read_session(admin, info, max_streams=3)
        handed = platform.read_api.create_read_session(admin, info, max_streams=3)
        blob = handed.serialize()
        assert isinstance(blob, bytes)
        attached = platform.read_api.attach(blob)
        assert attached is handed  # registry resolves to the live session
        assert _rows(platform.read_api, attached) == _rows(platform.read_api, direct)

    def test_blob_is_plain_json_with_no_object_references(self):
        platform, admin = make_platform()
        info, _ = setup_sales_lake(platform, admin)
        session = platform.read_api.create_read_session(admin, info, max_streams=2)
        blob = session.serialize()
        decoded = json.loads(blob.decode("utf-8"))
        assert decoded["session_id"] == session.session_id
        assert decoded["table"] == info.table_id
        assert [s["stream_id"] for s in decoded["streams"]] == [
            s.stream_id for s in session.streams
        ]
        assert "0x" not in blob.decode()  # no repr()'d live objects
        handle = parse_handle(blob)
        assert handle.session_id == session.session_id
        assert handle.expires_ms == session.expires_ms

    def test_attach_enforces_expiry(self):
        platform, admin = make_platform()
        info, _ = setup_sales_lake(platform, admin)
        session = platform.read_api.create_read_session(admin, info)
        blob = session.serialize()
        platform.ctx.clock.advance(7 * 3600 * 1000.0)
        with pytest.raises(SessionExpiredError):
            platform.read_api.attach(blob)

    def test_registry_drops_the_expired_prefix_and_stays_bounded(self, monkeypatch):
        """One TTL on a monotonic clock: expired sessions are the oldest
        ones. A create sweeps exactly them; the bound drops oldest-first."""
        platform, admin = make_platform()
        info, _ = setup_sales_lake(platform, admin)
        read_api = platform.read_api
        ttl = read_api_module._SESSION_TTL_MS
        old = [read_api.create_read_session(admin, info) for _ in range(3)]
        platform.ctx.clock.advance(ttl / 2)
        young = read_api.create_read_session(admin, info)
        assert list(read_api._sessions) == [s.session_id for s in old + [young]]
        platform.ctx.clock.advance(ttl / 2 + 1)  # past the TTL for ``old`` only
        newest = read_api.create_read_session(admin, info)
        assert list(read_api._sessions) == [young.session_id, newest.session_id]
        assert read_api.attach(young.serialize()) is young
        for session in old:
            with pytest.raises(SessionExpiredError):
                read_api.attach(session.serialize())

        monkeypatch.setattr(read_api_module, "_SESSION_REGISTRY_LIMIT", 4)
        more = [read_api.create_read_session(admin, info) for _ in range(3)]
        assert list(read_api._sessions) == [
            s.session_id for s in [newest] + more]  # ``young`` went first
        with pytest.raises(StorageApiError, match="unknown session"):
            read_api.attach(young.serialize())

    def test_attach_unknown_session(self):
        platform, admin = make_platform()
        info, _ = setup_sales_lake(platform, admin)
        session = platform.read_api.create_read_session(admin, info)
        tampered = json.loads(session.serialize())
        tampered["session_id"] = "sess-99999999"
        with pytest.raises(StorageApiError, match="unknown session"):
            platform.read_api.attach(json.dumps(tampered).encode())

    def test_attach_rejects_garbage(self):
        platform, admin = make_platform()
        setup_sales_lake(platform, admin)
        with pytest.raises(StorageApiError):
            platform.read_api.attach(b"\x00\x01 not json")
        with pytest.raises(StorageApiError):
            platform.read_api.attach(b'{"v": 999}')
        with pytest.raises(StorageApiError):
            platform.read_api.attach(b'{"v": 1, "streams": []}')

    def test_attach_other_deployment_fails(self):
        """Handles are resolved against the *deployment's* registry: a
        different platform has never seen the session."""
        platform, admin = make_platform()
        info, _ = setup_sales_lake(platform, admin)
        blob = platform.read_api.create_read_session(admin, info).serialize()
        other, other_admin = make_platform()
        setup_sales_lake(other, other_admin)
        with pytest.raises(StorageApiError, match="unknown session"):
            other.read_api.attach(blob)

    def test_attach_survives_stream_split(self):
        """A handle serialized before split_stream still attaches: the
        original stream ids all resolve (extra streams are fine)."""
        platform, admin = make_platform()
        info, _ = setup_sales_lake(platform, admin, files=6)
        session = platform.read_api.create_read_session(admin, info, max_streams=2)
        blob = session.serialize()
        platform.read_api.split_stream(session, 0)
        attached = platform.read_api.attach(blob)
        assert len(attached.streams) == 3

    def test_attach_counts_metric_and_audit(self):
        platform, admin = make_platform()
        info, _ = setup_sales_lake(platform, admin)
        blob = platform.read_api.create_read_session(admin, info).serialize()
        platform.read_api.attach(blob)
        platform.read_api.attach(blob)
        text = platform.metrics_text()
        assert "repro_readsession_attaches_total 2" in text
        actions = [e.action for e in platform.audit.events]
        assert actions.count("read_session.attach") == 2


class TestStreamProgress:
    def test_offsets_advance_and_report(self):
        platform, admin = make_platform()
        info, _ = setup_sales_lake(platform, admin, files=4, rows_per_file=20)
        session = platform.read_api.create_read_session(admin, info, max_streams=1)
        stream = session.streams[0]
        assert stream.progress()["consumed_units"] == 0
        batches = list(platform.read_api.read_rows(session, 0, max_units=1))
        assert stream.progress()["consumed_units"] == 1
        assert stream.progress()["rows_returned"] == sum(b.num_rows for b in batches)
        list(platform.read_api.read_rows(session, 0))
        assert stream.exhausted
        assert stream.progress()["consumed_units"] == stream.unit_count == 4

    def test_progress_shared_through_attach(self):
        """Two consumers attaching the same handle see one shared cursor —
        the registry hands back the live session, not a copy."""
        platform, admin = make_platform()
        info, _ = setup_sales_lake(platform, admin, files=4)
        session = platform.read_api.create_read_session(admin, info, max_streams=1)
        blob = session.serialize()
        first = platform.read_api.attach(blob)
        list(platform.read_api.read_rows(first, 0, max_units=2))
        second = platform.read_api.attach(blob)
        assert second.progress()[0]["consumed_units"] == 2

    def test_resumed_read_returns_remaining_rows_once(self):
        platform, admin = make_platform()
        info, _ = setup_sales_lake(platform, admin, files=4, rows_per_file=25)
        whole = platform.read_api.create_read_session(admin, info, max_streams=1)
        expected = _rows(platform.read_api, whole)
        split = platform.read_api.create_read_session(admin, info, max_streams=1)
        got = list(platform.read_api.read_rows(split, 0, max_units=1))
        got += list(platform.read_api.read_rows(split, 0, max_units=2))
        got += list(platform.read_api.read_rows(split, 0))
        assert list(platform.read_api.read_rows(split, 0)) == []  # exhausted
        rows = sorted(
            row
            for b in got
            for row in zip(*(b.column(n).to_pylist() for n in b.schema.names()))
        )
        assert rows == expected

    def test_progress_snapshot_restore(self):
        platform, admin = make_platform()
        info, _ = setup_sales_lake(platform, admin, files=4)
        session = platform.read_api.create_read_session(admin, info, max_streams=1)
        stream = session.streams[0]
        list(platform.read_api.read_rows(session, 0, max_units=1))
        snap = stream.progress_snapshot()
        list(platform.read_api.read_rows(session, 0, max_units=2))
        assert stream.offset == 3
        stream.restore_progress(snap)
        assert stream.offset == 1
        assert stream.progress()["rows_returned"] == snap[1]


class TestRegistryRelease:
    """The registry lets a session go exactly when its last stream is
    exhausted — checked in O(1) against the session's backlog of
    not-yet-started units, whatever order the streams drain in."""

    @staticmethod
    def _registered(platform, blob) -> bool:
        try:
            platform.read_api.attach(blob)
        except StorageApiError:
            return False
        return True

    def _drain(self, order, rebalance=False, fail_once=False):
        platform, admin = make_platform()
        info, _ = setup_sales_lake(platform, admin, files=9, rows_per_file=10)
        read_api = platform.read_api
        session = read_api.create_read_session(admin, info, max_streams=3)
        blob = session.serialize()
        if rebalance:
            # Stream 2 steals from the fullest stream, then is split again.
            assert StreamRebalancer(session).rebalance(to_stream=2)
            read_api.split_stream(session, 2)
        if fail_once:
            # A read rewound by its progress snapshot leaves the backlog
            # where it was.
            snap = session.streams[0].progress_snapshot()
            list(read_api.read_rows(session, 0, max_units=2))
            session.streams[0].restore_progress(snap)
        indices = order(len(session.streams))
        reads = 0
        while not all(s.exhausted for s in session.streams):
            for i in indices:
                if not session.streams[i].exhausted:
                    break
            list(read_api.read_rows(session, i, max_units=1))
            reads += 1
            assert self._registered(platform, blob) == (
                not all(s.exhausted for s in session.streams)
            )
        assert reads == sum(s.unit_count for s in session.streams)
        assert session.drained and not self._registered(platform, blob)

    def test_in_order(self):
        self._drain(lambda n: list(range(n)))

    def test_reversed(self):
        self._drain(lambda n: list(reversed(range(n))))

    def test_rebalanced(self):
        self._drain(lambda n: list(reversed(range(n))), rebalance=True)

    def test_rewound_read(self):
        self._drain(lambda n: list(range(n)), fail_once=True)


class TestDrainHarness:
    def test_drain_returns_all_rows(self):
        platform, admin = make_platform()
        info, _ = setup_sales_lake(platform, admin, files=6, rows_per_file=30)
        session = platform.read_api.create_read_session(admin, info, max_streams=3)
        baseline = platform.read_api.create_read_session(admin, info, max_streams=3)
        expected_crc = rows_crc(
            b for i in range(3) for b in platform.read_api.read_rows(baseline, i)
        )
        report = drain_session(platform.read_api, session.serialize())
        assert report.rows == 6 * 30
        assert report.crc == expected_crc
        assert all(c.finished_ms <= report.makespan_ms for c in report.consumers)


class TestResolutionCacheLru:
    def _session(self, platform, admin, info, restriction):
        return platform.read_api.create_read_session(
            admin, info, row_restriction=restriction, reuse=True
        )

    def test_eviction_and_hit_accounting(self):
        platform, admin = make_platform()
        info, _ = setup_sales_lake(platform, admin)
        api = platform.read_api
        api.resolution_cache_entries = 2
        r1, r2, r3 = "year = 2022", "year = 2023", "amount > 1.0"
        self._session(platform, admin, info, r1)
        self._session(platform, admin, info, r2)
        assert api.session_cache_hits == 0
        assert self._session(platform, admin, info, r1).stats.served_from_session_cache
        assert api.session_cache_hits == 1
        # r3 evicts the least-recently-used key (r2 — r1 was just touched).
        self._session(platform, admin, info, r3)
        assert len(api._resolution_cache) == 2
        assert "repro_session_cache_evictions_total 1" in platform.metrics_text()
        assert not self._session(platform, admin, info, r2).stats.served_from_session_cache

    def test_lru_touch_keeps_hot_keys(self):
        platform, admin = make_platform()
        info, _ = setup_sales_lake(platform, admin)
        api = platform.read_api
        api.resolution_cache_entries = 2
        r1, r2, r3 = "year = 2022", "year = 2023", "amount > 1.0"
        self._session(platform, admin, info, r1)
        self._session(platform, admin, info, r2)
        self._session(platform, admin, info, r1)  # touch r1 → r2 is LRU
        self._session(platform, admin, info, r3)  # evicts r2
        hits_before = api.session_cache_hits
        assert self._session(platform, admin, info, r1).stats.served_from_session_cache
        assert api.session_cache_hits == hits_before + 1
