"""Job-history ring buffer + the Chrome-trace exporter.

Covers the bounded :class:`JobHistory` (eviction, id monotonicity, failed
jobs burning ids), the platform accessors, and the exporter: the Chrome
document must load as valid JSON whose event nesting matches the span
tree.
"""

import json

import pytest

from repro.errors import NotFoundError
from repro.obs.export import chrome_trace, chrome_trace_json
from repro.obs.history import FAILED, SUCCEEDED, JobHistory, JobRecord, timeline_rows

from tests.helpers import make_platform, setup_sales_lake

SALES_SQL = (
    "SELECT region, COUNT(*) AS n FROM ds.sales WHERE year = 2023 GROUP BY region"
)


def _record(history, i):
    return history.record(
        JobRecord(
            job_id=history.next_job_id(),
            principal="user:u",
            sql=f"SELECT {i}",
            kind="select",
            engine="e",
            state=SUCCEEDED,
        )
    )


def traced_platform():
    platform, admin = make_platform()
    setup_sales_lake(platform, admin)
    result = platform.home_engine.execute(SALES_SQL, admin)
    return platform, platform.history.last, result


class TestJobHistoryRing:
    def test_eviction_oldest_first(self):
        history = JobHistory(capacity=3)
        for i in range(5):
            _record(history, i)
        assert len(history) == 3
        assert [r.job_id for r in history.jobs()] == [
            "job_000003", "job_000004", "job_000005",
        ]
        assert not history.has("job_000001")
        with pytest.raises(NotFoundError, match="evicted or never ran"):
            history.get("job_000001")
        assert history.last.job_id == "job_000005"

    def test_ids_monotonic_even_when_not_recorded(self):
        history = JobHistory(capacity=8)
        assert history.next_job_id() == "job_000001"
        # An id reserved for a job that never records (crash) stays burned.
        assert history.next_job_id() == "job_000002"
        record = _record(history, 0)
        assert record.job_id == "job_000003"

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            JobHistory(capacity=0)

    def test_platform_capacity_config(self):
        from repro import LakehousePlatform
        from repro.core.platform import PlatformConfig

        platform = LakehousePlatform(PlatformConfig(job_history_capacity=2))
        admin = platform.admin_user()
        for _ in range(3):
            platform.home_engine.execute("SELECT 1 AS x", admin)
        assert len(platform.history) == 2
        assert [r.job_id for r in platform.jobs()] == ["job_000002", "job_000003"]

    def test_failed_job_burns_id_and_is_retained(self):
        platform, admin = make_platform()
        setup_sales_lake(platform, admin)
        with pytest.raises(NotFoundError):
            platform.home_engine.execute("SELECT * FROM ds.missing", admin)
        platform.home_engine.execute(SALES_SQL, admin)
        first, second = platform.jobs()
        assert first.state == FAILED
        assert first.job_id == "job_000001"
        assert not first.succeeded
        assert second.state == SUCCEEDED
        assert second.job_id == "job_000002"

    def test_timeline_rows_empty_without_trace(self):
        record = JobRecord(
            job_id="job_000001", principal="user:u", sql="SELECT 1",
            kind="select", engine="e", state=SUCCEEDED,
        )
        assert timeline_rows(record) == []


class TestChromeTrace:
    def test_valid_json_with_nesting_matching_span_tree(self):
        _, record, result = traced_platform()
        document = json.loads(chrome_trace_json(record.trace))
        events = document["traceEvents"]
        assert document["displayTimeUnit"] == "ms"
        assert events[0]["ph"] == "M"  # process_name metadata first
        complete = [e for e in events if e["ph"] == "X"]
        spans = {s.span_id: s for s in result.trace.walk()}
        assert len(complete) == len(spans)
        for event in complete:
            span = spans[event["args"]["span_id"]]
            assert event["name"] == span.name
            assert event["cat"] == (span.layer or "other")
            assert event["args"]["parent_id"] == (span.parent_id or 0)
            assert event["ts"] == pytest.approx(span.start_ms * 1000.0, abs=1e-3)
            assert event["dur"] == pytest.approx(span.duration_ms * 1000.0, abs=1e-3)
            # Chrome nests by time containment on one pid/tid: every child
            # event's interval must lie inside its parent's.
            if span.parent_id:
                parent = next(
                    e for e in complete if e["args"]["span_id"] == span.parent_id
                )
                # ts/dur are independently rounded to 3 decimals, so allow
                # a couple of thousandths of a microsecond of slack.
                assert event["ts"] >= parent["ts"] - 5e-3
                assert event["ts"] + event["dur"] <= (
                    parent["ts"] + parent["dur"] + 5e-3
                )
            assert event["pid"] == event["tid"] == 1

    def test_process_name_and_self_ms(self):
        _, record, result = traced_platform()
        document = chrome_trace(record.trace, process_name=record.job_id)
        assert document["traceEvents"][0]["args"]["name"] == record.job_id
        root_event = document["traceEvents"][1]
        assert root_event["args"]["self_ms"] == pytest.approx(
            result.trace.self_time_ms(), abs=1e-6
        )

    def test_tags_survive_in_args(self):
        _, record, _ = traced_platform()
        document = chrome_trace(record.trace)
        scan = next(
            e for e in document["traceEvents"] if e.get("name") == "engine.scan"
        )
        assert scan["args"]["table"].endswith("ds.sales")
        assert scan["args"]["bytes_scanned"] > 0


class TestJobsCli:
    def test_jobs_subcommand_end_to_end(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "trace.json"
        code = main(["jobs", "--timeline", "job_000002", "--chrome-trace", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "job_000001" in captured and "SUCCEEDED" in captured
        assert "FAILED" in captured  # the deliberate demo failure
        assert "-- timeline for job_000002" in captured
        document = json.loads(out.read_text())
        assert any(e["ph"] == "X" for e in document["traceEvents"])

    def test_jobs_subcommand_unknown_job(self, capsys):
        from repro.__main__ import main

        assert main(["jobs", "--timeline", "job_999999"]) == 1
        assert "no timeline rows" in capsys.readouterr().err

    def test_jobs_timeline_id_never_reaches_the_sql_text(self, capsys):
        from repro.__main__ import main

        injected = "job_000002' OR job_id = 'job_000001"
        assert main(["jobs", "--timeline", injected]) == 1
        captured = capsys.readouterr()
        assert "no timeline rows" in captured.err
        assert "span  parent" not in captured.out
