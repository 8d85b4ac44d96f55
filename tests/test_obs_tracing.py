"""Cross-layer tracing and metrics (the "Dapper-lite" observability layer).

Covers the span tree produced by ``QueryEngine.execute``: parent/child
integrity, sim-time monotonicity, per-layer coverage for a TPC-H-lite join,
exact agreement between objectstore span time and the CostModel charges,
metrics/stats consistency, deterministic ``explain_analyze`` output, and the
``query()`` deprecation shim.
"""

import warnings

import pytest

from repro.obs.trace import NOOP_SPAN, Tracer, layer_breakdown, layer_time_ms
from repro.simtime import MIB, CostModel
from repro.workloads import tpch_lite

from tests.helpers import make_platform, setup_sales_lake

SALES_SQL = (
    "SELECT region, COUNT(*) AS n, SUM(amount) AS total "
    "FROM ds.sales WHERE year = 2023 GROUP BY region ORDER BY total DESC"
)


def run_sales_query(sql: str = SALES_SQL):
    platform, admin = make_platform()
    setup_sales_lake(platform, admin)
    result = platform.home_engine.execute(sql, admin)
    return platform, result


def tpch_join_platform():
    platform, admin = make_platform()
    data = tpch_lite.generate(scale=0.1)
    tpch_lite.load_as_biglake(platform, admin, data)
    return platform, admin


class TestSpanTree:
    def test_root_span_attached_to_result(self):
        _, result = run_sales_query()
        assert result.trace is not None
        assert result.trace.name == "query"
        assert result.trace.layer == "engine"
        assert result.trace.parent_id is None
        assert result.trace.tags["kind"] == "select"

    def test_parent_child_integrity(self):
        _, result = run_sales_query()
        root = result.trace
        seen_ids = set()
        for span in root.walk():
            assert span.span_id not in seen_ids, "span ids must be unique"
            seen_ids.add(span.span_id)
            for child in span.children:
                assert child.parent_id == span.span_id
                # A child's interval nests inside its parent's.
                assert child.start_ms >= span.start_ms - 1e-9
                assert child.end_ms <= span.end_ms + 1e-9

    def test_sim_time_monotonic(self):
        _, result = run_sales_query()
        for span in result.trace.walk():
            assert span.duration_ms >= 0.0
            starts = [c.start_ms for c in span.children]
            assert starts == sorted(starts), "siblings start in sim-time order"

    def test_root_duration_covers_all_layers(self):
        _, result = run_sales_query()
        breakdown = layer_breakdown(result.trace)
        # Self-time attribution partitions the root duration exactly.
        assert sum(breakdown.values()) == pytest.approx(result.trace.duration_ms)

    def test_tpch_join_touches_at_least_four_layers(self):
        platform, admin = tpch_join_platform()
        result = platform.home_engine.execute(tpch_lite.queries()["q03"], admin)
        layers = set(layer_breakdown(result.trace))
        assert {"engine", "storageapi", "metastore", "objectstore"} <= layers
        assert len(layers) >= 4
        # The join plan shows up as per-operator engine spans.
        names = {span.name for span in result.trace.walk()}
        assert "engine.join" in names
        assert "engine.scan" in names

    def test_scan_span_carries_table_and_bytes_tags(self):
        _, result = run_sales_query()
        scans = result.trace.find("engine.scan")
        assert scans, "the query plan must include a traced scan operator"
        scan = scans[0]
        assert scan.tags["table"].endswith("ds.sales")
        assert scan.tags["bytes_scanned"] > 0


class TestObjectstoreCostAgreement:
    def test_objectstore_span_time_matches_cost_model(self):
        """Every objectstore span wraps exactly that op's simulated charges,
        so summed span time must reproduce the CostModel arithmetic."""
        _, result = run_sales_query()
        costs = CostModel()
        expected = 0.0
        count = 0
        for span in result.trace.walk():
            if span.layer != "objectstore":
                continue
            count += 1
            num_bytes = span.tags.get("bytes", 0)
            in_region = costs.transfer_ms(
                num_bytes, costs.in_region_per_mib_ms, costs.in_region_rtt_ms
            )
            if span.name in ("objectstore.get", "objectstore.get_range"):
                expected += (
                    costs.get_first_byte_ms
                    + (num_bytes / MIB) * costs.get_per_mib_ms
                    + in_region
                )
            elif span.name == "objectstore.head":
                expected += costs.head_latency_ms
            elif span.name == "objectstore.list_page":
                expected += costs.list_page_latency_ms
            else:
                pytest.fail(f"unexpected objectstore span {span.name!r} in a read query")
        assert count > 0
        assert layer_time_ms(result.trace, "objectstore") == pytest.approx(
            expected, rel=1e-9
        )


class TestMetrics:
    def test_bytes_scanned_counter_matches_query_stats(self):
        platform, admin = make_platform()
        setup_sales_lake(platform, admin)
        counter = platform.ctx.metrics.counter(
            "readapi_bytes_scanned_total", "bytes scanned across all read sessions"
        )
        before = counter.total()
        result = platform.home_engine.execute(SALES_SQL, admin)
        assert result.stats.bytes_scanned > 0
        assert counter.total() - before == pytest.approx(result.stats.bytes_scanned)

    def test_query_counters_and_snapshot(self):
        platform, result = run_sales_query()
        snapshot = platform.metrics_snapshot()
        assert "queries_total" in snapshot
        engine = platform.home_engine
        assert (
            platform.ctx.metrics.counter("queries_total", "").get(
                engine=engine.name, kind="select"
            )
            == 1.0
        )
        scanned = platform.ctx.metrics.counter("query_bytes_scanned_total", "")
        assert scanned.get(engine=engine.name) == pytest.approx(result.stats.bytes_scanned)
        text = platform.metrics_text()
        assert "# TYPE queries_total counter" in text

    def test_histogram_observes_elapsed(self):
        platform, result = run_sales_query()
        histogram = platform.ctx.metrics.histogram("query_elapsed_ms", "")
        engine = platform.home_engine.name
        assert histogram.count(engine=engine) == 1
        assert histogram.sum(engine=engine) == pytest.approx(result.stats.elapsed_ms)


class TestExplainAnalyze:
    def test_deterministic_across_fresh_platforms(self):
        outputs = []
        for _ in range(2):
            platform, admin = make_platform()
            setup_sales_lake(platform, admin)
            outputs.append(platform.home_engine.explain_analyze(SALES_SQL, admin))
        assert outputs[0] == outputs[1]

    def test_shows_layer_self_time(self):
        platform, admin = make_platform()
        setup_sales_lake(platform, admin)
        text = platform.home_engine.explain_analyze(SALES_SQL, admin)
        assert "layer self time:" in text
        assert "objectstore" in text
        assert "query [engine]" in text

    def test_falls_back_to_plan_when_disabled(self):
        platform, admin = make_platform()
        setup_sales_lake(platform, admin)
        platform.ctx.tracer.enabled = False
        text = platform.home_engine.explain_analyze(SALES_SQL, admin)
        assert "Scan" in text  # plan text, not a trace


class TestUnifiedEntryPoint:
    def test_execute_does_not_warn(self):
        platform, admin = make_platform()
        setup_sales_lake(platform, admin)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            platform.home_engine.execute(SALES_SQL, admin)

    def test_execute_rejects_snapshot_for_dml(self):
        from repro.errors import AnalysisError

        platform, admin = make_platform()
        setup_sales_lake(platform, admin)
        with pytest.raises(AnalysisError, match="snapshot_ms"):
            platform.home_engine.execute(
                "DELETE FROM ds.sales WHERE year = 1999", admin, snapshot_ms=10.0
            )

    def test_disabled_tracer_yields_no_trace(self):
        platform, admin = make_platform()
        setup_sales_lake(platform, admin)
        platform.ctx.tracer.enabled = False
        result = platform.home_engine.execute(SALES_SQL, admin)
        assert result.trace is None
        assert result.num_rows > 0
        assert platform.ctx.tracer.current is NOOP_SPAN

    def test_compute_parallelism_uses_shuffle_partitions(self):
        platform, admin = make_platform()
        setup_sales_lake(platform, admin)
        engine = platform.home_engine
        engine.shuffle_partitions = 3
        result = engine.execute(SALES_SQL, admin)
        assert result.stats.shuffle_partitions == 3
        assert result.stats.compute_parallelism == min(engine.slots, 3)


class TestTracerUnit:
    def test_traces_collected_at_stack_empty(self):
        from repro.simtime import SimClock

        tracer = Tracer(clock=SimClock())
        with tracer.span("outer", layer="engine"):
            with tracer.span("inner", layer="formats"):
                pass
        assert len(tracer.traces) == 1
        root = tracer.last_trace
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner"]

    def test_disabled_tracer_is_noop(self):
        from repro.simtime import SimClock

        tracer = Tracer(clock=SimClock(), enabled=False)
        with tracer.span("outer") as span:
            span.set_tag("k", 1)
            span.add_tag("n", 2)
        assert span is NOOP_SPAN
        assert len(tracer.traces) == 0

    def test_span_closes_with_duration_and_error_tag_when_body_raises(self):
        from repro.simtime import SimClock

        clock = SimClock()
        tracer = Tracer(clock=clock)
        with pytest.raises(RuntimeError, match="boom"):
            with tracer.span("outer", layer="engine"):
                clock.advance(7.5)
                with tracer.span("inner", layer="objectstore"):
                    clock.advance(2.5)
                    raise RuntimeError("boom")
        # Both spans closed despite the exception, with sim-time durations.
        assert tracer.current is None, "stack must unwind fully"
        root = tracer.last_trace
        assert root is not None and root.name == "outer"
        assert root.duration_ms == pytest.approx(10.0)
        inner = root.children[0]
        assert inner.duration_ms == pytest.approx(2.5)
        # Both the failing span and its ancestors are marked.
        assert inner.tags["error"] is True
        assert inner.tags["error_type"] == "RuntimeError"
        assert root.tags["error"] is True

    def test_exception_does_not_swallow_and_preserves_nesting(self):
        from repro.simtime import SimClock

        tracer = Tracer(clock=SimClock())
        with pytest.raises(ValueError):
            with tracer.span("root", layer="engine"):
                raise ValueError("x")
        # A new trace after the failure starts a fresh tree.
        with tracer.span("next", layer="engine"):
            pass
        assert [t.name for t in tracer.traces] == ["root", "next"]
        assert tracer.last_trace.parent_id is None

    def test_disabled_tracer_noop_on_exception_path(self):
        from repro.simtime import SimClock

        tracer = Tracer(clock=SimClock(), enabled=False)
        with pytest.raises(RuntimeError):
            with tracer.span("outer") as span:
                raise RuntimeError("boom")
        assert span is NOOP_SPAN
        assert NOOP_SPAN.tags == {}, "noop span must stay untagged"
        assert len(tracer.traces) == 0
        assert tracer.current is NOOP_SPAN
