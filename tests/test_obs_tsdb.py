"""Unit tests for the sim-time TSDB (``repro.obs.tsdb``) and the Gauge
ergonomics the fleet monitor depends on.

Covers the Prometheus-shaped contracts: range-vector lookback ``(at -
window, at]``, nearest-rank ``quantile_over_time``, counter ``rate()``,
staleness markers (a vanished series must not ghost its last value
forward), and the scraper's fixed grid (scrape timestamps are multiples
of the interval no matter when ``maybe_scrape`` is called).
"""

import math
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import tsdb
from repro.obs.alerts import AlertEngine, AlertRule
from repro.obs.metrics import MetricsRegistry
from repro.obs.tsdb import MetricsScraper, TimeSeriesStore

from tests.reference_tsdb import UnboundedStore as _UnboundedStore


class TestTimeSeriesStore:
    def test_points_roundtrip_and_labels(self):
        store = TimeSeriesStore()
        store.record("q", 10.0, 1.0, principal="a")
        store.record("q", 20.0, 2.0, principal="a")
        store.record("q", 15.0, 9.0, principal="b")
        assert store.points("q", principal="a") == [(10.0, 1.0), (20.0, 2.0)]
        assert store.points("q", principal="b") == [(15.0, 9.0)]
        assert store.points("q") == []  # unlabeled series is distinct
        assert store.series_names() == ["q"]
        assert len(store) == 2
        assert store.sample_count() == 3

    def test_append_must_be_time_ordered_per_series(self):
        store = TimeSeriesStore()
        store.record("x", 100.0, 1.0)
        with pytest.raises(ValueError, match="time order"):
            store.record("x", 99.0, 2.0)
        # Other series are independent.
        store.record("y", 0.0, 1.0)

    def test_window_is_half_open_lookback(self):
        store = TimeSeriesStore()
        for t in (10.0, 20.0, 30.0):
            store.record("v", t, t)
        # (10, 30]: the sample AT at_ms is included, at-window excluded.
        assert store.sum_over_time("v", 30.0, 20.0) == 50.0
        assert store.count_over_time("v", 30.0, 20.0) == 2
        assert store.avg_over_time("v", 30.0, 20.0) == 25.0
        assert store.max_over_time("v", 30.0, 20.0) == 30.0
        assert store.min_over_time("v", 30.0, 20.0) == 20.0

    def test_empty_window_is_nan(self):
        store = TimeSeriesStore()
        store.record("v", 100.0, 1.0)
        assert math.isnan(store.avg_over_time("v", 50.0, 10.0))
        assert math.isnan(store.avg_over_time("missing", 50.0, 10.0))

    def test_quantile_over_time_nearest_rank(self):
        store = TimeSeriesStore()
        for i, v in enumerate([5.0, 1.0, 3.0, 2.0, 4.0]):
            store.record("lat", float(i), v)
        assert store.quantile_over_time("lat", 0.5, 10.0, 100.0) == 3.0
        assert store.quantile_over_time("lat", 0.99, 10.0, 100.0) == 5.0
        assert store.quantile_over_time("lat", 0.0, 10.0, 100.0) == 1.0
        with pytest.raises(ValueError):
            store.quantile_over_time("lat", 1.5, 10.0, 100.0)

    def test_rate_is_per_second_increase(self):
        store = TimeSeriesStore()
        store.record("c", 0.0, 10.0)
        store.record("c", 500.0, 15.0)
        store.record("c", 1000.0, 30.0)
        # Half-open lookback (0, 1000]: the t=0 sample is excluded, so the
        # increase is 30 - 15 over a 1-second window.
        assert store.rate("c", 1000.0, 1000.0) == pytest.approx(15.0)
        # Fewer than two samples in the window: no observable increase.
        assert store.rate("c", 1000.0, 400.0) == 0.0

    def test_staleness_markers_skipped_by_windows_and_kill_last(self):
        store = TimeSeriesStore()
        store.record("g", 100.0, 7.0)
        store.record_stale("g", 200.0)
        assert store.avg_over_time("g", 250.0, 200.0) == 7.0  # marker skipped
        assert store.last("g", 150.0) == 7.0
        # Newest sample at 200 is the marker: the series is dead, the old
        # value must not ghost forward.
        assert math.isnan(store.last("g", 250.0))


class TestMetricsScraper:
    def test_fixed_grid_catch_up(self):
        registry = MetricsRegistry()
        registry.counter("repro_ops_total", "ops").inc()
        store = TimeSeriesStore()
        scraper = MetricsScraper(registry, store, interval_ms=100.0)
        # First call far into sim time: every elapsed grid instant lands.
        assert scraper.maybe_scrape(350.0) == 4  # t = 0, 100, 200, 300
        assert [t for t, _ in store.points("repro_ops_total")] == [
            0.0, 100.0, 200.0, 300.0,
        ]
        # No new grid instant elapsed -> no scrape.
        assert scraper.maybe_scrape(399.0) == 0
        assert scraper.maybe_scrape(400.0) == 1
        assert scraper.scrape_count == 5

    def test_grid_is_call_site_independent(self):
        registry = MetricsRegistry()
        registry.counter("repro_ops_total", "ops").inc()

        def timestamps(checkpoints):
            store = TimeSeriesStore()
            scraper = MetricsScraper(registry, store, interval_ms=50.0)
            for now in checkpoints:
                scraper.maybe_scrape(now)
            return [t for t, _ in store.points("repro_ops_total")]

        assert timestamps([220.0]) == timestamps([60.0, 130.0, 220.0])

    def test_history_rows_and_staleness_marker(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_depth", "queue depth")
        gauge.set(3.0, principal="a")
        store = TimeSeriesStore()
        scraper = MetricsScraper(registry, store, interval_ms=100.0)
        scraper.maybe_scrape(0.0)
        assert gauge.remove(principal="a")
        scraper.maybe_scrape(100.0)
        rows = list(scraper.rows)
        live = [r for r in rows if r[3] == 'repro_depth{principal="a"}' and not r[5]]
        stale = [r for r in rows if r[5]]
        assert len(live) == 1 and live[0][4] == 3.0
        assert len(stale) == 1
        assert stale[0][0] == 100.0 and math.isnan(stale[0][4])
        # The TSDB saw the marker too: last() refuses to ghost the value.
        assert math.isnan(store.last("repro_depth", 150.0, principal="a"))
        # Series stays gone (no marker spam on the next scrape).
        scraper.maybe_scrape(200.0)
        assert sum(1 for r in scraper.rows if r[5]) == 1

    def test_scraper_is_a_pure_reader(self):
        registry = MetricsRegistry()
        registry.counter("repro_ops_total", "ops").inc(kind="x")
        before = registry.render()
        scraper = MetricsScraper(registry, TimeSeriesStore(), interval_ms=10.0)
        scraper.maybe_scrape(100.0)
        assert registry.render() == before

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            MetricsScraper(MetricsRegistry(), TimeSeriesStore(), interval_ms=0.0)


class TestGaugeErgonomics:
    """Satellite fix: inc/dec pairs and explicit series removal, so the
    pool sampler can retire a principal's series instead of letting its
    last value persist forever in METRICS_HISTORY."""

    def test_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g", "test")
        gauge.inc(principal="a")
        gauge.inc(2.0, principal="a")
        gauge.dec(principal="a")
        assert registry.snapshot()["g"]['g{principal="a"}'] == 2.0

    def test_remove_and_label_sets(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g", "test")
        gauge.set(1.0, principal="a")
        gauge.set(2.0, principal="b")
        assert gauge.label_sets() == [
            (("principal", "a"),), (("principal", "b"),),
        ]
        assert gauge.remove(principal="a") is True
        assert gauge.remove(principal="a") is False  # already gone
        assert gauge.label_sets() == [(("principal", "b"),)]
        assert 'g{principal="a"}' not in registry.snapshot()["g"]


# -- bounded retention --------------------------------------------------------


#: Shrunk retention for the property tests, so short random series cross
#: many trims.
_SMALL_N = 8


def _small_retention():
    return mock.patch.object(tsdb, "RETENTION_SAMPLES", _SMALL_N)


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def _window_answers(store, name, at_ms, window_ms):
    return (
        store.avg_over_time(name, at_ms, window_ms),
        store.sum_over_time(name, at_ms, window_ms),
        store.max_over_time(name, at_ms, window_ms),
        store.min_over_time(name, at_ms, window_ms),
        store.count_over_time(name, at_ms, window_ms),
        store.quantile_over_time(name, 0.5, at_ms, window_ms),
        store.quantile_over_time(name, 0.99, at_ms, window_ms),
        store.rate(name, at_ms, window_ms),
        store.last(name, at_ms),
    )


_SAMPLES = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),  # gap to the previous sample
        st.one_of(st.just(math.nan), st.integers(-50, 50).map(float)),
    ),
    min_size=1,
    max_size=120,
)


class TestBoundedRetention:
    def test_series_holds_between_n_and_2n_samples(self):
        store = TimeSeriesStore()
        n = tsdb.RETENTION_SAMPLES
        for i in range(5 * n + 3):
            store.record("v", float(i), float(i))
            assert store.sample_count() <= 2 * n
        points = store.points("v")
        assert n <= len(points) <= 2 * n
        # The retained samples are the newest ones, still in time order.
        assert points[-1] == (5.0 * n + 2, 5.0 * n + 2)
        assert [t for t, _ in points] == sorted(t for t, _ in points)
        assert store.last("v", 1e12) == 5.0 * n + 2

    def test_fifty_thousand_scrapes_stay_bounded(self):
        registry = MetricsRegistry()
        registry.counter("repro_ops_total", "ops").inc(kind="a")
        registry.counter("repro_ops_total", "ops").inc(kind="b")
        registry.gauge("repro_depth", "depth").set(1.0)
        store = TimeSeriesStore()
        scraper = MetricsScraper(registry, store, interval_ms=1.0, history_rows=16)
        assert scraper.maybe_scrape(49_999.0) == 50_000
        assert len(store) == 3
        assert store.sample_count() <= 2 * tsdb.RETENTION_SAMPLES * len(store)
        # The newest scrape is there, the rate over a recent window exact.
        assert store.last("repro_depth", 49_999.0) == 1.0
        assert store.count_over_time("repro_depth", 49_999.0, 500.0) == 500

    @settings(max_examples=150, deadline=None)
    @given(samples=_SAMPLES, windows=st.lists(st.integers(1, 40), min_size=1, max_size=4))
    def test_windows_within_retention_equal_the_unbounded_store(self, samples, windows):
        bounded, reference = TimeSeriesStore(), _UnboundedStore()
        t = 0.0
        with _small_retention():
            for gap, value in samples:
                t += gap
                bounded.record("v", t, value)
                reference.record("v", t, value)
                assert bounded.sample_count() <= 2 * _SMALL_N
                for window_ms in windows:
                    lo = t - window_ms
                    times = reference._series[("v", ())].times
                    if sum(1 for when in times if when > lo) > _SMALL_N:
                        continue  # reaches past the guaranteed tail
                    got = _window_answers(bounded, "v", t, float(window_ms))
                    want = _window_answers(reference, "v", t, float(window_ms))
                    assert all(_same(g, w) for g, w in zip(got, want)), (got, want)

    @settings(max_examples=100, deadline=None)
    @given(
        bad=st.lists(
            st.one_of(st.just(math.nan), st.sampled_from([0.0, 0.0, 1.0])),
            min_size=1, max_size=150,
        ),
        latency=st.lists(st.integers(0, 100).map(float), min_size=150, max_size=150),
    )
    def test_alert_transitions_equal_the_unbounded_store(self, bad, latency):
        # One sample per 10 ms: the longest window (60 ms) spans 6 <= N.
        rules = [
            AlertRule(name="burn", kind="burn_rate", series="bad", window_ms=60.0,
                      short_window_ms=20.0, error_budget=0.3),
            AlertRule(name="p99", kind="threshold", series="lat", fn="quantile",
                      q=0.99, threshold=80.0, window_ms=50.0, for_ms=20.0),
            AlertRule(name="avg", kind="threshold", series="lat", fn="avg",
                      threshold=60.0, window_ms=40.0),
            AlertRule(name="climb", kind="threshold", series="lat", fn="rate",
                      threshold=500.0, window_ms=30.0),
        ]
        bounded, reference = TimeSeriesStore(), _UnboundedStore()
        engines = [AlertEngine(rules, bounded), AlertEngine(rules, reference)]
        with _small_retention():
            for step, value in enumerate(bad):
                at_ms = 10.0 * step
                for store in (bounded, reference):
                    store.record("bad", at_ms, value)
                    store.record("lat", at_ms, latency[step])
                for engine in engines:
                    engine.evaluate(at_ms)
        assert bounded.sample_count() <= 2 * _SMALL_N * len(bounded)
        got, want = ([e.to_row()[:4] for e in engine.events] for engine in engines)
        assert got == want
        values = [
            [e.value for e in engine.events] for engine in engines
        ]
        assert all(_same(g, w) for g, w in zip(*values))


# -- the marker count: plain slices where a series holds no marker --------------

#: Series shapes for the differential: no markers at all (the plain-slice
#: path throughout), rare markers, and markers as likely as values.
_MARKER_SERIES = st.sampled_from([0.0, 0.05, 0.5]).flatmap(
    lambda share: st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),  # gap to the previous sample
            st.floats(0.0, 1.0),  # below ``share``: a marker
            st.integers(-50, 50),
        ).map(lambda s: (s[0], math.nan if s[1] < share else float(s[2]))),
        min_size=1,
        max_size=90,
    )
)


class TestStalenessMarkerCount:
    """``_Series.stale`` against the verbatim filtering store of
    tests/reference_tsdb.py, which never reads it. Tier-1 runs these at
    the default example count; ci.yml's ``oracles`` profile runs more."""

    @settings(deadline=None)
    @given(series=st.lists(_MARKER_SERIES, min_size=1, max_size=3),
           windows=st.lists(st.integers(1, 30), min_size=1, max_size=3))
    def test_count_is_exact_and_windows_equal_the_reference(self, series, windows):
        bounded, reference = TimeSeriesStore(), _UnboundedStore()
        with _small_retention():
            for index, samples in enumerate(series):
                name, t = f"s{index}", 0.0
                for gap, value in samples:
                    t += gap
                    bounded.record(name, t, value)
                    reference.record(name, t, value)
                    held = bounded._series[(name, ())]
                    assert held.stale == sum(1 for v in held.values if math.isnan(v))
                    for window_ms in windows:
                        times = reference._series[(name, ())].times
                        if sum(1 for when in times if when > t - window_ms) > _SMALL_N:
                            continue  # reaches past the guaranteed tail
                        got = _window_answers(bounded, name, t, float(window_ms))
                        want = _window_answers(reference, name, t, float(window_ms))
                        assert all(_same(g, w) for g, w in zip(got, want)), (got, want)

    @settings(deadline=None)
    @given(
        bad=st.lists(
            st.one_of(st.just(math.nan), st.sampled_from([0.0, 0.0, 1.0])),
            min_size=1, max_size=120,
        ),
        latency=st.lists(
            st.one_of(st.just(math.nan), st.integers(0, 100).map(float)),
            min_size=120, max_size=120,
        ),
    )
    def test_alert_transitions_with_markers_equal_the_reference(self, bad, latency):
        # One sample per 10 ms: the longest window (60 ms) spans 6 <= N.
        rules = [
            AlertRule(name="burn", kind="burn_rate", series="bad", window_ms=60.0,
                      short_window_ms=20.0, error_budget=0.3),
            AlertRule(name="p99", kind="threshold", series="lat", fn="quantile",
                      q=0.99, threshold=80.0, window_ms=50.0, for_ms=20.0),
            AlertRule(name="max", kind="threshold", series="lat", fn="max",
                      threshold=90.0, window_ms=40.0),
            AlertRule(name="min", kind="threshold", series="lat", fn="min",
                      comparator="<", threshold=5.0, window_ms=30.0),
            AlertRule(name="sum", kind="threshold", series="lat", fn="sum",
                      threshold=250.0, window_ms=40.0),
            AlertRule(name="climb", kind="threshold", series="lat", fn="rate",
                      threshold=500.0, window_ms=30.0),
            AlertRule(name="now", kind="threshold", series="lat", fn="last",
                      threshold=70.0),
            AlertRule(name="clean", kind="threshold", series="clean", fn="avg",
                      threshold=50.0, window_ms=40.0),
        ]
        bounded, reference = TimeSeriesStore(), _UnboundedStore()
        engines = [AlertEngine(rules, bounded), AlertEngine(rules, reference)]
        with _small_retention():
            for step, value in enumerate(bad):
                at_ms = 10.0 * step
                for store in (bounded, reference):
                    store.record("bad", at_ms, value)
                    store.record("lat", at_ms, latency[step])
                    store.record("clean", at_ms, float(step % 97))
                for engine in engines:
                    engine.evaluate(at_ms)
        assert bounded._series[("clean", ())].stale == 0
        got, want = ([e.to_row()[:4] for e in engine.events] for engine in engines)
        assert got == want
        values = [[e.value for e in engine.events] for engine in engines]
        assert all(_same(g, w) for g, w in zip(*values))
