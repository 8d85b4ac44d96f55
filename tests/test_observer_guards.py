"""The observer's cost, counted rather than timed: the work a scrape and a
warm refresh may not do, as call counts that hold on any machine.

* A scrape renders a sample's ``name{labels}`` text once, the first time it
  sees the sample; later scrapes of the same series render nothing.
* A warm governed dashboard refresh writes its per-job metrics through
  handles bound on first use, so it makes no registry lookup at all.
"""

from __future__ import annotations

import sys
from collections import Counter
from unittest import mock

import pytest

from repro.obs import tsdb
from repro.obs.metrics import MetricsRegistry
from repro.obs.tsdb import MetricsScraper, TimeSeriesStore
from repro.security import RowAccessPolicy
from repro.serving.workload import build_serving_platform, mixed_queries


def test_a_scrape_of_known_series_renders_no_labels():
    registry = MetricsRegistry()
    registry.counter("ops_total", "ops").inc(op="get", region="us")
    registry.gauge("depth", "depth").set(2.0, principal="a")
    registry.histogram("wait_ms", "wait").observe(3.0, engine="home")
    scraper = MetricsScraper(registry, TimeSeriesStore(), interval_ms=10.0)
    scraper.maybe_scrape(0.0)
    first = len(scraper.rows)
    registry.counter("ops_total").inc(op="get", region="us")
    registry.histogram("wait_ms").observe(700.0, engine="home")
    with mock.patch.object(
        tsdb, "_render_labels", wraps=tsdb._render_labels
    ) as render:
        assert scraper.maybe_scrape(30.0) == 3
    assert render.call_count == 0
    texts = [row[3] for row in scraper.rows]
    assert len(texts) == 4 * first and texts[-first:] == texts[:first]


@pytest.fixture(scope="module")
def warm_dashboard():
    """One governed analyst, the 17-statement dashboard served twice (the
    second time from the result cache), fleet monitor on."""
    platform, _, users = build_serving_platform(scale=0.05, analysts=1, monitor=True)
    analyst = users[0]
    lineitem = platform.catalog.get_table("tpch", "lineitem")
    lineitem.policies.add_row_policy(
        RowAccessPolicy("analysts", "l_quantity < 40", frozenset({analyst}))
    )
    queries = [sql for _, sql in mixed_queries()]

    def refresh():
        handles = [
            platform.submit(sql, analyst, use_query_cache=True) for sql in queries
        ]
        platform.drain()
        return [handle.result().rows() for handle in handles]

    refresh()
    refresh()
    return platform, refresh


def test_a_warm_governed_refresh_makes_no_registry_lookup(warm_dashboard):
    platform, refresh = warm_dashboard
    lookups: Counter = Counter()

    def counted(name):
        real = getattr(MetricsRegistry, name)

        def lookup(self, *args, **kwargs):
            caller = sys._getframe(1).f_code
            lookups[f"{caller.co_filename}:{caller.co_name}"] += 1
            return real(self, *args, **kwargs)

        return lookup

    hits_before = platform.query_cache.snapshot()["result"]["hits"]
    with mock.patch.multiple(
        MetricsRegistry,
        counter=counted("counter"),
        gauge=counted("gauge"),
        histogram=counted("histogram"),
    ):
        rows = refresh()
    assert platform.query_cache.snapshot()["result"]["hits"] == hits_before + len(rows)
    assert dict(lookups) == {}
