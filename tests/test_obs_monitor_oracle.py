"""The observer's bound write path against the one it replaced.

``tests/reference_monitor.py`` keeps the write path as it was before series
handles: label keys re-derived from keyword labels on every write, every
sample re-rendered on every scrape, dict-labelled drain events appended
through ``record()``, and a linear bucket scan. Hypothesis drives both
sides with the same registries — counters, gauges and histograms with
custom buckets, label sets that appear and are ``remove()``d, NaN and ±inf
values, scrapes across retention trims — and the same settled batches, and
after every step requires equal series points, ``METRICS_HISTORY`` rows,
histogram counts, sums and quantiles, ``render()`` and ``snapshot()`` text,
reservation rows and alert transitions.

The handles stay valid only because neither the registry nor the store
ever drops an entry; :class:`TestNothingIsDeleted` pins that.
"""

from __future__ import annotations

import ast
import inspect
import math
import textwrap
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.engine.scheduler import TaskRun
from repro.obs import metrics as metrics_module
from repro.obs import tsdb
from repro.obs.metrics import Histogram, MetricHandles, MetricsRegistry
from repro.obs.monitor import FleetMonitor, MonitorConfig
from repro.obs.tsdb import MetricsScraper, TimeSeriesStore
from repro.serving.pool import JobVerdict
from repro.simtime import SimContext

from tests.reference_monitor import (
    ReferenceMonitor,
    ReferenceRegistry,
    ReferenceScraper,
    ReferenceStore,
)

# Raw label tuples as a call site passes them: unsorted, empty, and values
# the text format must escape.
LABELS = st.sampled_from(
    [
        (),
        (("principal", "a"),),
        (("principal", 'q"\\\nz'),),
        (("tier", "x"), ("op", "get")),
        (("op", "put"), ("tier", "x")),
    ]
)
SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])
# Bucket bounds and values share a grid (the default buckets' 2.5 and 5.0
# among them), so an observation often lands exactly on a bound.
GRID = st.integers(-8, 8).map(lambda x: x * 2.5)
VALUES = st.one_of(st.floats(-1e6, 1e6), SPECIAL, GRID)
INCREMENTS = st.one_of(st.floats(0, 1e6), st.sampled_from([math.nan, math.inf]))
BUCKETS = st.one_of(
    st.none(),
    st.lists(GRID, min_size=1, max_size=5, unique=True).map(lambda b: tuple(sorted(b))),
)

OPS = st.one_of(
    st.tuples(st.just("inc"), st.integers(0, 1), LABELS, INCREMENTS, st.booleans()),
    st.tuples(st.just("set"), st.integers(0, 1), LABELS, VALUES, st.booleans()),
    st.tuples(st.just("add"), st.integers(0, 1), LABELS, VALUES, st.booleans()),
    st.tuples(st.just("remove"), st.integers(0, 1), LABELS, st.just(0.0), st.booleans()),
    st.tuples(st.just("observe"), st.integers(0, 1), LABELS, VALUES, st.booleans()),
    st.tuples(st.just("scrape"), st.integers(0, 3), st.just(()), st.just(0.0), st.just(False)),
)


class _Side:
    """One registry + store + scraper; ``handles`` writes through
    :class:`MetricHandles` when the op says so (the bound path), else
    through keyword labels."""

    def __init__(self, registry, store, scraper_cls, buckets) -> None:
        self.registry = registry
        self.store = store
        self.scraper = scraper_cls(registry, store, interval_ms=1.0)
        self.handles = MetricHandles(registry)
        self.buckets = buckets
        self.now = 0.0

    def apply(self, op) -> None:
        kind, i, labels, value, bound = op
        if kind == "scrape":
            self.now += i
            self.scraper.maybe_scrape(self.now)
            return
        if kind == "inc":
            name = f"c{i}"
            if bound:
                self.handles.counter(name, "a counter", labels).inc(value)
            else:
                self.registry.counter(name, "a counter").inc(value, **dict(labels))
        elif kind == "observe":
            name = f"h{i}"
            self.registry.histogram(name, "a histogram", self.buckets[i])
            if bound:
                self.handles.histogram(name, "a histogram", labels).observe(value)
            else:
                self.registry.histogram(name).observe(value, **dict(labels))
        else:
            name = f"g{i}"
            if bound:
                gauge = self.handles.gauge(name, "a gauge", labels)
                if kind == "set":
                    gauge.set(value)
                elif kind == "add":
                    gauge.inc(value)
                else:
                    gauge.remove()
            else:
                gauge = self.registry.gauge(name, "a gauge")
                if kind == "set":
                    gauge.set(value, **dict(labels))
                elif kind == "add":
                    gauge.inc(value, **dict(labels))
                else:
                    gauge.remove(**dict(labels))


def _series(store) -> str:
    return repr(
        sorted(
            (key, list(zip(s.times, s.values)), s.stale)
            for key, s in store._series.items()
        )
    )


def _histograms(registry) -> str:
    out = []
    for name in registry.names():
        metric = registry.get(name)
        if not isinstance(metric, Histogram):
            continue
        for key in sorted(metric._totals):
            labels = dict(key)
            out.append(
                (
                    name, key, metric.count(**labels), metric.sum(**labels),
                    [metric.quantile(q, **labels) for q in (0.0, 0.25, 0.5, 0.99, 1.0)],
                )
            )
    return repr(out)


def _state(side: _Side) -> tuple[str, ...]:
    return (
        side.registry.render(),
        repr(side.registry.snapshot()),
        _histograms(side.registry),
        repr(side.scraper.history_rows()),
        _series(side.store),
    )


class TestScrapesAndWrites:
    @settings(deadline=None)
    @given(
        buckets=st.tuples(BUCKETS, BUCKETS),
        ops=st.lists(OPS, max_size=40),
    )
    def test_every_step_equals_the_reference(self, buckets, ops):
        # Three-sample retention: a few scrapes already trim a series.
        with mock.patch.object(tsdb, "RETENTION_SAMPLES", 3):
            new = _Side(MetricsRegistry(), TimeSeriesStore(), MetricsScraper, buckets)
            old = _Side(ReferenceRegistry(), ReferenceStore(), ReferenceScraper, buckets)
            for op in ops + [("scrape", 1, (), 0.0, False)]:
                new.apply(op)
                old.apply(op)
                assert _state(new) == _state(old)


# -- the drain observation -----------------------------------------------------

quarters = st.integers(0, 2000).map(lambda q: q / 4)
# Coarse offsets, so jobs of one batch often settle at the same instant.
steps = st.integers(0, 6).map(lambda q: q * 25.0)


@st.composite
def entries(draw):
    out = []
    for key in range(draw(st.integers(1, 6))):
        arrival = draw(steps)
        admitted = draw(st.booleans())
        admitted_ms = arrival + draw(steps)
        end_ms = admitted_ms + draw(steps)
        runs = []
        for task in range(draw(st.integers(0, 3)) if admitted else 0):
            start = draw(st.integers(0, 40).map(lambda q: q / 4))
            end = start + draw(st.integers(0, 40).map(lambda q: q / 4))
            stage = draw(st.sampled_from(["scan", "compute"]))
            runs.append(TaskRun(stage, task, task, start, end, end - start))
        verdict = JobVerdict(
            key=key, principal="", state="done", arrival_ms=arrival,
            admitted_ms=admitted_ms, end_ms=end_ms, admitted=admitted, runs=runs,
        )
        out.append(
            {
                "principal": draw(st.sampled_from(["alice", "bob", "carol"])),
                "verdict": verdict,
                "retried": draw(st.booleans()),
                "degraded": draw(st.booleans()),
                "cache_bypass": draw(st.booleans()),
            }
        )
    return out


def _monitor_state(monitor) -> tuple[str, ...]:
    return (
        _series(monitor.store),
        repr(monitor.reservation_rows()),
        repr(monitor.alert_rows()),
        repr(monitor.metrics_history_rows()),
        monitor.ctx.metrics.render(),
    )


class TestDrainObservation:
    @settings(deadline=None)
    @given(
        batches=st.lists(
            st.tuples(quarters, entries(), st.integers(1, 4), quarters), max_size=5
        ),
        weights=st.dictionaries(
            st.sampled_from(["alice", "bob"]), st.sampled_from([0.5, 1.0, 3.0])
        ),
    )
    def test_every_batch_equals_the_reference(self, batches, weights):
        config = MonitorConfig(enabled=True)
        new = FleetMonitor(SimContext(), config)
        old = ReferenceMonitor(SimContext(metrics=ReferenceRegistry()), config)
        for anchor, batch, slots, advance in batches:
            for monitor in (new, old):
                monitor.observe_batch(anchor, batch, slots=slots, weights=weights)
                monitor.ctx.clock.advance(advance)
                monitor.tick()
            assert _monitor_state(new) == _monitor_state(old)


# -- why the handles stay valid ------------------------------------------------


def _deletes(cls, attr: str) -> list[str]:
    """Methods of ``cls`` that delete from, clear, pop or rebind
    ``self.<attr>`` (rebinding allowed in ``__init__`` only)."""
    found = []
    for name, fn in inspect.getmembers(cls, inspect.isfunction):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        for node in ast.walk(tree):
            target = None
            if isinstance(node, ast.Delete):
                target = node.targets[0]
                target = target.value if isinstance(target, ast.Subscript) else target
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in ("pop", "popitem", "clear"):
                    target = node.func.value
            elif isinstance(node, (ast.Assign, ast.AugAssign)) and name != "__init__":
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                target = next(
                    (t for t in targets if isinstance(t, ast.Attribute)), None
                )
            if (
                isinstance(target, ast.Attribute)
                and target.attr == attr
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                found.append(name)
    return found


class TestNothingIsDeleted:
    """:class:`~repro.obs.tsdb.MetricsScraper` keeps a store series handle
    per sample, :class:`~repro.obs.metrics.MetricHandles` a metric per name.
    A delete added to either owner must come with an invalidation of those
    memos — and an update of this test."""

    def test_the_store_never_drops_a_series(self):
        assert _deletes(TimeSeriesStore, "_series") == []

    def test_the_registry_never_drops_a_metric(self):
        assert _deletes(MetricsRegistry, "_metrics") == []

    def test_a_metric_never_rebinds_its_series_dicts(self):
        for cls in (metrics_module.Counter, metrics_module.Gauge):
            assert _deletes(cls, "_values") in ([], ["remove"])
        for attr in ("_counts", "_sums", "_totals"):
            assert _deletes(Histogram, attr) == []

    def test_the_check_sees_a_delete(self):
        class Forgetful(TimeSeriesStore):
            def forget(self, name):
                self._series.pop((name, ()), None)

        assert _deletes(Forgetful, "_series") == ["forget"]
