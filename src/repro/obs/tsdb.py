"""Sim-time time-series store + metrics scraper (the fleet TSDB).

``INFORMATION_SCHEMA.METRICS`` answers "what is the counter *now*"; this
module answers "what was it *over time*". A :class:`TimeSeriesStore`
keeps the newest ``(t_ms, value)`` points per ``(name, labels)`` series
on the simulated clock (a fixed per-series retention, so a long-lived
monitored platform does not grow with the jobs it has served), with the
Prometheus-shaped window functions the SLO engine
(:mod:`repro.obs.alerts`) evaluates: ``rate()``, ``avg_over_time()``,
``quantile_over_time()`` and friends.

A :class:`MetricsScraper` populates the store from the platform's
:class:`~repro.obs.metrics.MetricsRegistry` on a fixed interval grid:
``maybe_scrape(now_ms)`` is called from the serving layer at submit and
drain points, and catches up every elapsed grid instant — so scrape
timestamps are multiples of the interval regardless of call sites, and a
seeded run produces a byte-identical scrape history.

Staleness: a label series that was present in one scrape and absent from
the next (a :meth:`~repro.obs.metrics.Gauge.remove`-d gauge series) gets
one ``NaN`` *staleness marker* sample, exactly like Prometheus. Window
functions skip markers; ``last()`` returns NaN when the newest sample in
range is a marker — a vanished series never ghosts its final value
forward through ``METRICS_HISTORY``.

Everything here only *reads* the registry and the clock: enabling
scraping can never change query results, fault draws, or job records
(the observer-effect-zero property pinned in tests).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
from typing import TYPE_CHECKING, Any, Iterable

from repro.obs.metrics import LabelKey, _label_key, _render_labels

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry


def _is_stale(value: float) -> bool:
    return isinstance(value, float) and math.isnan(value)


#: Per-series retention, in samples: a series always holds its newest
#: ``RETENTION_SAMPLES`` and never more than twice that. The longest stock
#: alert window (1600 ms, :func:`repro.obs.monitor.default_alert_rules`) on
#: the default 100 ms scrape grid spans 16 samples of a scraped series, and
#: a per-job event series would need more than 64 jobs settling per 100 ms
#: of serving timeline, window-long, before a 1600 ms window reaches past
#: the tail. Not a :class:`~repro.obs.monitor.MonitorConfig` knob: like the
#: METRICS_HISTORY and RESERVATION_TIMELINE rings, the store is bounded.
RETENTION_SAMPLES = 1024


class _Series:
    """One series: parallel (sorted) time and value arrays holding the
    newest samples. Trimming is amortised — at ``2 * RETENTION_SAMPLES`` the
    older half is dropped — so the arrays stay plain lists ``bisect`` can
    window over and an append stays O(1). ``stale`` counts the staleness
    markers the arrays hold, exactly, so a window over a series with none
    can skip looking for them."""

    __slots__ = ("times", "values", "stale")

    def __init__(self) -> None:
        self.times: list[float] = []
        self.values: list[float] = []
        self.stale = 0

    def append(self, t_ms: float, value: float) -> None:
        if self.times and t_ms < self.times[-1]:
            raise ValueError(
                f"time-series samples must be appended in time order "
                f"(got {t_ms} after {self.times[-1]})"
            )
        if len(self.times) >= 2 * RETENTION_SAMPLES:
            if self.stale:
                self.stale -= sum(
                    1 for v in self.values[:RETENTION_SAMPLES] if _is_stale(v)
                )
            del self.times[:RETENTION_SAMPLES]
            del self.values[:RETENTION_SAMPLES]
        value = float(value)
        if value != value:  # NaN: a staleness marker
            self.stale += 1
        self.times.append(t_ms)
        self.values.append(value)


class TimeSeriesStore:
    """Sim-time series keyed by ``(metric name, labels)``, appended in time
    order and bounded per series (:data:`RETENTION_SAMPLES`).

    Window queries take an evaluation instant ``at_ms`` and a
    ``window_ms`` and operate over the half-open lookback ``(at_ms -
    window_ms, at_ms]`` — Prometheus range-vector semantics. Staleness
    markers (NaN samples) are excluded from every aggregate. Every read —
    window functions, :meth:`last`, :meth:`points`, :meth:`sample_count` —
    sees the retained tail of a series: a window that spans no more than
    ``RETENTION_SAMPLES`` samples is answered exactly as an unbounded store
    would, a longer one from the newest samples it still holds.
    """

    def __init__(self) -> None:
        self._series: dict[tuple[str, LabelKey], _Series] = {}

    # -- writes -------------------------------------------------------------

    def record(self, name: str, t_ms: float, value: float, **labels: Any) -> None:
        self.series(name, _label_key(labels)).append(t_ms, value)

    def series(self, name: str, key: LabelKey) -> _Series:
        """The series of ``(name, key)`` — created here, so take it only to
        append to it. Writers that append to one series over and over keep
        the handle: the store never deletes a series, so a handle stays the
        series for the store's life (tests/test_obs_monitor_oracle.py pins
        that no method deletes one)."""
        series = self._series.get((name, key))
        if series is None:
            series = self._series[name, key] = _Series()
        return series

    def record_stale(self, name: str, t_ms: float, **labels: Any) -> None:
        """Append a staleness marker: the series stopped existing here."""
        self.record(name, t_ms, math.nan, **labels)

    # -- introspection ------------------------------------------------------

    def series_names(self) -> list[str]:
        return sorted({name for name, _ in self._series})

    def points(self, name: str, **labels: Any) -> list[tuple[float, float]]:
        series = self._series.get((name, _label_key(labels)))
        if series is None:
            return []
        return list(zip(series.times, series.values))

    def __len__(self) -> int:
        return len(self._series)

    def sample_count(self) -> int:
        return sum(len(s.times) for s in self._series.values())

    # -- window queries ------------------------------------------------------

    def _window_values(
        self, name: str, labels: dict[str, Any], at_ms: float, window_ms: float
    ) -> list[float]:
        series = self._series.get((name, _label_key(labels)))
        if series is None:
            return []
        lo = bisect_right(series.times, at_ms - window_ms)
        hi = bisect_right(series.times, at_ms)
        if not series.stale:  # no marker anywhere in the series
            return series.values[lo:hi]
        return [v for v in series.values[lo:hi] if not _is_stale(v)]

    def avg_over_time(
        self, name: str, at_ms: float, window_ms: float, **labels: Any
    ) -> float:
        values = self._window_values(name, labels, at_ms, window_ms)
        return sum(values) / len(values) if values else math.nan

    def sum_over_time(
        self, name: str, at_ms: float, window_ms: float, **labels: Any
    ) -> float:
        values = self._window_values(name, labels, at_ms, window_ms)
        return sum(values) if values else math.nan

    def max_over_time(
        self, name: str, at_ms: float, window_ms: float, **labels: Any
    ) -> float:
        values = self._window_values(name, labels, at_ms, window_ms)
        return max(values) if values else math.nan

    def min_over_time(
        self, name: str, at_ms: float, window_ms: float, **labels: Any
    ) -> float:
        values = self._window_values(name, labels, at_ms, window_ms)
        return min(values) if values else math.nan

    def count_over_time(
        self, name: str, at_ms: float, window_ms: float, **labels: Any
    ) -> int:
        return len(self._window_values(name, labels, at_ms, window_ms))

    def quantile_over_time(
        self, name: str, q: float, at_ms: float, window_ms: float, **labels: Any
    ) -> float:
        """Nearest-rank quantile of the raw samples in the window (the
        same convention as :func:`repro.engine.scheduler.duration_quantile`)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1] (got {q})")
        values = sorted(self._window_values(name, labels, at_ms, window_ms))
        if not values:
            return math.nan
        rank = max(0, min(len(values) - 1, math.ceil(q * len(values)) - 1))
        return values[rank]

    def last(self, name: str, at_ms: float, **labels: Any) -> float:
        """The newest sample at or before ``at_ms``. NaN when the series
        has no samples yet — or when the newest one is a staleness marker
        (the series is dead; its old value must not ghost forward)."""
        series = self._series.get((name, _label_key(labels)))
        if series is None:
            return math.nan
        hi = bisect_right(series.times, at_ms)
        if hi == 0:
            return math.nan
        return series.values[hi - 1]

    def rate(
        self, name: str, at_ms: float, window_ms: float, **labels: Any
    ) -> float:
        """Per-second increase of a (monotone) counter series over the
        window: ``(last - first) / window_s``. Our counters never reset,
        so no reset detection is needed; fewer than two live samples in
        the window yields 0.0 (no observable increase)."""
        values = self._window_values(name, labels, at_ms, window_ms)
        if len(values) < 2 or window_ms <= 0:
            return 0.0
        return (values[-1] - values[0]) / (window_ms / 1000.0)


class MetricsScraper:
    """Periodically snapshot a :class:`MetricsRegistry` into the store.

    Scrapes land on the fixed grid ``0, interval_ms, 2*interval_ms, ...``
    of the sim clock: :meth:`maybe_scrape` catches up every grid instant
    ``<= now_ms`` in one pass, so *when* the caller checks does not move
    the scrape timestamps (only which clock state they observe — and the
    serving layer checks at deterministic points). Each scrape also
    appends ``METRICS_HISTORY`` rows ``(scrape_ms, metric, kind, sample,
    value, stale)`` into a bounded ring.
    """

    def __init__(
        self,
        registry: "MetricsRegistry",
        store: TimeSeriesStore,
        interval_ms: float = 100.0,
        history_rows: int = 50_000,
    ) -> None:
        if interval_ms <= 0:
            raise ValueError(f"scrape interval must be positive (got {interval_ms})")
        self.registry = registry
        self.store = store
        self.interval_ms = interval_ms
        self.rows: deque[tuple] = deque(maxlen=history_rows)
        self.scrape_count = 0
        self._next_ms = 0.0
        # (sample_name, labels) -> kind, as of the previous scrape; used
        # to emit staleness markers for series that vanish.
        self._live: dict[tuple[str, LabelKey], str] = {}
        # (sample_name, labels) -> (store series, rendered sample text), built
        # the first time a scrape sees the sample. Both stay right for the
        # scraper's life: the text is a function of the pair, and neither
        # the registry nor the store deletes an entry.
        self._bound: dict[tuple[str, LabelKey], tuple[_Series, str]] = {}

    def maybe_scrape(self, now_ms: float) -> int:
        """Scrape every due grid instant ``<= now_ms``; returns how many
        scrapes ran. Pure reader: never touches the clock or any RNG."""
        ran = 0
        while self._next_ms <= now_ms:
            self._scrape(self._next_ms)
            self._next_ms += self.interval_ms
            ran += 1
        return ran

    def _handle(self, sample: tuple[str, LabelKey]) -> tuple[_Series, str]:
        bound = self._bound.get(sample)
        if bound is None:
            # A histogram bucket's key ends in its ``le`` label: the store
            # keys the series on the sorted labels, the text keeps the order.
            name, key = sample
            bound = self._bound[sample] = (
                self.store.series(name, _label_key(dict(key))),
                f"{name}{_render_labels(key)}",
            )
        return bound

    def _scrape(self, t_ms: float) -> None:
        self.scrape_count += 1
        seen: dict[tuple[str, LabelKey], str] = {}
        rows = self.rows
        for metric_name in self.registry.names():
            metric = self.registry.get(metric_name)
            kind = metric.kind
            for sample_name, key, value in metric.samples():
                sample = (sample_name, key)
                seen[sample] = kind
                series, text = self._handle(sample)
                series.append(t_ms, value)
                rows.append((t_ms, metric_name, kind, text, float(value), False))
        for sample, kind in self._live.items():
            if sample in seen:
                continue
            # The series existed last scrape and is gone now: one
            # staleness marker, then it drops out of the scrape entirely.
            series, text = self._handle(sample)
            series.append(t_ms, math.nan)
            rows.append((t_ms, sample[0], kind, text, math.nan, True))
        self._live = seen

    def history_rows(self) -> Iterable[tuple]:
        return list(self.rows)
