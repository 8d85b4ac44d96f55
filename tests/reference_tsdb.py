"""The time-series store as it was before it counted staleness markers:
no retention trim, and every window function filters its window for NaN
markers on every call. ``_window_values`` and the window functions are
kept verbatim; a sample is appended straight onto the series lists, so
nothing here reads or keeps the marker count.

Not collected by pytest (no ``test_`` prefix); the oracle of
tests/test_obs_tsdb.py.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Any

from repro.obs.metrics import _label_key
from repro.obs.tsdb import TimeSeriesStore, _is_stale, _Series


class UnboundedStore(TimeSeriesStore):
    """The reference: the same store with the trim and the count taken out."""

    def record(self, name, t_ms, value, **labels):
        series = self._series.setdefault((name, _label_key(labels)), _Series())
        series.times.append(t_ms)
        series.values.append(float(value))

    def _window_values(
        self, name: str, labels: dict[str, Any], at_ms: float, window_ms: float
    ) -> list[float]:
        series = self._series.get((name, _label_key(labels)))
        if series is None:
            return []
        lo = bisect_right(series.times, at_ms - window_ms)
        hi = bisect_right(series.times, at_ms)
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
