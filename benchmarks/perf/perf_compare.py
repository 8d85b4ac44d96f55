"""Compare two sets of runs, metric by metric, against the fixed bounds.

A set is the ``runs`` list of a ``--json`` report: several untraced runs
per workload, each on another seed. Per (workload, end-to-end metric) the
comparison prints both medians, their ratio with its base, the bound from
``BENCHMARK.json`` and a verdict:

``ok``          B's median is not worse than A's by more than the bound;
``regressed``   it is, and the runs resolve it;
``unresolved``  the spread between runs of one side (quartile distance as a
                share of the median) is wider than the bound, so the medians
                cannot settle it — unless every run of one side beats every
                run of the other.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_bounds() -> dict[str, tuple[str, float]]:
    """metric -> (better, bound) for every end-to-end metric."""
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def spread(values: list[float]) -> float | None:
    """Quartile distance as a share of the median (None below two runs)."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else None


def by_metric(runs: list[dict]) -> dict[tuple[str, str], list[float]]:
    grouped: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        if run["trace"]:
            continue
        for name, metric in run["metrics"].items():
            grouped.setdefault((run["workload"], name), []).append(metric["value"])
    return grouped


def compare(a_runs: list[dict], b_runs: list[dict]) -> list[dict]:
    bounds = load_bounds()
    a_values, b_values = by_metric(a_runs), by_metric(b_runs)
    rows = []
    for key in sorted(a_values.keys() & b_values.keys()):
        workload, metric = key
        better, bound = bounds[metric]
        a, b = a_values[key], b_values[key]
        a_median, b_median = statistics.median(a), statistics.median(b)
        sign = 1.0 if better == "lower" else -1.0
        worse_by = sign * (b_median - a_median) / a_median
        spreads = [s for s in (spread(a), spread(b)) if s is not None]
        noisy = bool(spreads) and max(spreads) > bound
        if better == "lower":
            b_always_better, b_always_worse = max(b) < min(a), min(b) > max(a)
        else:
            b_always_better, b_always_worse = min(b) > max(a), max(b) < min(a)
        if worse_by > bound:
            verdict = "unresolved" if noisy and not b_always_worse else "regressed"
        else:
            verdict = "unresolved" if noisy and not b_always_better else "ok"
        rows.append({
            "workload": workload, "metric": metric,
            "a_median": a_median, "b_median": b_median,
            "ratio": b_median / a_median, "bound": bound,
            "spread": max(spreads) if spreads else None,
            "runs": (len(a), len(b)), "verdict": verdict,
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<18} {'metric':<14} {'A median':>12} {'B median':>12} "
        f"{'B/A':>7} {'bound':>6} {'spread':>7}  verdict"
    ]
    for row in rows:
        spread_text = "n/a" if row["spread"] is None else f"{row['spread']:.3f}"
        lines.append(
            f"{row['workload']:<18} {row['metric']:<14} {row['a_median']:>12.4f} "
            f"{row['b_median']:>12.4f} {row['ratio']:>7.3f} {row['bound']:>6.2f} "
            f"{spread_text:>7}  {row['verdict']}"
        )
    return "\n".join(lines)
