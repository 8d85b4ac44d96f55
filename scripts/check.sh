#!/usr/bin/env bash
# Repo gate: lint (when ruff is available) + the tier-1 test suite + the
# chaos determinism gate (same seed, two processes, identical outcomes) +
# the data-cache coherence gate (warm == cold rows, hit ratio > 0, and the
# report is byte-identical across processes) + the scheduler determinism
# gate (same seed, two processes, byte-identical task timelines) + the
# serve determinism gate (same seed, two processes, byte-identical
# multi-principal reports, plain and under chaos) + the monitor
# determinism gate (same seed, two processes, byte-identical telemetry
# reports — RESERVATION_TIMELINE tie-out, alert log, variance table —
# plain and under chaos) + the transaction determinism gate (same seed,
# two processes, byte-identical chaos-workload reports — commit timeline,
# recovery actions, torn-state oracle — plain and under chaos) + the
# readsession determinism gate (same seed, two processes, byte-identical
# session-handoff reports — scaling/rebalance legs, row CRCs, consumer
# timelines — plain and under chaos) + the query-cache coherence gate
# (warm result-cache hit is byte-identical to the cold run with zero scan
# and strictly fewer GETs and parses no statement and clones no plan, DML
# invalidates by keying without flushing, and the walkthrough is
# byte-identical across processes).
# Usage: scripts/check.sh  (from the repo root)
set -euo pipefail

cd "$(dirname "$0")/.."

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests
else
    echo "== ruff not installed; skipping lint =="
fi

echo "== pytest (tier 1) =="
PYTHONPATH=src python -m pytest -x -q

echo "== data-cache coherence gate =="
# The CLI itself exits non-zero if the warm rows differ from the cold run
# or no bytes were served from cache; diffing two runs pins determinism.
cache_a="$(mktemp)" cache_b="$(mktemp)"
trap 'rm -f "$cache_a" "$cache_b"' EXIT
PYTHONPATH=src python -m repro cache-stats > "$cache_a"
PYTHONPATH=src python -m repro cache-stats > "$cache_b"
if diff -u "$cache_a" "$cache_b"; then
    echo "cache-stats run is deterministic"
else
    echo "cache determinism gate FAILED: two runs produced different stats" >&2
    exit 1
fi

echo "== query-cache coherence gate =="
# The CLI itself exits non-zero if the warm hit's rows differ from the
# cold run, the hit scans any bytes, fails to save GETs, parses a
# statement or clones a plan, or DML serves a stale entry / flushes the
# tier; diffing two runs pins determinism.
qc_a="$(mktemp)" qc_b="$(mktemp)"
trap 'rm -f "$cache_a" "$cache_b" "$qc_a" "$qc_b"' EXIT
PYTHONPATH=src python -m repro querycache > "$qc_a"
PYTHONPATH=src python -m repro querycache > "$qc_b"
if diff -u "$qc_a" "$qc_b"; then
    echo "querycache run is deterministic"
else
    echo "query-cache coherence gate FAILED: two runs produced different reports" >&2
    exit 1
fi

echo "== chaos determinism gate =="
chaos_a="$(mktemp)" chaos_b="$(mktemp)"
trap 'rm -f "$cache_a" "$cache_b" "$qc_a" "$qc_b" "$chaos_a" "$chaos_b"' EXIT
PYTHONPATH=src python -m repro chaos --suite --seed 1234 --rate 0.05 \
    --json "$chaos_a" >/dev/null
PYTHONPATH=src python -m repro chaos --suite --seed 1234 --rate 0.05 \
    --json "$chaos_b" >/dev/null
if diff -u "$chaos_a" "$chaos_b"; then
    echo "chaos run is deterministic"
else
    echo "chaos determinism gate FAILED: same seed produced different runs" >&2
    exit 1
fi

echo "== scheduler determinism gate =="
# The CLI itself exits non-zero if speculation changes any row or makes
# the query slower; diffing two same-seed reports pins the task timeline
# (slot placement, straggler draws, backup launches) byte-for-byte.
sched_a="$(mktemp)" sched_b="$(mktemp)"
trap 'rm -f "$cache_a" "$cache_b" "$qc_a" "$qc_b" "$chaos_a" "$chaos_b" "$sched_a" "$sched_b"' EXIT
PYTHONPATH=src python -m repro schedule --seed 1234 --json "$sched_a" >/dev/null
PYTHONPATH=src python -m repro schedule --seed 1234 --json "$sched_b" >/dev/null
if diff -u "$sched_a" "$sched_b"; then
    echo "schedule run is deterministic"
else
    echo "scheduler determinism gate FAILED: same seed produced different timelines" >&2
    exit 1
fi

echo "== serve determinism gate =="
# The CLI itself exits non-zero if the in-memory job handles disagree
# with INFORMATION_SCHEMA.JOBS; diffing two same-seed reports pins the
# whole multi-principal run (arrivals, admission order, queue waits,
# result CRCs) byte-for-byte — with and without the chaos plan.
serve_a="$(mktemp)" serve_b="$(mktemp)" serve_ca="$(mktemp)" serve_cb="$(mktemp)"
trap 'rm -f "$cache_a" "$cache_b" "$qc_a" "$qc_b" "$chaos_a" "$chaos_b" "$sched_a" "$sched_b" \
    "$serve_a" "$serve_b" "$serve_ca" "$serve_cb"' EXIT
PYTHONPATH=src python -m repro serve --smoke --seed 1234 --json "$serve_a" >/dev/null
PYTHONPATH=src python -m repro serve --smoke --seed 1234 --json "$serve_b" >/dev/null
if diff -u "$serve_a" "$serve_b"; then
    echo "serve run is deterministic"
else
    echo "serve determinism gate FAILED: same seed produced different reports" >&2
    exit 1
fi
PYTHONPATH=src python -m repro serve --smoke --chaos --seed 1234 --json "$serve_ca" >/dev/null
PYTHONPATH=src python -m repro serve --smoke --chaos --seed 1234 --json "$serve_cb" >/dev/null
if diff -u "$serve_ca" "$serve_cb"; then
    echo "serve run under chaos is deterministic"
else
    echo "serve chaos determinism gate FAILED: same seed produced different reports" >&2
    exit 1
fi

echo "== monitor determinism gate =="
# The CLI itself exits non-zero if the RESERVATION_TIMELINE tie-out
# breaks or a chaos run fires no burn-rate alert; diffing two same-seed
# reports pins the whole telemetry pipeline (scrape grid, reservation
# intervals, alert transitions, variance attribution) byte-for-byte —
# with and without the chaos plan.
mon_a="$(mktemp)" mon_b="$(mktemp)" mon_ca="$(mktemp)" mon_cb="$(mktemp)"
trap 'rm -f "$cache_a" "$cache_b" "$qc_a" "$qc_b" "$chaos_a" "$chaos_b" "$sched_a" "$sched_b" \
    "$serve_a" "$serve_b" "$serve_ca" "$serve_cb" \
    "$mon_a" "$mon_b" "$mon_ca" "$mon_cb"' EXIT
PYTHONPATH=src python -m repro monitor --smoke --seed 1234 --json "$mon_a" >/dev/null
PYTHONPATH=src python -m repro monitor --smoke --seed 1234 --json "$mon_b" >/dev/null
if diff -u "$mon_a" "$mon_b"; then
    echo "monitor run is deterministic"
else
    echo "monitor determinism gate FAILED: same seed produced different reports" >&2
    exit 1
fi
PYTHONPATH=src python -m repro monitor --smoke --chaos --seed 1234 --json "$mon_ca" >/dev/null
PYTHONPATH=src python -m repro monitor --smoke --chaos --seed 1234 --json "$mon_cb" >/dev/null
if diff -u "$mon_ca" "$mon_cb"; then
    echo "monitor run under chaos is deterministic"
else
    echo "monitor chaos determinism gate FAILED: same seed produced different reports" >&2
    exit 1
fi

echo "== transaction determinism gate =="
# The CLI itself exits non-zero if the chaos oracle sees a torn state, a
# dangling intent survives recovery, or any transaction fails to land;
# diffing two same-seed reports pins the whole run (writer interleaving,
# conflict losers, crash points, recovery actions, commit timeline)
# byte-for-byte — with and without the chaos plan.
txn_a="$(mktemp)" txn_b="$(mktemp)" txn_ca="$(mktemp)" txn_cb="$(mktemp)"
trap 'rm -f "$cache_a" "$cache_b" "$qc_a" "$qc_b" "$chaos_a" "$chaos_b" "$sched_a" "$sched_b" \
    "$serve_a" "$serve_b" "$serve_ca" "$serve_cb" \
    "$mon_a" "$mon_b" "$mon_ca" "$mon_cb" \
    "$txn_a" "$txn_b" "$txn_ca" "$txn_cb"' EXIT
PYTHONPATH=src python -m repro txn --smoke --seed 1234 --json "$txn_a" >/dev/null
PYTHONPATH=src python -m repro txn --smoke --seed 1234 --json "$txn_b" >/dev/null
if diff -u "$txn_a" "$txn_b"; then
    echo "txn run is deterministic"
else
    echo "txn determinism gate FAILED: same seed produced different reports" >&2
    exit 1
fi
PYTHONPATH=src python -m repro txn --smoke --chaos --seed 1234 --json "$txn_ca" >/dev/null
PYTHONPATH=src python -m repro txn --smoke --chaos --seed 1234 --json "$txn_cb" >/dev/null
if diff -u "$txn_ca" "$txn_cb"; then
    echo "txn run under chaos is deterministic"
else
    echo "txn chaos determinism gate FAILED: same seed produced different reports" >&2
    exit 1
fi

echo "== readsession determinism gate =="
# The CLI itself exits non-zero if rebalancing changes any returned row
# (CRC mismatch) or fails to recover lag-induced makespan inflation;
# diffing two same-seed reports pins the whole handoff run (stream
# layout, consumer timelines, rebalance moves, row CRCs) byte-for-byte —
# with and without the chaos plan.
rs_a="$(mktemp)" rs_b="$(mktemp)" rs_ca="$(mktemp)" rs_cb="$(mktemp)"
trap 'rm -f "$cache_a" "$cache_b" "$qc_a" "$qc_b" "$chaos_a" "$chaos_b" "$sched_a" "$sched_b" \
    "$serve_a" "$serve_b" "$serve_ca" "$serve_cb" \
    "$mon_a" "$mon_b" "$mon_ca" "$mon_cb" \
    "$txn_a" "$txn_b" "$txn_ca" "$txn_cb" \
    "$rs_a" "$rs_b" "$rs_ca" "$rs_cb"' EXIT
PYTHONPATH=src python -m repro readsession --smoke --seed 1234 --json "$rs_a" >/dev/null
PYTHONPATH=src python -m repro readsession --smoke --seed 1234 --json "$rs_b" >/dev/null
if diff -u "$rs_a" "$rs_b"; then
    echo "readsession run is deterministic"
else
    echo "readsession determinism gate FAILED: same seed produced different reports" >&2
    exit 1
fi
PYTHONPATH=src python -m repro readsession --smoke --chaos --seed 1234 --json "$rs_ca" >/dev/null
PYTHONPATH=src python -m repro readsession --smoke --chaos --seed 1234 --json "$rs_cb" >/dev/null
if diff -u "$rs_ca" "$rs_cb"; then
    echo "readsession run under chaos is deterministic"
else
    echo "readsession chaos determinism gate FAILED: same seed produced different reports" >&2
    exit 1
fi
