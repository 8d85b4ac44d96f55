#!/usr/bin/env bash
# Repo gate: lint (when ruff is available) + the tier-1 test suite + the
# determinism gates: every `twice` row below runs one CLI report in two
# processes (same seed where it takes one) and requires the two reports
# to be byte-identical — plain and, for the serving-era commands, under
# the chaos plan. What each CLI already checks by itself (and exits
# non-zero on) is noted above its rows.
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

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# twice <subject> <failure message> <command…>: run the command twice and
# diff the two reports. A "{}" argument is replaced by the report's path
# and stdout is discarded; without one, stdout is the report.
twice() {
    local subject="$1" failure="$2" run
    shift 2
    echo "== $subject =="
    for run in a b; do
        if [[ " $* " == *" {} "* ]]; then
            "${@/#\{\}/$tmp/$run}" >/dev/null
        else
            "$@" >"$tmp/$run"
        fi
    done
    diff -u "$tmp/a" "$tmp/b" || { echo "$failure" >&2; exit 1; }
    echo "$subject is deterministic"
}
repro() { PYTHONPATH=src python -m repro "$@"; }
same="same seed produced different reports"

# Data-cache coherence: the CLI itself exits non-zero if the warm rows
# differ from the cold run or no bytes were served from cache.
twice "cache-stats run" "cache determinism gate FAILED: two runs produced different stats" \
    repro cache-stats
# Query-cache coherence: the CLI itself exits non-zero if the warm hit's
# rows differ from the cold run, the hit scans any bytes, fails to save
# GETs or parses a statement, or DML serves a stale entry / flushes the
# tier.
twice "querycache run" "query-cache coherence gate FAILED: two runs produced different reports" \
    repro querycache
# Chaos: same seed, two processes, identical retries/degradations per job.
twice "chaos run" "chaos determinism gate FAILED: same seed produced different runs" \
    repro chaos --suite --seed 1234 --rate 0.05 --json {}
# Scheduler: the CLI itself exits non-zero if speculation changes any row
# or makes the query slower; the diff pins the task timeline (slot
# placement, straggler draws, backup launches) byte-for-byte.
twice "schedule run" "scheduler determinism gate FAILED: same seed produced different timelines" \
    repro schedule --seed 1234 --json {}
# Serve: the CLI itself exits non-zero if INFORMATION_SCHEMA.JOBS returns
# anything but what the job records hold; the diff pins the whole
# multi-principal run (arrivals, admission order, queue waits, result
# CRCs) byte-for-byte — with and without the chaos plan.
twice "serve run" "serve determinism gate FAILED: $same" \
    repro serve --smoke --seed 1234 --json {}
twice "serve run under chaos" "serve chaos determinism gate FAILED: $same" \
    repro serve --smoke --chaos --seed 1234 --json {}
# Monitor: the CLI itself exits non-zero if the RESERVATION_TIMELINE
# tie-out breaks or a chaos run fires no burn-rate alert; the diff pins
# the whole telemetry pipeline (scrape grid, reservation intervals, alert
# transitions, variance attribution) byte-for-byte — with and without
# the chaos plan.
twice "monitor run" "monitor determinism gate FAILED: $same" \
    repro monitor --smoke --seed 1234 --json {}
twice "monitor run under chaos" "monitor chaos determinism gate FAILED: $same" \
    repro monitor --smoke --chaos --seed 1234 --json {}
# Transactions: the CLI itself exits non-zero if the chaos oracle sees a
# torn state, a dangling intent survives recovery, or any transaction
# fails to land; the diff pins the whole run (writer interleaving,
# conflict losers, crash points, recovery actions, commit timeline)
# byte-for-byte — with and without the chaos plan.
twice "txn run" "txn determinism gate FAILED: $same" \
    repro txn --smoke --seed 1234 --json {}
twice "txn run under chaos" "txn chaos determinism gate FAILED: $same" \
    repro txn --smoke --chaos --seed 1234 --json {}
# Read sessions: the CLI itself exits non-zero if rebalancing changes any
# returned row (CRC mismatch) or fails to recover lag-induced makespan
# inflation; the diff pins the whole handoff run (stream layout, consumer
# timelines, rebalance moves, row CRCs) byte-for-byte — with and without
# the chaos plan.
twice "readsession run" "readsession determinism gate FAILED: $same" \
    repro readsession --smoke --seed 1234 --json {}
twice "readsession run under chaos" "readsession chaos determinism gate FAILED: $same" \
    repro readsession --smoke --chaos --seed 1234 --json {}

# The figure ROADMAP item 8 tracks (CHANGES.md quotes it from here).
echo "== src/ + scripts/ lines: $(find src scripts -type f \( -name '*.py' -o -name '*.sh' \) -print0 | xargs -0 cat | wc -l) =="
