"""E18-WC — wall-clock speed pass: vectorized hot path + query caches.

Unlike E1–E17, which report *simulated* milliseconds from the cost model,
this bench also times real wall-clock seconds (``time.perf_counter``) —
the thing PR 10's vectorization and caches actually buy. Three parts:

* **Suite cold/warm, caches on/off** — the TPC-H-lite and TPC-DS-lite
  power runs, two passes each, once with ``use_query_cache=False`` and
  once with ``True`` (fresh platform per configuration). Reports wall and
  simulated ms per pass. The warm pass with the result cache must beat
  the cache-off repeat pass by >= 2x wall clock, and every per-query
  result CRC must be identical across configurations and passes — the
  caches never change answers.
* **CRC identity under chaos** — first-pass CRCs with the cache on must
  equal cache-off CRCs under seeded fault injection too (the plan cache
  is on by default in both, so this also pins its byte-invisibility).
* **Decode/join/row-boundary microbench** — the vectorized PLAIN decoder
  and hash-join match enumeration against their ``*_naive`` reference
  oracles (``tests/reference_encodings.py`` / ``reference_operators.py``), and the
  row view + drain digest (``iter_rows``, ``rows_crc``) against the
  per-element ``Column.__getitem__`` walk they replaced, on identical
  inputs: the cache-off speedup numbers.

Recorded in ``BENCH_PR10.json`` under ``e18_wc``. Also runnable directly
(``python benchmarks/bench_e18_wallclock.py --smoke --json OUT``) as the
CI wall-clock smoke.
"""

import argparse
import sys
import time
import zlib
from pathlib import Path

_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

import numpy as np

from repro.bench import (
    build_tpcds_platform,
    build_tpch_platform,
    format_table,
    record_bench,
)
from repro.data import Column, DataType, DictionaryColumn, RecordBatch, Schema
from repro.engine.operators import _hash_join_indices, _join_key_codes
from repro.errors import ReproError
from repro.faults import FaultPlan
from repro.formats import encodings
from repro.storageapi.streams import rows_crc

from tests.reference_encodings import decode_plain_naive
from tests.reference_operators import _hash_join_indices_naive

CHAOS_SEEDS = (7, 1234)
CHAOS_RATE = 0.05


def _crc(rows) -> int:
    return zlib.crc32(repr(rows).encode("utf-8"))


def _suite_pass(engine, queries, admin, use_query_cache):
    """One sequential pass; wall + simulated ms, per-query CRCs, hits."""
    crcs = {}
    sim_ms = 0.0
    hits = 0
    wall0 = time.perf_counter()
    for name, sql in queries.items():
        try:
            result = engine.execute(sql, admin, use_query_cache=use_query_cache)
        except ReproError as exc:
            crcs[name] = f"failed:{type(exc).__name__}"
            continue
        sim_ms += result.stats.elapsed_ms
        crcs[name] = _crc(result.rows())
        hits += int(result.stats.cache_hit)
    wall_ms = (time.perf_counter() - wall0) * 1000.0
    return {"wall_ms": wall_ms, "sim_ms": sim_ms, "crcs": crcs, "cache_hits": hits}


def _run_config(build, scale, use_query_cache, passes=2, seed=None, rate=0.0):
    """``passes`` suite passes on one fresh platform (optionally chaotic)."""
    platform, admin, engine, queries = build(scale=scale)
    if seed is not None:
        platform.ctx.faults.install(FaultPlan.uniform(rate, seed=seed))
    return [_suite_pass(engine, queries, admin, use_query_cache) for _ in range(passes)]


def _time_best(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1000.0


def _mixed_batch(n_rows):
    """Sixteen columns of every dtype, a null every few rows, two of them
    dictionary-encoded — what a wide governed scan hands its consumer."""
    makers = {
        DataType.INT64: lambda i: i * 7919 - n_rows,
        DataType.FLOAT64: lambda i: round(i * 1.37, 2),  # money-like: two decimals
        DataType.BOOL: lambda i: i % 3 == 0,
        DataType.STRING: lambda i: f"key-{i % 4096:04d}",
        DataType.BYTES: lambda i: b"blob-%d" % (i % 512),
        DataType.TIMESTAMP: lambda i: 1_600_000_000_000_000 + i * 1_000_003,
        DataType.DATE: lambda i: 9000 + i % 3650,
    }
    dtypes = (list(makers) * 3)[:16]
    columns = []
    for j, dtype in enumerate(dtypes):
        make, gap = makers[dtype], 5 + j
        columns.append(Column.from_pylist(
            dtype, [None if i % gap == 0 else make(i) for i in range(n_rows)]))
    for j in (3, 6):  # STRING (4096 distinct) and DATE (3650 distinct)
        columns[j] = DictionaryColumn.encode(columns[j])
    schema = Schema.of(*[(f"c{j:02d}", dtype) for j, dtype in enumerate(dtypes)])
    return RecordBatch(schema, columns)


def _row_boundary(n_rows):
    """Row view + drain digest: the ``to_pylist`` kernel vs one
    ``Column.__getitem__`` per value (wall ms, identical output first)."""
    batch = _mixed_batch(n_rows)
    width = len(batch.schema)

    def vectorized():
        return list(batch.iter_rows()), rows_crc([batch])

    def values_per_element():
        return [
            [col[i] for i in range(n_rows)]
            for col in (batch.column_at(j) for j in range(width))
        ]

    def per_element():
        # The two calls as they were: each walks every column by index.
        lists = values_per_element()
        rows = [tuple(values[i] for values in lists) for i in range(n_rows)]
        digest = 0
        for row in sorted(repr(values) for values in zip(*values_per_element())):
            digest = zlib.crc32(row.encode("utf-8"), digest)
        return rows, digest

    got, want = vectorized(), per_element()
    identical = got == want and all(
        type(a) is type(b) for g, w in zip(got[0], want[0]) for a, b in zip(g, w))
    vec_ms = _time_best(vectorized)
    naive_ms = _time_best(per_element)
    return {
        "row_boundary_columns": width,
        "row_boundary_identical": identical,
        "row_boundary_vectorized_ms": round(vec_ms, 3),
        "row_boundary_naive_ms": round(naive_ms, 3),
        "row_boundary_speedup": round(naive_ms / max(vec_ms, 1e-9), 3),
    }


def _microbench(n_rows):
    """Vectorized decode/join/row view vs their per-element references
    (wall ms)."""
    ints = Column.from_pylist(
        DataType.INT64, [(i * 37) % 9973 for i in range(n_rows)]
    )
    strs = Column.from_pylist(
        DataType.STRING, [f"key-{i % 4096:04d}" for i in range(n_rows)]
    )
    enc_int = encodings.encode_plain(ints)
    enc_str = encodings.encode_plain(strs)

    decode_vec = _time_best(
        lambda: (
            encodings.decode_plain(DataType.INT64, enc_int),
            encodings.decode_plain(DataType.STRING, enc_str),
        )
    )
    decode_naive = _time_best(
        lambda: (
            decode_plain_naive(DataType.INT64, enc_int),
            decode_plain_naive(DataType.STRING, enc_str),
        )
    )

    build_col = Column.from_pylist(
        DataType.INT64, [i % (n_rows // 8) for i in range(n_rows // 4)]
    )
    probe_col = Column.from_pylist(
        DataType.INT64, [(i * 3) % (n_rows // 8) for i in range(n_rows)]
    )
    build_valid = np.ones(len(build_col), dtype=bool)
    probe_valid = np.ones(len(probe_col), dtype=bool)

    def join_vec():
        codes = _join_key_codes([build_col], [probe_col], len(build_col))
        return _hash_join_indices(codes[0], codes[1], build_valid, probe_valid)

    def join_naive():
        return _hash_join_indices_naive(
            [build_col], [probe_col], build_valid, probe_valid
        )

    # The two paths must enumerate identical matches before we time them.
    vec_p, vec_b = join_vec()
    naive_p, naive_b = join_naive()
    assert np.array_equal(vec_p, naive_p) and np.array_equal(vec_b, naive_b)

    join_vec_ms = _time_best(join_vec)
    join_naive_ms = _time_best(join_naive)
    return {
        "rows": n_rows,
        "decode_vectorized_ms": round(decode_vec, 3),
        "decode_naive_ms": round(decode_naive, 3),
        "decode_speedup": round(decode_naive / max(decode_vec, 1e-9), 3),
        "join_vectorized_ms": round(join_vec_ms, 3),
        "join_naive_ms": round(join_naive_ms, 3),
        "join_speedup": round(join_naive_ms / max(join_vec_ms, 1e-9), 3),
        **_row_boundary(n_rows),
    }


def run_wallclock(smoke=False):
    suites = (
        [("tpch", build_tpch_platform, 0.05), ("tpcds", build_tpcds_platform, 0.1)]
        if smoke
        else [("tpch", build_tpch_platform, 0.3), ("tpcds", build_tpcds_platform, 0.3)]
    )
    report = {"suites": {}, "chaos": {}, "crc_identity_ok": True, "checks": []}

    def check(ok, message):
        if not ok:
            report["crc_identity_ok"] = False
            report["checks"].append(message)

    table_rows = []
    for name, build, scale in suites:
        off = _run_config(build, scale, use_query_cache=False)
        on = _run_config(build, scale, use_query_cache=True)
        check(
            on[0]["crcs"] == off[0]["crcs"],
            f"{name}: cache-on cold CRCs differ from cache-off",
        )
        # Repeat passes are NOT compared to first passes cache-off: the
        # metadata-cache refresh between passes can reorder the scan, and
        # float SUMs are not associative (pre-existing, cache-independent).
        # The result cache, by contrast, must reproduce its cold pass
        # exactly — it serves the stored batches.
        check(
            on[1]["crcs"] == on[0]["crcs"],
            f"{name}: warm (cached) CRCs differ from the cold pass",
        )
        check(
            on[1]["cache_hits"] == len(on[1]["crcs"]),
            f"{name}: warm pass was not served entirely from the result cache",
        )
        speedup = off[1]["wall_ms"] / max(on[1]["wall_ms"], 1e-9)
        report["suites"][name] = {
            "scale": scale,
            "cache_off": [
                {"wall_ms": round(p["wall_ms"], 3), "sim_ms": round(p["sim_ms"], 3)}
                for p in off
            ],
            "cache_on": [
                {"wall_ms": round(p["wall_ms"], 3), "sim_ms": round(p["sim_ms"], 3)}
                for p in on
            ],
            "warm_cache_hits": on[1]["cache_hits"],
            "queries": len(on[1]["crcs"]),
            "wall_speedup_warm": round(speedup, 3),
        }
        for label, passes in (("cache off", off), ("cache on", on)):
            for i, p in enumerate(passes):
                table_rows.append(
                    (
                        name,
                        label,
                        f"pass {i + 1}",
                        round(p["wall_ms"], 2),
                        round(p["sim_ms"], 2),
                        p["cache_hits"],
                    )
                )

    # CRC identity under seeded chaos: the result cache stores nothing on
    # a cold pass and the plan cache is byte-invisible, so first-pass CRCs
    # must match cache-off exactly, faults and all.
    for seed in CHAOS_SEEDS:
        off = _run_config(
            build_tpch_platform, suites[0][2], False, passes=1,
            seed=seed, rate=CHAOS_RATE,
        )
        on = _run_config(
            build_tpch_platform, suites[0][2], True, passes=1,
            seed=seed, rate=CHAOS_RATE,
        )
        identical = on[0]["crcs"] == off[0]["crcs"]
        check(identical, f"chaos seed {seed}: cache-on CRCs differ from cache-off")
        report["chaos"][str(seed)] = {"rate": CHAOS_RATE, "crc_identical": identical}

    report["micro"] = _microbench(20_000 if smoke else 120_000)
    return report, table_rows


def _print_report(report, table_rows):
    print(
        format_table(
            "E18-WC — suite passes, wall vs simulated ms",
            ["suite", "config", "pass", "wall ms", "sim ms", "hits"],
            table_rows,
        )
    )
    micro = report["micro"]
    print(
        format_table(
            f"E18-WC — decode/join/row-boundary microbench ({micro['rows']:,} rows, wall ms)",
            ["hot path", "naive", "vectorized", "speedup"],
            [
                (
                    "PLAIN decode (int64+string)",
                    micro["decode_naive_ms"],
                    micro["decode_vectorized_ms"],
                    f"{micro['decode_speedup']:.1f}x",
                ),
                (
                    "hash-join match enumeration",
                    micro["join_naive_ms"],
                    micro["join_vectorized_ms"],
                    f"{micro['join_speedup']:.1f}x",
                ),
                (
                    f"row boundary (iter_rows + rows_crc, {micro['row_boundary_columns']} cols)",
                    micro["row_boundary_naive_ms"],
                    micro["row_boundary_vectorized_ms"],
                    f"{micro['row_boundary_speedup']:.1f}x",
                ),
            ],
        )
    )
    for name, suite in report["suites"].items():
        print(
            f"{name}: warm result-cache pass {suite['wall_speedup_warm']:.1f}x "
            f"faster (wall clock) than the cache-off repeat pass "
            f"({suite['warm_cache_hits']}/{suite['queries']} served from cache)"
        )
    chaos_ok = all(leg["crc_identical"] for leg in report["chaos"].values())
    print(
        f"CRC identity: plain={'OK' if report['crc_identity_ok'] else 'FAILED'} "
        f"chaos({','.join(report['chaos'])})={'OK' if chaos_ok else 'FAILED'}"
    )
    for message in report["checks"]:
        print(f"error: {message}", file=sys.stderr)


def _assert_acceptance(report):
    assert report["crc_identity_ok"], report["checks"]
    for name, suite in report["suites"].items():
        assert suite["wall_speedup_warm"] >= 2.0, (
            f"{name}: warm wall-clock speedup {suite['wall_speedup_warm']:.2f}x "
            "below 2x"
        )
    micro = report["micro"]
    assert micro["decode_speedup"] > 1.0, micro
    assert micro["join_speedup"] > 1.0, micro
    assert micro["row_boundary_identical"], "row boundary: rows or digest differ"
    # Measured 3.6-4.2x at 20k and 120k rows: repr + sort + CRC, which the
    # digest still owes on both sides, is over half of the vectorized side.
    assert micro["row_boundary_speedup"] >= 3.0, (
        f"row boundary speedup {micro['row_boundary_speedup']:.2f}x below 3x"
    )


def test_e18_wc_wallclock(benchmark):
    report, table_rows = benchmark.pedantic(
        lambda: run_wallclock(smoke=False), rounds=1, iterations=1
    )
    _print_report(report, table_rows)
    record_bench(
        "e18_wc",
        title="Wall-clock speed pass: vectorized hot path + query caches (PR 10)",
        **{k: report[k] for k in ("suites", "chaos", "micro", "crc_identity_ok")},
    )
    _assert_acceptance(report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="small fast variant")
    parser.add_argument("--json", metavar="OUT.json", dest="json_path")
    args = parser.parse_args(argv)
    report, table_rows = run_wallclock(smoke=args.smoke)
    _print_report(report, table_rows)
    if args.json_path:
        import json

        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wallclock report written to {args.json_path}")
    try:
        _assert_acceptance(report)
    except AssertionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
