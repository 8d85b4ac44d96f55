"""The repo's perf ledger: four workloads, both clocks, layer by layer.

    python benchmarks/perf/run.py                      # every workload, untraced + traced
    python benchmarks/perf/run.py --workload adhoc_cold --trace 0 --seed 3
    python benchmarks/perf/run.py --trace 0 --runs 10 --json A.json
    python benchmarks/perf/run.py compare A.json B.json
    python benchmarks/perf/run.py --trace 0 --runs 10 --repeat 2
    python benchmarks/perf/run.py --smoke
    python benchmarks/perf/run.py golden               # rewrite golden.json

With one workload *and* ``--trace`` given, the run happens in this process
and the last line of stdout is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``): the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Every other invocation fans out to one
such subprocess per (workload, seed, trace), so each peak-RSS figure is the
workload's own. See README.md beside this file for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform as host_platform
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

SPEC_PATH = ROOT / "BENCHMARK.json"


def _require_checkout() -> None:
    """The program under test is this checkout's ``src/repro`` — never an
    installed copy — so a tree without it is an error, not a silent pass."""
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"error: cannot import repro from {ROOT / 'src'}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"error: repro resolved to {repro.__file__}, outside {ROOT / 'src'}")


def _load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


# -- one run, in this process -----------------------------------------------


def run_leaf(args) -> int:
    _require_checkout()
    import perf_harness
    import perf_workloads

    workload = perf_workloads.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    report = perf_harness.measure(
        workload, args.seconds, trace=bool(args.trace),
        passes=workload.smoke_passes if args.smoke else None,
    )
    spans = report.pop("spans", None)
    if args.spans and spans is not None:
        from perf_tracing import spans_as_dicts

        Path(args.spans).write_text(json.dumps(spans_as_dicts(spans)), encoding="utf-8")
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1), encoding="utf-8")

    print(f"== {report['workload']}  seed={report['seed']}  trace={report['trace']}  "
          f"passes={report['passes']}  ops={report['attempted']}  failed={report['failed']} ==")
    for key, value in report["sizes"].items():
        print(f"   {key} = {value}")
    for name, metric in report["metrics"].items():
        note = ""
        if name == "op_ms_p95":
            note = (f"   (per pass of {report['sizes']['ops_per_pass']} ops; "
                    f"{report['passes']} passes, {report['op_samples']} samples)")
        print(f"{name:<46} {metric['value']:>14.6g} {metric['unit']}{note}")
    if not report["trace"]:
        print(f"{'failed_share':<46} {report['failed'] / report['attempted']:>14.6g} ratio")
    for error in report["errors"]:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


# -- fan-out ----------------------------------------------------------------


def _environment(args) -> dict:
    import numpy

    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "python": host_platform.python_version(),
        "numpy": numpy.__version__,
        "machine": host_platform.machine(),
    }


def run_set(args, workloads: list[str], traces: list[int]) -> list[dict]:
    """One set: every (workload, seed, trace) in its own subprocess."""
    runs = []
    nproc = os.cpu_count() or 1
    with tempfile.TemporaryDirectory(prefix="perf-ledger-") as scratch:
        for workload in workloads:
            for seed in range(args.seed, args.seed + args.runs):
                for trace in traces:
                    load = os.getloadavg()[0]
                    if load > nproc:
                        print(f"warning: 1-minute load average {load:.2f} exceeds "
                              f"nproc {nproc}; wall metrics will be noisy", file=sys.stderr)
                    out = Path(scratch) / "run.json"
                    command = [
                        sys.executable, str(Path(__file__).resolve()),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(args.seconds), "--trace", str(trace),
                        "--json", str(out),
                    ] + (["--smoke"] if args.smoke else [])
                    subprocess.run(command, check=True)
                    run = json.loads(out.read_text(encoding="utf-8"))
                    run["loadavg_before"] = load
                    runs.append(run)
    return runs


def run_all(args) -> int:
    _require_checkout()
    import perf_compare
    import perf_workloads

    workloads = list(perf_workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    traces = [0, 1] if args.trace is None else [args.trace]
    sets = [run_set(args, workloads, traces) for _ in range(args.repeat)]
    failed = sum(run["failed"] for runs in sets for run in runs)
    status = 1 if failed else 0
    for index in range(1, len(sets)):
        rows = perf_compare.compare(sets[index - 1], sets[index])
        print(f"\n== set {index} vs set {index + 1} ==")
        print(perf_compare.format_rows(rows))
        if any(row["verdict"] != "ok" for row in rows):
            status = 1
    if args.json:
        document = {"env": _environment(args), "runs": sets[-1]}
        if len(sets) > 1:
            document["earlier_sets"] = sets[:-1]
        Path(args.json).write_text(json.dumps(document, indent=1), encoding="utf-8")
    if failed:
        print(f"error: {failed} failed ops or checks", file=sys.stderr)
    return status


# -- subcommands ------------------------------------------------------------


def compare_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare", description="compare two --json reports")
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    import perf_compare

    a = json.loads(Path(args.a).read_text(encoding="utf-8"))["runs"]
    b = json.loads(Path(args.b).read_text(encoding="utf-8"))["runs"]
    rows = perf_compare.compare(a, b)
    print(perf_compare.format_rows(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


def golden_main() -> int:
    _require_checkout()
    import perf_workloads

    perf_workloads.GOLDEN_PATH.write_text(
        json.dumps(perf_workloads.compute_golden(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {perf_workloads.GOLDEN_PATH}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    if argv[:1] == ["golden"]:
        return golden_main()
    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="timed wall clock per run (whole passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics; omitted: both")
    parser.add_argument("--smoke", action="store_true",
                        help="scale 0.2 and a fixed ~40 ops per workload")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload in a set, on seeds seed..seed+runs-1")
    parser.add_argument("--repeat", type=int, default=1,
                        help="sets to run back to back; non-zero exit if two disagree")
    parser.add_argument("--json", metavar="OUT", help="write the detailed report here")
    parser.add_argument("--spans", metavar="OUT", help="(single traced run) write its spans here")
    args = parser.parse_args(argv)
    if args.workload != "all" and args.trace is not None and args.runs == 1 and args.repeat == 1:
        return run_leaf(args)
    return run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
