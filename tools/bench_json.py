#!/usr/bin/env python3
"""Convert google-benchmark JSON into the BENCH_runtime.json schema, and
compare two such files for regressions.

Convert mode (default) reads `--benchmark_format=json` reports (files
given as arguments, merged in order, or stdin) and writes one record per
benchmark:

    {"name": ..., "n": ..., "rounds": ..., "ns_per_op": ...,
     "ns_per_op_min": ..., "ns_per_op_max": ..., "repetitions": ...,
     "counters": {...}}

plus a `context` block (host, date, threads; taken from the first report)
so the perf trajectory is comparable across CI runs.  A benchmark run with
`--benchmark_repetitions=R` folds its R runs into its one record:
`ns_per_op` is the median wall time per iteration in nanoseconds, and
`ns_per_op_min`/`ns_per_op_max` the spread.  `n`/`rounds` come from the
benchmark's exported counters and are null for benchmarks that don't
export them; every *other* user counter (plan_hits, ws_growths, lanes,
...) lands in `counters`, each the median over the repetitions.  The
library's own aggregate rows (mean, median, stddev) are skipped.

Compare mode diffs two converted files per benchmark and per counter, and
fails (exit 2) when the median wall time regresses beyond the threshold,
so one slow repetition cannot fail the gate and one fast one cannot hide
a regression:

    tools/bench_json.py --compare old.json new.json [--threshold 0.10]

Usage:
    bench/bench_micro_runtime --benchmark_format=json \
        --benchmark_repetitions=5 | tools/bench_json.py > BENCH_runtime.json
    tools/bench_json.py runtime.json async.json > BENCH_runtime.json
"""
import argparse
import json
import statistics
import sys

UNIT_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# google-benchmark's own per-benchmark JSON fields; everything else numeric
# is a user counter exported via state.counters.  (Benchmarks must not name
# a counter after a builtin — e.g. use `lanes`, not `threads`.)
BUILTIN_FIELDS = {
    "family_index", "per_family_instance_index", "repetition_index",
    "repetitions", "iterations", "real_time", "cpu_time", "threads",
    "time_unit",
    # Derived rate fields (SetItemsProcessed/SetBytesProcessed): pure
    # wall-clock restatements that would add a noise row to every
    # --compare report.
    "items_per_second", "bytes_per_second",
}


def convert(report: dict) -> dict:
    runs = {}  # run name -> its repetitions, in report order
    for bench in report.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        runs.setdefault(bench.get("run_name", bench["name"]), []).append(bench)
    records = []
    for name, reps in runs.items():
        times = [b["real_time"] * UNIT_TO_NS.get(b.get("time_unit", "ns"), 1.0)
                 for b in reps]
        keys = {key for bench in reps for key, value in bench.items()
                if isinstance(value, (int, float))
                and not isinstance(value, bool) and key not in BUILTIN_FIELDS}
        counters = {key: statistics.median(b[key] for b in reps if key in b)
                    for key in sorted(keys)}
        n = counters.pop("n", None)
        rounds = counters.pop("rounds", None)
        records.append({
            "name": name,
            "n": int(n) if n is not None else None,
            "rounds": int(rounds) if rounds is not None else None,
            "ns_per_op": statistics.median(times),
            "ns_per_op_min": min(times),
            "ns_per_op_max": max(times),
            "repetitions": len(reps),
            "counters": counters,
        })
    context = report.get("context", {})
    return {
        "context": {
            "date": context.get("date"),
            "host_name": context.get("host_name"),
            "num_cpus": context.get("num_cpus"),
            # How the google-benchmark *library* was built, NOT this
            # project's CMAKE_BUILD_TYPE (distro packages often say
            # "debug" here even under a Release project build).
            "benchmark_library_build_type": context.get("library_build_type"),
            # "ON" when the bench binary was compiled with EDS_NATIVE
            # (-march=native).  Injected by bench_micro_runtime's main via
            # AddCustomContext; snapshots predating the field are portable
            # builds, so a missing key reads as "OFF" in --compare.
            "eds_native": context.get("eds_native", "OFF"),
        },
        "benchmarks": records,
    }


def _fmt_delta(old, new):
    if old in (None, 0) or new is None:
        return "n/a"
    return f"{(new - old) / old * 100.0:+.1f}%"


def compare(old_path: str, new_path: str, threshold: float) -> int:
    """Prints a markdown table of per-benchmark/per-counter deltas; returns
    2 when any benchmark's ns_per_op regressed by more than `threshold`.

    Wall-time across different hardware is not comparable, so the gate is
    only authoritative when both files were produced on the same CPU count
    (the cheapest context signal that survives CI's anonymized hostnames);
    otherwise regressions are reported but the exit code stays 0, and the
    gate becomes blocking once the committed snapshot is regenerated on
    hardware matching the runner's.  The same demotion applies when the two
    files disagree on the eds_native codegen flavor (-march=native vs
    portable; snapshots without the field count as portable): those numbers
    differ by design, not by regression."""
    with open(old_path) as f:
        old_report = json.load(f)
    with open(new_path) as f:
        new_report = json.load(f)
    old = {b["name"]: b for b in old_report["benchmarks"]}
    new = {b["name"]: b for b in new_report["benchmarks"]}
    old_ctx = old_report.get("context") or {}
    new_ctx = new_report.get("context") or {}
    old_cpus = old_ctx.get("num_cpus")
    new_cpus = new_ctx.get("num_cpus")
    old_native = old_ctx.get("eds_native") or "OFF"
    new_native = new_ctx.get("eds_native") or "OFF"
    cpus_match = old_cpus is not None and old_cpus == new_cpus
    native_match = old_native == new_native
    comparable = cpus_match and native_match

    regressions = []
    print(f"## Benchmark comparison (threshold {threshold * 100:.0f}%)")
    print()
    if not cpus_match:
        print(f"**Baseline is from different hardware "
              f"(num_cpus {old_cpus} vs {new_cpus}): wall-time deltas are "
              f"informational, not gating.**")
        print()
    if not native_match:
        print(f"**Codegen flavors differ (eds_native {old_native} vs "
              f"{new_native}): wall-time deltas are informational, not "
              f"gating.**")
        print()
    print("| benchmark | old ns/op | new ns/op | delta | counter deltas |")
    print("|---|---:|---:|---:|---|")
    for name in sorted(set(old) | set(new)):
        if name not in new:
            print(f"| {name} | {old[name]['ns_per_op']:.0f} | removed | | |")
            continue
        if name not in old:
            print(f"| {name} | new | {new[name]['ns_per_op']:.0f} | | |")
            continue
        o, n = old[name], new[name]
        delta = _fmt_delta(o["ns_per_op"], n["ns_per_op"])
        if o["ns_per_op"] > 0 and \
                n["ns_per_op"] > o["ns_per_op"] * (1.0 + threshold):
            delta += " REGRESSION"
            regressions.append(name)
        counter_bits = []
        old_counters = dict(o.get("counters") or {})
        for key in ("n", "rounds"):
            if o.get(key) is not None:
                old_counters[key] = o[key]
        new_counters = dict(n.get("counters") or {})
        for key in ("n", "rounds"):
            if n.get(key) is not None:
                new_counters[key] = n[key]
        for key in sorted(set(old_counters) | set(new_counters)):
            ov, nv = old_counters.get(key), new_counters.get(key)
            if ov == nv:
                continue
            # Wall-time counters (the engine's profiled round_ns) jitter
            # on every run; listing them would put a noise row in every
            # comparison.  They stay in the converted records —
            # read them from the artifacts — but the delta column tracks
            # only shape/count counters.
            if key.endswith("_ns"):
                continue
            counter_bits.append(f"{key}: {ov} -> {nv} ({_fmt_delta(ov, nv)})")
        print(f"| {name} | {o['ns_per_op']:.0f} | {n['ns_per_op']:.0f} "
              f"| {delta} | {'; '.join(counter_bits)} |")
    print()
    if regressions:
        print(f"**{len(regressions)} regression(s) beyond "
              f"{threshold * 100:.0f}%:** {', '.join(regressions)}")
        return 2 if comparable else 0
    print("No wall-time regressions beyond the threshold.")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="BENCH_runtime.json converter / comparator")
    parser.add_argument("inputs", nargs="*",
                        help="google-benchmark JSON reports, merged in "
                             "order (default: stdin)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="diff two converted BENCH_runtime.json files")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative ns_per_op regression gate "
                             "(default 0.10 = 10%%)")
    args = parser.parse_args()

    if args.compare:
        return compare(args.compare[0], args.compare[1], args.threshold)

    if args.inputs:
        reports = []
        for path in args.inputs:
            with open(path) as f:
                reports.append(json.load(f))
    else:
        reports = [json.load(sys.stdin)]
    merged = convert(reports[0])
    for report in reports[1:]:
        merged["benchmarks"] += convert(report)["benchmarks"]
    json.dump(merged, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
