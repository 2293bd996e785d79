#!/usr/bin/env python3
"""Builds and runs the edsim benchmark.

    python3 edsbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 edsbench/run.py --selftest

Run from the repository root.  The library and the edsbench binary are
compiled from source (Release) into $CARGO_TARGET_DIR/edsbench, default
.bench_build/edsbench; build output goes to stderr so the JSON result
stays the last line of stdout.  With --trace 1 the spans are written to
<build dir>/traces/<workload>.json as Chrome trace-event JSON.

--selftest runs the binary's own checks (fingerprints, lane independence,
a corrupted result counted as failed), then a short run of every workload
in both modes, checking that every metric BENCHMARK.json names is printed
with its unit and that no op failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "edsbench")


def build():
    """Configures and builds edsbench; returns its path or None."""
    out = build_dir()
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "edsbench", "-j",
         str(min(os.cpu_count() or 1, 4))],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(out, "edsbench")


def run_binary(binary, args, capture=False):
    proc = subprocess.run([binary] + args, text=True,
                          stdout=subprocess.PIPE if capture else None)
    return proc.returncode, proc.stdout


def selftest(binary):
    code, _ = run_binary(binary, ["--selftest"])
    ok = code == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run_binary(
                binary, ["--workload", workload, "--seed", "1",
                         "--seconds", "1", "--trace", str(trace)],
                capture=True)
            try:
                result = json.loads(out.strip().splitlines()[-1])
            except (ValueError, IndexError):
                result = None
            problems = []
            if code != 0 or result is None:
                problems.append("no result (exit %d)" % code)
            else:
                if not result["correct"] or result["failed"] != 0:
                    problems.append("%d failed ops" % result["failed"])
                for metric in spec[key]:
                    got = result["metrics"].get(metric["name"])
                    if got is None or got.get("unit") != metric["unit"]:
                        problems.append("metric %s missing or not in %s"
                                        % (metric["name"], metric["unit"]))
            print("%s %s trace %d%s" % ("FAIL" if problems else "PASS",
                                        workload, trace,
                                        ": " + "; ".join(problems)
                                        if problems else ""))
            ok = ok and not problems
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        print("edsbench: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return selftest(binary)
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, args.workload + ".json")]
    code, _ = run_binary(binary, cmd)
    return code


if __name__ == "__main__":
    sys.exit(main())
