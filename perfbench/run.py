#!/usr/bin/env python3
"""Build the program and run one benchmark workload.

    python3 perfbench/run.py --workload fleet_predict --seed 1 --seconds 12 --trace 0

Run from the repository root. The first run configures and compiles the
program and the harness into .bench_build/ (a few minutes); later runs only
re-check the build. The harness's human-readable report goes to stdout and
its last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end set; with --trace 1 the run
records spans around every call into the program and reports the per-layer
set instead (the span trace is written to .bench_build/traces/).

Every untraced result is appended to .bench_build/results.jsonl; a traced
run prints how far its end-to-end figures sit from the untraced medians
recorded there (the tracing overhead).
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def log(*parts):
    print("[perfbench]", *parts, file=sys.stderr, flush=True)


def build(root):
    src = os.path.join(root, "perfbench")
    out = os.path.join(root, BUILD_DIR, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", src, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "ld_perfbench", "-j", jobs]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log("build step failed:", " ".join(cmd))
            return None
    return os.path.join(out, "ld_perfbench")


def last_json_line(text):
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    return None


def report_trace_overhead(results_path, workload, traced):
    try:
        with open(results_path) as f:
            rows = [json.loads(line) for line in f if line.strip()]
    except OSError:
        rows = []
    rows = [r for r in rows if r.get("workload") == workload]
    if not rows:
        print("tracing overhead: no untraced runs of %s recorded yet" % workload)
        return
    for name, traced_value in sorted(traced.items()):
        base = [r["metrics"][name]["value"] for r in rows if name in r["metrics"]]
        if not base:
            continue
        median = statistics.median(base)
        value = traced_value["value"]
        if median:
            print("tracing overhead %-18s traced %.6g vs untraced median %.6g (%+.1f%%, %d runs)"
                  % (name, value, median, 100.0 * (value - median) / median, len(base)))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    binary = build(root)
    if binary is None:
        return 2

    work = os.path.join(root, BUILD_DIR, "work", str(os.getpid()))
    traces = os.path.join(root, BUILD_DIR, "traces")
    os.makedirs(traces, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work,
           "--trace-out", os.path.join(traces, "%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        log("harness exceeded %ds" % RUN_TIMEOUT_S)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").splitlines()
    result = last_json_line(proc.stdout) if proc.returncode == 0 else None
    if result is None:
        sys.stdout.write("\n".join(lines) + "\n")
        log("harness failed with exit code %d" % proc.returncode)
        return proc.returncode or 4

    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    results_path = os.path.join(root, BUILD_DIR, "results.jsonl")
    if args.trace:
        traced_e2e = result.pop("traced_end_to_end", {})
        report_trace_overhead(results_path, args.workload, traced_e2e)
    else:
        with open(results_path, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "metrics": result["metrics"]}) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
