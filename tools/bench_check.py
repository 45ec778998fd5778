#!/usr/bin/env python3
"""Gate benchmark regressions against the committed baseline.

Usage:
  # refresh the committed baseline from a fresh perf_micro run
  ./build/bench/perf_micro --benchmark_format=json > /tmp/perf.json
  tools/bench_check.py --current /tmp/perf.json --regen

  # check a run against the baseline (exit 1 on any >25% regression)
  ./build/bench/perf_micro --benchmark_format=json --benchmark_repetitions=5 > /tmp/perf.json
  tools/bench_check.py --current /tmp/perf.json

The baseline (bench/BENCH_baseline.json) stores per-benchmark real_time
(wall clock) in nanoseconds. A run with --benchmark_repetitions=N has N
iteration rows per benchmark; each benchmark's time is the median of its
rows (one row is its own median), so one noisy repetition cannot fail the
gate. Wall time, not the main thread's cpu_time, because the GEMM benches
above kParallelMinFlops hand row panels to ThreadPool workers whose CPU time
the main thread never sees. Absolute times only transfer between identical
machines, so CI passes --normalize BM_Gemm/32: every time is divided by that benchmark's time
in the *same* run, and the gate compares the resulting machine-free ratios.
The budget is deliberately loose (25%) — this catches "the packed GEMM lost
its packing" or "the disabled fault point grew a lock", not 2% noise.

Fleet mode (--fleet) gates the serve_replay --connect curve instead:
  ./build/bench/serve_replay --connect --bench-out /tmp/fleet.json
  tools/bench_check.py --fleet --current /tmp/fleet.json [--regen]
Both files are the {"fleet": [...]} JSON that --bench-out writes
(bench/BENCH_fleet.json is the committed baseline). The gate is shape-based:
each point's p50 is divided by the same run's first-point p50, and that
machine-free degradation ratio must stay within the budget of the baseline's.
Any shed request is a hard failure — the curve must be measured below the
shed threshold or it measures the shed path, not the serving path.

Fleet mode also gates registration cost within the same run: every point's
reg_p99_us (exact p99 of per-publish wall time over that sweep segment, so
the point at N workloads measures publishes into an ~N-occupancy shard) must
stay within REG_P99_FACTOR x the first point's. This is the sub-linear
publish gate from DESIGN.md §16 — the pre-persistent-map registry copied the
whole shard per publish and failed it by ~two orders of magnitude. It needs
no baseline: both ends of the ratio come from the same machine and run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

DEFAULT_BASELINE = os.path.join(os.path.dirname(__file__), "..", "bench", "BENCH_baseline.json")
DEFAULT_FLEET_BASELINE = os.path.join(os.path.dirname(__file__), "..", "bench", "BENCH_fleet.json")

# Publish p99 at the deepest fleet point vs the first (ISSUE 10 acceptance:
# 10k-occupancy <= 8x 100-occupancy). The floor keeps a sub-microsecond first
# point from turning scheduler jitter into a failure.
REG_P99_FACTOR = 8.0
REG_P99_FLOOR_US = 5.0


def load_fleet(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        points = json.load(fh).get("fleet", [])
    if not points:
        sys.exit(f"error: no fleet points found in {path}")
    return points


def check_registration(points: list[dict]) -> int:
    """Within-run sub-linear publish gate over the reg_p99_us curve."""
    curve = [(int(p["workloads"]), float(p["reg_p99_us"])) for p in points
             if "reg_p99_us" in p]
    if len(curve) < 2:
        print("warn: no reg_p99_us registration curve in this run "
              "(old serve_replay?) — skipping the publish-cost gate")
        return 0
    anchor_n, anchor_p99 = curve[0]
    budget = REG_P99_FACTOR * max(anchor_p99, REG_P99_FLOOR_US)
    failures = 0
    for n, p99 in curve[1:]:
        status = "FAIL" if p99 > budget else "ok"
        print(f"[{status:>4}] {n} workloads: publish p99 {p99:.1f}us "
              f"({p99 / max(anchor_p99, REG_P99_FLOOR_US):.2f}x the "
              f"{anchor_n}-occupancy p99 {anchor_p99:.1f}us)")
        failures += status == "FAIL"
    if failures:
        print(f"error: publish p99 grew beyond {REG_P99_FACTOR:.0f}x the "
              f"{anchor_n}-occupancy anchor at {failures} point(s) — "
              "registration cost is no longer sub-linear in shard occupancy")
        return 1
    return 0


def check_fleet(args: argparse.Namespace) -> int:
    current = load_fleet(args.current)
    shed = sum(int(p.get("shed", 0)) for p in current)
    if shed > 0:
        print(f"error: {shed} requests shed during the fleet run — the curve "
              "must be measured below the shed threshold")
        return 1
    if check_registration(current) != 0:
        return 1
    if args.regen:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump({"fleet": current}, fh, indent=2)
            fh.write("\n")
        print(f"[regen] wrote {len(current)} fleet points to {args.baseline}")
        return 0

    baseline = {int(p["workloads"]): p for p in load_fleet(args.baseline)}
    cur_anchor = float(current[0]["p50_us"])
    base_points = sorted(baseline)
    base_anchor = float(baseline[base_points[0]]["p50_us"])
    failures, missing = [], []
    for point in current:
        n = int(point["workloads"])
        if n not in baseline:
            print(f"[ new] {n} workloads: not in baseline (run --regen to adopt)")
            continue
        cur_ratio = float(point["p50_us"]) / cur_anchor
        base_ratio = float(baseline[n]["p50_us"]) / base_anchor
        degradation = cur_ratio / base_ratio if base_ratio > 0 else float("inf")
        status = "FAIL" if degradation > 1.0 + args.budget else "ok"
        print(f"[{status:>4}] {n} workloads: p50 shape {cur_ratio:.2f}x vs "
              f"baseline {base_ratio:.2f}x ({degradation:.2f}x, "
              f"p99 {float(point['p99_us']):.0f}us)")
        if status == "FAIL":
            failures.append(n)
    seen = {int(p["workloads"]) for p in current}
    missing = [n for n in base_points if n not in seen]
    if missing:
        print(f"error: baseline fleet points missing from run: "
              f"{', '.join(str(n) for n in missing)}")
        return 1
    if failures:
        print(f"error: fleet p50 shape degraded beyond the {args.budget:.0%} "
              f"budget at {len(failures)} point(s)")
        return 1
    print(f"bench_check: fleet curve within the {args.budget:.0%} budget, 0 shed")
    return 0


def load_run(path: str) -> dict[str, float]:
    """Map benchmark name -> median real_time (ns) over its repetition rows
    in google-benchmark JSON output."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    runs: dict[str, list[float]] = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue  # skip mean/median/stddev aggregate rows
        # google-benchmark reports in the unit the bench requested; fold to ns.
        unit = bench.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
        name = bench.get("run_name", bench["name"])
        runs.setdefault(name, []).append(float(bench["real_time"]) * scale)
    if not runs:
        sys.exit(f"error: no benchmarks found in {path}")
    return {name: statistics.median(times) for name, times in runs.items()}


def normalize(times: dict[str, float], anchor: str) -> dict[str, float]:
    if anchor not in times:
        sys.exit(f"error: normalization anchor '{anchor}' missing from run")
    base = times[anchor]
    return {name: t / base for name, t in times.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--current", required=True, help="perf_micro --benchmark_format=json output")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE)
    parser.add_argument("--budget", type=float, default=0.25,
                        help="allowed relative slowdown (default 0.25 = 25%%)")
    parser.add_argument("--normalize", metavar="NAME", default=None,
                        help="divide all times by this benchmark's time in the same run "
                             "(makes the check machine-portable)")
    parser.add_argument("--regen", action="store_true",
                        help="rewrite the baseline from --current instead of checking")
    parser.add_argument("--fleet", action="store_true",
                        help="gate a serve_replay --connect --bench-out curve "
                             "instead of perf_micro output")
    args = parser.parse_args()

    if args.fleet:
        if args.baseline == DEFAULT_BASELINE:
            args.baseline = DEFAULT_FLEET_BASELINE
        if args.budget == 0.25:
            args.budget = 0.50  # client-observed TCP latency is noisier
        return check_fleet(args)

    current = load_run(args.current)
    if args.regen:
        payload = {
            "_comment": "real_time in ns per benchmark; regen via tools/bench_check.py --regen",
            "benchmarks": {name: current[name] for name in sorted(current)},
        }
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"[regen] wrote {len(current)} benchmarks to {args.baseline}")
        return 0

    with open(args.baseline, encoding="utf-8") as fh:
        baseline = {k: float(v) for k, v in json.load(fh)["benchmarks"].items()}
    if args.normalize:
        current = normalize(current, args.normalize)
        baseline = normalize(baseline, args.normalize)

    failures, missing = [], []
    for name, base in sorted(baseline.items()):
        if name == args.normalize:
            continue
        if name not in current:
            missing.append(name)
            continue
        ratio = current[name] / base if base > 0 else float("inf")
        status = "FAIL" if ratio > 1.0 + args.budget else "ok"
        print(f"[{status:>4}] {name}: {ratio:6.2f}x baseline")
        if status == "FAIL":
            failures.append((name, ratio))
    for name in sorted(set(current) - set(baseline)):
        print(f"[ new] {name}: not in baseline (run --regen to adopt)")

    if missing:
        print(f"error: {len(missing)} baseline benchmarks missing from run: {', '.join(missing)}")
        return 1
    if failures:
        print(f"error: {len(failures)} regression(s) beyond the {args.budget:.0%} budget")
        return 1
    print(f"bench_check: {len(baseline)} benchmarks within the {args.budget:.0%} budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
