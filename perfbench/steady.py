#!/usr/bin/env python3
"""Steadiness check and smoke test for the ADVOCAT benchmark (README.md).

    python3 perfbench/steady.py [--runs N]
    python3 perfbench/steady.py --trace-repeat
    python3 perfbench/steady.py --smoke

The default form runs every workload of BENCHMARK.json N times (seeds
1..N) for its run_seconds, alternating the workload order from round to
round, and prints per end-to-end metric the median, the quartiles, and the
quartile spread and min/max spread as shares of the median, against the
metric's bound in BENCHMARK.json. A spread above a third of its bound is
flagged WIDE, one above the bound OVER. It also checks that every run
failed the same share of its operations. Raw results are kept in
.bench_build/steady-<time>.json.

--trace-repeat runs each workload's traced pass twice and checks that
every count metric repeats exactly (the sequential solver is
deterministic).

--smoke runs every workload's code path on 2x2 cells, traced and untraced,
in seconds.
"""
import argparse
import json
import statistics
import sys
import time

sys.dont_write_bytecode = True  # keep the benchmark directory clean
from run import BUILD_ROOT, BenchError, build, check_result, load_spec, run_once  # noqa: E402


def summarize(workload, runs, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"\n{workload}: {len(runs)} runs")
    print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'range/med':>9} {'bound':>6}")
    worst = "ok"
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = (q3 - q1) / med
        span = (max(values) - min(values)) / med
        flag = ""
        if iqr > bound:
            flag, worst = "OVER", "OVER"
        elif iqr > bound / 3:
            flag = "WIDE"
            worst = worst if worst == "OVER" else "WIDE"
        print(f"  {name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{iqr:>8.2%} {span:>9.2%} {bound:>6} {flag}")
    shares = {(r["failed"], r["attempted"]) for r in runs}
    ratios = {f / a for f, a in shares}
    passes = sorted(len(r["pass_s"]) for r in runs)
    print(f"  failed/attempted: {sorted(shares)}  passes per run: {passes}")
    if len(ratios) != 1 or not all(r["correct"] for r in runs):
        print("  FAILED SHARE DIFFERS or a run was incorrect")
        worst = "OVER"
    return worst


def steadiness(runs_per_workload, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    runs = {w: [] for w in workloads}
    for i in range(runs_per_workload):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            t0 = time.monotonic()
            result = run_once(w, seconds, False, seed=i + 1)
            check_result(result, False)
            runs[w].append(result)
            print(f"round {i + 1} {w}: {time.monotonic() - t0:.1f} s, "
                  f"pass_s {result['metrics']['pass_s']['value']:.4f}",
                  flush=True)
    raw = BUILD_ROOT / f"steady-{int(time.time())}.json"
    with open(raw, "w") as f:
        json.dump(runs, f, indent=1)
    verdicts = [summarize(w, runs[w], spec) for w in workloads]
    print(f"\nraw results: {raw}")
    return 0 if "OVER" not in verdicts else 1


def trace_repeat(spec):
    counts = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
    status = 0
    for w in (w["name"] for w in spec["workloads"]):
        first, second = (run_once(w, spec["run_seconds"], True, seed=s)
                         for s in (1, 2))
        for r in (first, second):
            check_result(r, True)
        differ = [n for n in sorted(counts)
                  if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
        print(f"{w}: counts {'repeat exactly' if not differ else 'DIFFER: ' + ', '.join(differ)}; "
              f"trace.overhead_ratio {first['metrics']['trace.overhead_ratio']['value']:.3f} / "
              f"{second['metrics']['trace.overhead_ratio']['value']:.3f}")
        for name in sorted(first["metrics"]):
            print(f"  {name:<24} {first['metrics'][name]['value']:>14.6g} "
                  f"{second['metrics'][name]['value']:>14.6g}")
        if differ or not (first["correct"] and second["correct"]):
            status = 1
    return status


def smoke(spec):
    status = 0
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            result = run_once(w, 1, trace, seed=1, smoke=True)
            check_result(result, trace)
            ok = result["correct"] and result["attempted"] > 0
            print(f"{w} trace={int(trace)}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}"
                  f"{'' if ok else ' FAILED'}")
            for error in result["errors"]:
                print(f"  WRONG: {error}")
            status |= 0 if ok else 1
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-repeat", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    try:
        spec = load_spec()
        build()
        if args.smoke:
            return smoke(spec)
        if args.trace_repeat:
            return trace_repeat(spec)
        return steadiness(args.runs, spec)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
