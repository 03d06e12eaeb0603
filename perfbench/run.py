#!/usr/bin/env python3
"""Builds and runs the ADVOCAT end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] --trace 0|1
    python3 perfbench/run.py --rederive

The first form builds the benchmark from the source tree it sits in (into
.bench_build/ at the root of that tree), runs one workload and prints one
JSON object as the last line of stdout:

    {"correct": true, "attempted": 13, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (BENCHMARK.json lists both). --seconds defaults to the
run_seconds of BENCHMARK.json. The inputs are fixed paper networks: --seed
is accepted and logged, and no input depends on it.

The benchmark program writes its result to a file of its own; its stdout
and stderr (the library's analyzer warnings among them) go to
.bench_build/logs/ and are never parsed.

--rederive re-derives with the Z3 backend every expected value the
benchmark does not take from the paper, and prints Z3 times on the
benchmark's units (under a minute).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
BINARY = BUILD / "advocat_perfbench"
WORKLOADS = ("verify_native", "certify_native")
# A run must end within 180 s; leave room for start-up and reporting.
RUN_LIMIT_S = 170


class BenchError(Exception):
    pass


def build():
    """Configures (once) and builds the benchmark; raises BenchError."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no advocat source tree at {ROOT}")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD_ROOT / "build.log"
    with open(log, "a") as out:
        if not (BUILD / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD)]
            if shutil.which("ninja") is not None:
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
                raise BenchError(f"cmake configure failed, see {log}")
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", str(BUILD), "-j", jobs]
        if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
            raise BenchError(f"build failed, see {log}")


def load_spec():
    """BENCHMARK.json; raises BenchError when it is missing."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        raise BenchError(f"no {spec}")
    with open(spec) as f:
        return json.load(f)


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode."""
    return [m["name"] for m in load_spec()["per_layer" if trace else "end_to_end"]]


def run_once(workload, seconds, trace, seed, smoke=False, deadline=None):
    """Runs one workload; returns the program's result object."""
    logs = BUILD_ROOT / "logs"
    results = BUILD_ROOT / "results"
    logs.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    out_path = results / f"{workload}-{os.getpid()}.json"
    if out_path.exists():
        out_path.unlink()
    cmd = [str(BINARY), "--workload", workload, "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out", str(out_path)]
    if smoke:
        cmd.append("--smoke")
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    with open(logs / f"{workload}.log", "a") as log:
        log.write(f"== seed {seed}: {' '.join(cmd)}\n")
        log.flush()
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=log, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} did not finish within the run limit")
    if proc.returncode != 0 or not out_path.is_file():
        raise BenchError(f"{workload} exited with {proc.returncode}, "
                         f"see {logs / (workload + '.log')}")
    with open(out_path) as f:
        result = json.load(f)
    out_path.unlink()
    return result


def check_result(result, trace):
    names = expected_metrics(trace)
    if sorted(result["metrics"]) != sorted(names):
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(result['metrics'])} vs {sorted(names)}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric.get("value"), (int, float)):
            raise BenchError(f"metric {name} has no numeric value")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rederive", action="store_true")
    args = parser.parse_args()
    try:
        build()
        # The first run in a checkout also builds; the limit is for the run.
        deadline = time.monotonic() + RUN_LIMIT_S
        if args.rederive:
            return subprocess.run([str(BINARY), "--rederive"]).returncode
        if args.workload is None:
            parser.error("--workload is required")
        seconds = (args.seconds if args.seconds is not None
                   else load_spec()["run_seconds"])
        if seconds < 1:
            parser.error("--seconds must be at least 1")
        result = run_once(args.workload, seconds, args.trace == 1,
                          args.seed, deadline=deadline)
        check_result(result, args.trace == 1)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for error in result["errors"]:
        print(f"perfbench: WRONG: {error}", file=sys.stderr)
    for note in result["notes"]:
        print(f"perfbench: note: {note}", file=sys.stderr)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
