#!/usr/bin/env python3
"""Builds and runs the netlist-to-verdict benchmark.

Run from the repository root:

    python3 verdictbench/run.py --workload mult163 --seed 1 --seconds 55 --trace 0
    python3 verdictbench/run.py --selfcheck

--seed defaults to 1, --seconds to 55 (run_seconds in BENCHMARK.json) and
--trace to 0.

The first call configures and builds verdictbench/ (which compiles the
library from src/) into .bench_build/verdictbench; later calls rebuild only
what changed. The benchmark binary prints its metrics and, as the last line of
standard output, one JSON object {correct, attempted, failed, metrics}. With
--trace 1 the span records of the traced verifications are written to
.bench_build/verdictbench/spans-<workload>-<seed>.jsonl.

--selfcheck runs every workload at small k on a few seeds in both trace modes,
checks that each run is correct and prints exactly the metrics BENCHMARK.json
declares, and checks that a run whose ground truth is inverted fails.

linear283 is a workload of verdict_bench that BENCHMARK.json does not list (see
README.md); it runs by hand and in the self-check like the listed ones.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "verdictbench")
BINARY = os.path.join(BUILD, "verdict_bench")
RUN_TIMEOUT_S = 170
# Every workload verdict_bench knows; BENCHMARK.json lists all but linear283.
WORKLOADS = ("mult163", "linear283", "mutants32")


def fail(message):
    print(f"verdictbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources at {os.path.join(ROOT, 'src')}; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail(f"build step failed: {' '.join(step)}")


def run_binary(args, timeout=RUN_TIMEOUT_S):
    """Runs the benchmark binary; returns (exit code, stdout)."""
    try:
        proc = subprocess.run([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {timeout} s: {' '.join(args)}")
    return proc.returncode, proc.stdout


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def selfcheck():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for seed in ("1", "2"):
            for trace in ("0", "1"):
                case = f"{workload} seed {seed} trace {trace}"
                code, out = run_binary(["--small", "--workload", workload, "--seed", seed,
                                        "--seconds", "0.5", "--trace", trace], timeout=60)
                result = last_json(out)
                if code != 0 or result is None:
                    problems.append(f"{case}: exit {code}")
                    continue
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{case}: result keys {sorted(result)}")
                if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                    problems.append(f"{case}: correct={result['correct']} failed={result['failed']}")
                metrics = result["metrics"]
                if set(metrics) != set(declared[trace]):
                    problems.append(f"{case}: metrics {sorted(metrics)} != declared")
                for name, m in metrics.items():
                    if m.get("unit") != declared[trace].get(name) or not math.isfinite(m.get("value")):
                        problems.append(f"{case}: metric {name} = {m}")
                if "wrong_verdicts 0 count" not in out:
                    problems.append(f"{case}: no wrong_verdicts line")
        # A run whose ground truth is inverted must fail on its verdicts.
        code, out = run_binary(["--small", "--invert-truth", "--workload", workload, "--seed", "1",
                                "--seconds", "0.2", "--trace", "0"], timeout=60)
        result = last_json(out)
        if code == 0 or result is None or result["correct"] or "WRONG" not in out:
            problems.append(f"{workload} with inverted truth: exit {code}, not flagged wrong")
        print(f"selfcheck {workload}: done")
    for p in problems:
        print(f"selfcheck FAILED: {p}")
    print("selfcheck passed" if not problems else f"selfcheck: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="55")
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    build()
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        fail("--workload is required")
    cmd = ["--workload", args.workload, "--seed", args.seed, "--seconds", args.seconds,
           "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(BUILD, f"spans-{args.workload}-{args.seed}.jsonl")]
    code, out = run_binary(cmd)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
