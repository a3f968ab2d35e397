#!/usr/bin/env python3
"""End-to-end benchmark of the ACES engines: one run of one workload.

    python3 perfbench/run.py --workload sim200 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first run configures and
builds the benchmark driver (perfbench/CMakeLists.txt, an optimized build
of ../src plus the driver) in .bench_build/perfbench; later runs only
rebuild what changed. The driver's metric table goes to standard output,
and the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 its per-layer metrics and writes the
benchmark's spans to .bench_build/spans-<workload>-<seed>.jsonl.

Exits non-zero, without a result line, when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("sim200", "dist-inproc3", "rt-ladder")
# A run measures for --seconds and then checks its outputs; anything far
# beyond that is a hang.
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "aces_perfbench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            log("run.py: build step failed:", " ".join(cmd))
            return None
    return BUILD_DIR / "aces_perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    expected = expected_metrics(args.trace)
    binary = build()
    if binary is None:
        return 1
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.trace:
        cmd.append(f"--spans={ROOT / '.bench_build'}/"
                   f"spans-{args.workload}-{args.seed}.jsonl")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        log(f"run.py: aces_perfbench exited with {done.returncode}")
        return 1
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))

    # The reported metric set must be exactly the one BENCHMARK.json names,
    # with the same units; a mismatch is a failed check, not a crash.
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        print(f"FAILED: metric set differs from BENCHMARK.json: missing "
              f"{missing}, unexpected {extra}, unit mismatch {units}")
        result["metrics"] = {n: m for n, m in result["metrics"].items()
                             if n in expected}
        result["attempted"] += 1
        result["failed"] += 1
        result["correct"] = False
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
