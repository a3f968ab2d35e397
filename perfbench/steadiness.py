#!/usr/bin/env python3
"""Steadiness check of the end-to-end benchmark.

    python3 perfbench/steadiness.py [--workloads sim200,rt-ladder]
        [--runs 10] [--sets 2] [--first-seed 101] [--seconds N] [--trace 0]

Runs perfbench/run.py --runs times per workload and set, each time with
another seed, and prints for every metric its median, quartiles and
spread: (Q3 - Q1) / median, with the quartiles of
statistics.quantiles(values, n=4). It names every metric that is not
steady:

  SPREAD  the spread exceeds the metric's bound in BENCHMARK.json;
  NOISY   the spread exceeds a third of the bound;
  DRIFT   with --sets 2, the second set's median is worse than the first
          set's by more than the bound (set 2 uses other seeds);
  BIMODAL the sorted values split into two groups whose gap exceeds the
          bound, or one run's cycles disagree by more than the bound;
  SHORT   a timed cycle lasted under a second, or set-up was timed from
          fewer than ten samples (a millisecond-scale single sample);
  STEAL   the host took more than 5% of the VM's CPU time during a run's
          timed cycles (steal_frac): that run was slowed by other tenants,
          which the distributed runtime's barrier wakes amplify.

Exits 1 when anything is named or a run fails its correctness checks.
Run from the root of a source checkout; it takes runs x sets x workloads
benchmark runs of about --seconds plus set-up each.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_CYCLE_WALL_S = 1.0
MIN_SETUP_SAMPLES = 10
MAX_STEAL_FRAC = 0.05


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        return None, []
    return json.loads(lines[-1]), [l[2:] for l in lines if l.startswith("# ")]


def diagnostics(lines):
    """key=value pairs of the driver's "# " lines."""
    out = {}
    for line in lines:
        for key, value in re.findall(r"(\w+)=(\S+)", line):
            out[key] = value
    return out


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (negative: better)."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def bimodal(values, bound):
    """Two groups of at least two runs whose gap exceeds `bound`."""
    v = sorted(values)
    med = statistics.median(v)
    for i in range(2, len(v) - 1):
        if med and (v[i] - v[i - 1]) / med > bound:
            return True
    return False


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.runs < 4:
        parser.error("--runs must be at least 4 for quartiles")

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    flagged = []
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            results = []
            for i in range(args.runs):
                seed = args.first_seed + 1000 * s + i
                result, diag_lines = run_once(workload, seed, args.seconds,
                                              args.trace)
                if result is None or not result["correct"]:
                    flagged.append(f"{workload} seed {seed}: run failed "
                                   "or incorrect")
                    continue
                diag = diagnostics(diag_lines)
                walls = [float(x) for x in
                         diag.get("cycle_wall_s", "").split(",") if x]
                rates = [float(x) for x in
                         diag.get("cycle_sdos_per_s", "").split(",") if x]
                if walls and min(walls) < MIN_CYCLE_WALL_S:
                    flagged.append(f"SHORT {workload} seed {seed}: a timed "
                                   f"cycle took {min(walls):.3f} s")
                steal = float(diag.get("steal_frac", 0.0))
                if steal > MAX_STEAL_FRAC:
                    flagged.append(f"STEAL {workload} seed {seed}: the host "
                                   f"took {steal:.1%} of the CPU time")
                if int(diag.get("setup_samples", MIN_SETUP_SAMPLES)) < \
                        MIN_SETUP_SAMPLES:
                    flagged.append(f"SHORT {workload} seed {seed}: set-up "
                                   f"from {diag['setup_samples']} samples")
                bound = next((m["bound"] for m in metrics
                              if m["name"] == "sdos_per_s"), None)
                if bound and len(rates) > 1 and \
                        (max(rates) - min(rates)) / statistics.median(rates) \
                        > bound:
                    flagged.append(f"BIMODAL {workload} seed {seed}: cycles "
                                   f"ran at {min(rates):.4g}..{max(rates):.4g}"
                                   " SDOs/s")
                results.append(result)
            sets.append(results)

        print(f"\n{workload}: {args.runs} runs x {args.sets} set(s), "
              f"{args.seconds:g} s each")
        print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}  status")
        for m in metrics:
            name = m["name"]
            bound = m.get("bound")
            medians = []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results
                          if name in r["metrics"]]
                if len(values) < 4:
                    continue
                med, q1, q3, sp = spread(values)
                medians.append(med)
                status = []
                if bound is not None:
                    if sp > bound:
                        status.append("SPREAD")
                    elif sp > bound / 3:
                        status.append("NOISY")
                    if bimodal(values, bound):
                        status.append("BIMODAL")
                for s in status:
                    flagged.append(f"{s} {workload} {name}: spread {sp:.3f}"
                                   f" bound {bound}")
                b = f"{bound:6.3f}" if bound is not None else "     -"
                print(f"{name:34s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                      f"{sp:7.3f} {b}  {' '.join(status) or 'ok'}")
            if bound is not None and len(medians) == 2:
                drift = worse_by(medians[0], medians[1], m["better"])
                print(f"{'':34s} second set worse by {drift:+.3f}")
                if drift > bound:
                    flagged.append(f"DRIFT {workload} {name}: second set "
                                   f"worse by {drift:.3f}, bound {bound}")

    print()
    for line in flagged:
        print(line)
    print("steady" if not flagged else f"{len(flagged)} finding(s)")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
