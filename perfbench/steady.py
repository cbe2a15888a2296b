#!/usr/bin/env python3
"""Steadiness check: runs one workload N times and reports each metric's spread.

    python3 perfbench/steady.py --workload <name> [--runs 10] [--first-seed 1]

Each run lasts BENCHMARK.json's run_seconds, untraced. For every
end-to-end metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)), the relative spread (q3 - q1) /
median and the metric's bound from BENCHMARK.json. A spread below a
third of the bound is "steady"; below the bound, "within"; else "WIDE".
It also reports the failed/attempted share of every run, which must be
identical, and the calibrated serial/parallel cutoff of each run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"steady: seed {seed} exited {out.returncode}: {out.stderr.strip()[-400:]}")
    host = next((json.loads(l[len("# host "):]) for l in lines if l.startswith("# host ")), {})
    return json.loads(lines[-1]), host


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values, shares, cutoffs = {}, [], []
    for i in range(args.runs):
        seed = args.first_seed + i
        result, host = run_once(args.workload, seed, seconds)
        if not result["correct"]:
            sys.exit(f"steady: seed {seed} reported correct=false")
        shares.append((result["failed"], result["attempted"]))
        cutoffs.append(host.get("serial_parallel_cutoff"))
        for name, m in result["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              f"cutoff {cutoffs[-1]} notes {json.dumps(host.get('notes', {}))}", flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds:g} s, seeds "
          f"{args.first_seed}..{args.first_seed + args.runs - 1}")
    print(f"{'metric':<30} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  status")
    for name, (unit, vals) in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        if bound is None:
            status = "-"
        else:
            status = "steady" if spread < bound / 3 else "within" if spread <= bound else "WIDE"
        b = f"{bound:g}" if bound is not None else "-"
        print(f"{name:<30} {unit:<6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {b:>6}  {status}")
    fractions = {f / a for f, a in shares}
    print(f"failed share: {'identical' if len(fractions) == 1 else 'DIFFERS'} "
          f"({', '.join(f'{f}/{a}' for f, a in shares)})")
    print(f"serial_parallel_cutoff per run: {cutoffs}")


if __name__ == "__main__":
    main()
