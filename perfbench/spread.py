#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--seed 2009 --runs 10 | --seeds 2009,4242,...]
                                [--workload NAME ...] [--out FILE]

Runs `perfbench/run.py --trace 0` for each workload, by default ten times on
the default seed, so the spread is the host's noise alone: every `sim_*`
figure is the same on every run of one seed. With --seeds it runs once per
seed instead, which also checks the outputs on every seed; the spread then
mixes seed variation into the host noise. Prints per metric the median and
the distance between the first and third quartiles as a share of the
median, next to the metric's bound in BENCHMARK.json. Every run must pass
its output checks. With --out the table is also written as JSON. Run from
the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=2009, help="seed of every run (default: %(default)s)")
    ap.add_argument("--runs", type=int, default=10, help="runs per workload (default: %(default)s)")
    ap.add_argument("--seeds", help="comma-separated seeds, one run each; overrides --seed/--runs")
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--out")
    args = ap.parse_args()
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else [args.seed] * args.runs)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    table = {}
    for w in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for i, seed in enumerate(seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {seed}: checks failed: {result}")
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(f"{w} run {i + 1} seed {seed}: " + ", ".join(
                f"{k} {v[-1]:.6g}" for k, v in values.items()), file=sys.stderr, flush=True)
        table[w] = {"seeds": seeds}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            table[w][m["name"]] = {"median": med, "iqr_share": (q3 - q1) / med,
                                   "bound": m["bound"], "values": v}
            print(f"{w:<14} {m['name']:<24} median {med:>12.6g}  "
                  f"spread {100 * (q3 - q1) / med:6.2f} %  bound {100 * m['bound']:.0f} %",
                  flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(table, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
