#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Runs the BENCHMARK.json command on each named workload once per seed and
prints, for every end-to-end metric, the median and the spread: the
distance between the first and third quartiles as a share of the median
(statistics.quantiles with n=4), next to the metric's bound.

    python3 itvbench/spread.py [--seeds 1,2,3,4,5] [--workloads vod-open,...]

Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    res = json.loads(last)
    if not res["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect\n{out.stderr[-2000:]}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--workloads", default="")
    args = p.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    worst = {}
    for w in workloads:
        runs = []
        for s in seeds:
            runs.append(run_once(bench["command"], w, s, bench["run_seconds"]))
            print(f"# {w} seed {s} done", file=sys.stderr, flush=True)
        print(f"\n{w} ({len(seeds)} seeds)")
        for m in bench["end_to_end"]:
            vals = [r[m["name"]] for r in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            worst[m["name"]] = max(worst.get(m["name"], 0), spread)
            flag = "" if spread < m["bound"] / 3 else ("  > bound/3" if spread < m["bound"] else "  > BOUND")
            print(f"  {m['name']:18s} median {med:12.4f} {m['unit']:5s} spread {spread:6.3f} bound {m['bound']}{flag}")
            print("      values " + " ".join(f"{v:.4g}" for v in vals))
    print("\nworst spread per metric:", json.dumps({k: round(v, 4) for k, v in worst.items()}))


if __name__ == "__main__":
    main()
