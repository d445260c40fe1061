#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's spread.

For every workload and metric it prints the median over the seeds and the
distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), next to a third of the metric's bound
from BENCHMARK.json, and flags a spread over that third. With --sets 2 it
runs the seeds twice and also flags a metric whose median got worse from
the first set to the second by more than its bound. Run it from the root of
the repository:

    python3 perfbench/spread.py --workloads oltp,paged --seeds 1-10 [--sets 2]
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_set(bench, wl, seed_list):
    """Runs one set; returns ({metric: [values]}, ok)."""
    values, ok = {}, True
    for seed in seed_list:
        cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        t0 = time.time()
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            print(f"{wl} seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            ok = False
            continue
        lines = out.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        env = json.loads(lines[-2][len("# env "):]) if lines[-2].startswith("# env ") else {}
        if not res["correct"] or res["failed"]:
            print(f"{wl} seed {seed}: correct={res['correct']} failed={res['failed']}")
            ok = False
        print(f"{wl} seed {seed}: {time.time() - t0:.1f}s, steal_frac {env.get('steal_frac', 0):.3f}", file=sys.stderr)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return values, ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="oltp,paged")
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    declared = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for wl in args.workloads.split(","):
        sets = []
        for _ in range(args.sets):
            values, set_ok = run_set(bench, wl, seeds(args.seeds))
            ok = ok and set_ok
            sets.append(values)
        for name in sorted(sets[0]):
            m = declared.get(name, {"bound": float("nan"), "better": "lower"})
            medians = []
            for k, values in enumerate(sets):
                vs = values.get(name, [])
                med = statistics.median(vs)
                q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
                spread = (q[2] - q[0]) / med if med else float("nan")
                third = m["bound"] / 3
                flag = "  <-- over a third of the bound" if spread > third else ""
                print(f"{wl:8s} {name:28s} set {k + 1} median {med:12.5g}  spread {spread:7.3f}  bound/3 {third:6.3f}{flag}")
                print(f"{'':46s} values " + " ".join(f"{v:.4g}" for v in vs))
                medians.append(med)
            for k, med in enumerate(medians[1:], 2):
                worse = (med - medians[0]) / medians[0] if medians[0] else float("nan")
                if m["better"] == "higher":
                    worse = -worse
                flag = "  <-- worse by more than the bound" if worse > m["bound"] else ""
                print(f"{wl:8s} {name:28s} set {k} median worse than set 1 by {worse:7.3f}  bound {m['bound']:.3f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
