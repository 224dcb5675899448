#!/usr/bin/env python3
"""Show that the benchmark is steady.

Runs the command in BENCHMARK.json once per (workload, seed) and reports,
for each end-to-end metric of each workload, the median, the quartiles
(as ``statistics.quantiles(values, n=4)`` gives them) and the spread:
the distance between the quartiles as a share of the median. A spread
above a third of the metric's bound is flagged.

    python3 e2ebench/steady.py --seeds 1-10 [--workloads bi_wire,etl_fleet] [--label a]

Run it from the root of the repository. The summary is also written to
e2ebench/out/steady-<label>.json; two labels from independent sets of
runs can be compared with --compare a b.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "e2ebench", "out")


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def collect(bench, workloads, seed_list, trace):
    out = {}
    for w in workloads:
        per_metric = {}
        for s in seed_list:
            r = run_once(bench, w, s, trace)
            if not r["correct"] or r["failed"]:
                sys.exit(f"{w} seed {s}: correct={r['correct']} failed={r['failed']}")
            for name, m in r["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(f"{w} seed {s}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), flush=True)
        out[w] = {k: summarize(v) for k, v in per_metric.items()}
    return out


def report(bench, summary):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w, metrics in summary.items():
        print(f"\n{w}")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound/3':>8}")
        for name, s in metrics.items():
            b = bounds.get(name)
            flag = " <-- wide" if b is not None and name != "setup_s" and s["spread"] > b / 3 else ""
            b3 = f"{b / 3:8.4f}" if b is not None else "       -"
            print(f"  {name:<16} {s['median']:12.4f} {s['q1']:12.4f} {s['q3']:12.4f} "
                  f"{s['spread']:8.4f} {b3}{flag}")


def compare(bench, a, b):
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    print(f"{'workload':<14} {'metric':<16} {'median ' + a:>14} {'median ' + b:>14} {'worse by':>9} {'bound':>6}")
    sa, sb = (json.load(open(os.path.join(OUT, f"steady-{x}.json"))) for x in (a, b))
    for w in sa:
        for name, (bound, better) in bounds.items():
            ma, mb = sa[w][name]["median"], sb[w][name]["median"]
            worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
            flag = " <-- outside" if worse > bound else ""
            print(f"{w:<14} {name:<16} {ma:14.4f} {mb:14.4f} {worse:9.4f} {bound:6.3f}{flag}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads")
    ap.add_argument("--label", default="a")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    if args.compare:
        compare(bench, *args.compare)
        return
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    summary = collect(bench, workloads, seeds(args.seeds), 0)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"steady-{args.label}.json"), "w") as f:
        json.dump(summary, f, indent=1)
    report(bench, summary)


if __name__ == "__main__":
    main()
