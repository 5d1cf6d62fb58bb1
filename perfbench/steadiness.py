#!/usr/bin/env python3
"""Steadiness check for the benchmark defined in BENCHMARK.json.

Runs every workload once per seed (untraced), then reports for each
end-to-end metric its median and its spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median. A spread within a third of the metric's bound is "steady".

    python3 perfbench/steadiness.py --seeds 1-10 --out set_a.json
    python3 perfbench/steadiness.py --compare set_a.json set_b.json

--compare reports, per metric, how much worse the second set's median is
than the first's, as a share of the first, against the bound.
Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_set(spec, workloads, seeds):
    values = {}
    for w in workloads:
        for seed in seeds:
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else "{}"
            res = json.loads(last)
            if p.returncode != 0 or not res.get("correct") or res.get("failed"):
                sys.exit(f"{w} seed {seed}: exit {p.returncode}, result {last}\n{p.stderr[-2000:]}")
            for name, m in res["metrics"].items():
                values.setdefault(w, {}).setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()), flush=True)
    return values


def spread(xs):
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / statistics.median(xs)


def report(spec, values):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':16} {'metric':20} {'median':>14} {'spread':>8} {'bound':>6}  verdict")
    for w, metrics in values.items():
        for name, xs in metrics.items():
            s, b = spread(xs), bounds[name]
            verdict = "steady" if s <= b / 3 else "within bound" if s <= b else "TOO NOISY"
            print(f"{w:16} {name:20} {statistics.median(xs):14.6g} {s:8.4f} {b:6.2f}  {verdict}")


def compare(spec, a, b):
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':16} {'metric':20} {'median A':>14} {'median B':>14} {'worse by':>9} {'bound':>6}")
    ok = True
    for w, metrics in a.items():
        for name, xs in metrics.items():
            ma, mb = statistics.median(xs), statistics.median(b[w][name])
            worse = (mb - ma) / ma if better[name] == "lower" else (ma - mb) / ma
            ok &= worse <= bounds[name]
            print(f"{w:16} {name:20} {ma:14.6g} {mb:14.6g} {worse:9.4f} {bounds[name]:6.2f}")
    print("sets agree within bounds" if ok else "SETS DISAGREE")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", help="comma-separated; default all")
    ap.add_argument("--out", help="write the raw values here as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    spec = load_spec()
    if args.compare:
        a, b = (json.load(open(p)) for p in args.compare)
        sys.exit(0 if compare(spec, a, b) else 1)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    values = run_set(spec, workloads, seeds_of(args.seeds))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f, indent=1)
    report(spec, values)


if __name__ == "__main__":
    main()
