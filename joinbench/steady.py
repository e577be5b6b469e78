#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of untraced runs on the same code.

    python3 joinbench/steady.py [--runs 10] [--workloads open-verify,lwdc-ooc] [--seconds N]

For each workload, run i of set A and run i of set B use seed i + 1 and
alternate which goes first. For every end-to-end metric the script prints
each set's median and quartiles (statistics.quantiles(n=4)), the spread
(quartile distance over median) and the gap between the two medians, and
checks them against the metric's bound in BENCHMARK.json: every spread but
setup_s's within the bound, and set B's median no worse than set A's by
more than the bound. It also marks spreads above a third of the bound.
The raw values are written to joinbench/out/steady.json after each
workload. Exits non-zero if a check fails.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = ap.parse_args()

    raw = {}
    ok = True
    for w in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for side in ("AB" if i % 2 == 0 else "BA"):
                sets[side].append(run_once(w, i + 1, args.seconds))
                print(f"{w} run {i + 1} set {side} done", file=sys.stderr, flush=True)
        raw[w] = sets
        (BENCH / "out").mkdir(exist_ok=True)
        (BENCH / "out" / "steady.json").write_text(json.dumps(raw, indent=1))
        print(f"\n{w} ({args.runs} runs per set, {args.seconds} s each)")
        print(f"{'metric':30} {'bound':>6} {'A median':>12} {'A q1..q3':>23} {'A spr':>6} "
              f"{'B median':>12} {'B spr':>6} {'gap':>7}  verdict")
        for m in SPEC["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = summarize([r[name] for r in sets["A"]])
            b = summarize([r[name] for r in sets["B"]])
            worse = (b[0] - a[0]) / a[0] * (1 if m["better"] == "lower" else -1)
            bad = worse > bound or (name != "setup_s" and max(a[3], b[3]) > bound)
            ok &= not bad
            mark = "FAIL" if bad else ("ok" if name == "setup_s" or max(a[3], b[3]) <= bound / 3
                                       else "ok (spread > bound/3)")
            print(f"{name:30} {bound:6.2f} {a[0]:12.5g} {a[1]:11.5g}..{a[2]:<11.5g} {a[3]:6.3f} "
                  f"{b[0]:12.5g} {b[3]:6.3f} {worse:+7.3f}  {mark}", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
