#!/usr/bin/env python3
"""Steadiness report: run each workload repeatedly and summarise the spread.

Usage (from the repository root):
    python3 perfbench/steady.py [--runs N] [--first-seed F] [--seconds S]
                                [--trace 0|1|0,1]

Each workload runs once per seed F, F+1, ..., F+N-1, as `bash
perfbench/run.sh --workload W --seed N --seconds S --trace T`, one run
at a time. For every workload and metric the report gives
the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)) and their distance as a share of the
median, plus the share of failed operations. With --trace 1 it covers
the per-layer metrics, host.ref_loop_ms among them; --trace 0,1 runs
both modes. The table is printed and also written to
perfbench/out/steadiness-trace<T>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["stream_scalar", "stream_vector", "stream_recourse", "serve_mixed"]


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": spread, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    traces = [int(t) for t in args.trace.split(",")]
    report = {}
    for trace in traces:
        report[trace] = one_mode(args, seeds, trace)
    os.makedirs(os.path.join("perfbench", "out"), exist_ok=True)
    path = os.path.join("perfbench", "out", f"steadiness-trace{args.trace.replace(',', '')}.json")
    with open(path, "w") as f:
        json.dump(report if len(traces) > 1 else report[traces[0]], f, indent=1)
    print(f"written {path}")


def one_mode(args, seeds, trace):
    report = {}
    for w in WORKLOADS:
        results = [run_once(w, s, args.seconds, trace) for s in seeds]
        if not all(r["correct"] for r in results):
            raise SystemExit(f"{w}: a run reported correct=false")
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        metrics = {}
        for name in results[0]["metrics"]:
            metrics[name] = summarise([r["metrics"][name]["value"] for r in results])
            metrics[name]["unit"] = results[0]["metrics"][name]["unit"]
        report[w] = {"seeds": seeds, "failed_shares": shares, "metrics": metrics}
        print(f"{w}  --trace {trace}  ({len(seeds)} runs, failed share {shares})")
        for name, s in metrics.items():
            print(f"  {name:34s} median {s['median']:14.6g} {s['unit']:8s}"
                  f" q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  iqr/median {s['iqr_share']:.4f}")
        sys.stdout.flush()
    return report


if __name__ == "__main__":
    main()
