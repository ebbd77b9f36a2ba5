#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and the baseline record.

    python3 cedbench/spread.py --seeds 1-10 [--workloads search_q,h0_rewrite]
        [--trace-seed 1] [--record cedbench/BASELINE.json]

Runs cedbench/run.py once per workload and seed, one run at a time, then
prints for each metric the median and the spread: the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of
the median, next to the metric's bound from BENCHMARK.json.  With
--trace-seed it also makes one traced run per workload; with --record it
writes the medians, the traced per-layer figures, the failing jobs and
the line count of each src/cedga module as a trajectory point.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(config, workload, seed, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(config["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{workload} seed {seed}: no output\n{proc.stderr}")
    return json.loads(lines[-1]), lines[:-1], proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workloads")
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--record", type=Path)
    args = ap.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in config["workloads"]])
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    record = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "run_seconds": config["run_seconds"], "seeds": args.seeds,
              "workloads": {}}
    for workload in names:
        values, failures, entry = {}, {}, {}
        for seed in args.seeds:
            result, report, code = run(config, workload, seed, 0)
            print(f"{workload} seed {seed}: exit {code} correct "
                  f"{result['correct']} failed {result['failed']} of "
                  f"{result['attempted']} " + " ".join(
                      f"{k}={v['value']:.4g}"
                      for k, v in result["metrics"].items()), flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for line in report:
                if line.startswith("failed jobs:"):
                    # "failed jobs: N, e.g. LABEL: ERROR [known defect: ...]"
                    example = line.split(", e.g. ", 1)[1]
                    failures.setdefault(example[example.rfind(" ["):]
                                        if "[known defect" in example
                                        else example, example)
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {workload:13s} {name:14s} median {med:10.4f} spread "
                  f"{spread:6.3f} bound {bounds[name]}", flush=True)
            entry[name] = {"median": med, "spread": spread}
        entry = {"end_to_end": entry,
                 "failing_jobs": sorted(failures.values())}
        if args.trace_seed is not None:
            result, report, _ = run(config, workload, args.trace_seed, 1)
            entry["per_layer"] = {k: v["value"]
                                  for k, v in result["metrics"].items()}
            entry["trace_seed"] = args.trace_seed
        record["workloads"][workload] = entry
    if args.record:
        record["src_lines"] = {
            p.name: len(p.read_text().splitlines())
            for p in sorted((ROOT / "src" / "cedga").glob("*.py"))}
        args.record.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
