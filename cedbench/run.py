#!/usr/bin/env python3
"""cedga benchmark: one workload, one seed, one process, one client.

    python3 cedbench/run.py --workload obstruct_gf2 --seed 1 --seconds 26 --trace 0

cedga is imported from ``src/`` beside this directory, never from an
installed copy.  Each workload is a closed loop: jobs run one after
another, with no threads.  After set-up (import cedga, build the seeded
inputs; repeated, median reported) the run measures for ``--seconds``:
one warm-up pass, then timed passes cycling through the seeded pools.
A job's time covers only its cedga calls; the oracle checks its verdict
afterwards.  Times are reported at a reference machine speed (see Speed).

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced passes over the same pools, runs one counting pass, checks in
a second process (with another hash seed) that the inputs and counters
repeat exactly, writes the spans of the first traced pass to
``cedbench/out/`` and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A job whose verdict is wrong
counts as failed; ``correct`` is false when a job fails that is not a
recorded known defect, when an oracle fails its self-test, or when the
determinism check fails.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SETUP_REPEATS = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

# The reference chunk's time on a quiet machine (2 vCPU VM, Python 3.11).
REFERENCE_CHUNK_S = 0.003
CHUNK_EVERY_S = 0.25

import selftest  # noqa: E402  (sibling modules; cedga is imported later)
import tracing  # noqa: E402
from workloads import WORKLOADS, Setup  # noqa: E402


def reference_chunk():
    """Fixed pure-Python work of the kind cedga does: tuple keys, counters
    in dicts, sparse rows as dicts of dicts.  Its time tracks how fast the
    shared machine runs at the moment."""
    t0 = time.perf_counter()
    counts, rows = {}, {}
    for i in range(5000):
        key = (i % 41, i % 13) + (i % 5, i % 3)
        counts[key] = counts.get(key, 0) + 1
        rows.setdefault(i % 97, {})[i % 89] = i & 1
    for row in rows.values():
        for k in [k for k, v in row.items() if not v]:
            del row[k]
    return time.perf_counter() - t0


class Speed:
    """Machine speed over a run, sampled by reference chunks between jobs.

    The shared 2-vCPU machine this benchmark was built on changes speed by
    up to a half for minutes at a time, far beyond any useful bound, so
    every reported time is scaled by REFERENCE_CHUNK_S / (the median chunk
    time of the whole run): seconds at the reference speed.  One factor per
    run, not per pass: a pass holds too few chunks, and their sampling noise
    would outweigh the drift they correct.  The wall medians are printed
    beside the scaled figures.
    """

    def __init__(self):
        self.samples = []
        self._since = 0.0

    def sample(self):
        self.samples.append(reference_chunk())

    def tick(self, elapsed):
        self._since += elapsed
        if self._since >= CHUNK_EVERY_S:
            self.sample()
            self._since = 0.0

    def factor(self):
        return REFERENCE_CHUNK_S / statistics.median(self.samples)


def import_cedga():
    """A fresh import of cedga from SRC (earlier copies are dropped)."""
    for name in [m for m in sys.modules
                 if m == "cedga" or m.startswith("cedga.")]:
        del sys.modules[name]
    pkg = importlib.import_module("cedga")
    importlib.import_module("cedga.cli")
    if Path(pkg.__file__).resolve().parent != (SRC / "cedga").resolve():
        raise ImportError(f"cedga imported from {pkg.__file__}, not {SRC}")
    return pkg


def set_up(workload, seed, repeats, speed):
    """Import cedga and build the pools `repeats` times.  Returns the last
    build and the median wall times of set-up and of its catalog calls."""
    build, n_pools = WORKLOADS[workload]
    totals, catalogs = [], []
    for _ in range(repeats):
        speed.sample()
        t0 = time.perf_counter()
        pkg = import_cedga()
        setup = Setup(pkg, seed)
        pools = build(setup, n_pools)
        totals.append(time.perf_counter() - t0)
        catalogs.append(setup.catalog_s)
    return (pkg, setup, pools, statistics.median(totals),
            statistics.median(catalogs))


class Tally:
    """Jobs attempted and failed; failures grouped by message and defect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = {}  # (error, known defect) -> [count, a label]
        self.unexpected = 0

    def add(self, job, error):
        self.attempted += 1
        if error is None:
            return
        self.failed += 1
        defect = job.defect(error)
        if defect is None:
            self.unexpected += 1
        seen = self.failures.setdefault((error, defect), [0, job.label])
        seen[0] += 1


def run_pass(jobs, tally, speed, tracer=None):
    """(sum of job times, slowest job time) for one pass, wall seconds."""
    times = []
    for job in jobs:
        error = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = job.run()
            else:
                tracer.job = job.label
                result = tracer.call("job", job.run)
        except Exception as exc:  # a job that raises is a failed job
            error = f"raised {type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        speed.tick(times[-1])
        if error is None:
            try:
                error = job.check(result)
            except Exception as exc:
                error = f"oracle could not read the result: {exc!r}"
        tally.add(job, error)
    return sum(times), max(times)


def counting_pass(pkg, jobs, tally):
    counts = Counter()
    patches = tracing.install_counting(pkg, counts)
    try:
        run_pass(jobs, tally, Speed())
    finally:
        patches.restore()
    return {name: counts[name] for name in tracing.COUNTS}


def measure(pools, tally, speed, seconds):
    """Warm-up pass, then timed passes until `seconds` (from the warm-up's
    start) would be exceeded; at least MIN_PASSES timed passes."""
    start = time.perf_counter()
    run_pass(pools[0], tally, speed)
    last = time.perf_counter() - start
    passes = []
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - start + last <= seconds):
        t0 = time.perf_counter()
        passes.append(run_pass(pools[len(passes) % len(pools)], tally,
                               speed))
        last = time.perf_counter() - t0
    return passes


def measure_traced(pkg, pools, tally, speed, seconds):
    """Untraced and traced passes over the same pools, alternating.
    Returns both lists of pass times, the self times per traced pass, and
    the tracer of the first traced pass (which keeps its spans)."""
    start = time.perf_counter()
    run_pass(pools[0], tally, speed)
    plain, traced, self_s, first = [], [], [], None
    last = time.perf_counter() - start
    while (len(traced) < MIN_TRACED_PASSES
           or time.perf_counter() - start + last <= seconds):
        t0 = time.perf_counter()
        jobs = pools[len(traced) % len(pools)]
        plain.append(run_pass(jobs, tally, speed)[0])
        tracer = tracing.Tracer(keep_spans=first is None)
        patches = tracer.install(pkg)
        try:
            traced.append(run_pass(jobs, tally, speed, tracer)[0])
        finally:
            patches.restore()
        self_s.append(tracer.self_s)
        first = first or tracer
        last = time.perf_counter() - t0
    return plain, traced, self_s, first


def check_determinism(args, input_hash, counts):
    """Re-derive inputs and counters in a second process, another hash seed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--counts-only"]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=150)
    except subprocess.TimeoutExpired:
        return "the second process timed out"
    if proc.returncode != 0:
        return f"the second process failed: {proc.stderr.strip()[-300:]}"
    other = json.loads(proc.stdout.strip().splitlines()[-1])
    if other["input_sha256"] != input_hash:
        return "the same seed generated different inputs"
    diff = sorted(k for k in counts if counts[k] != other["counts"].get(k))
    return f"counters differ: {', '.join(diff)}" if diff else None


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=26)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--counts-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "cedga" / "__init__.py").is_file():
        print(f"cedbench: no cedga sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.counts_only:
        pkg, setup, pools, *_ = set_up(args.workload, args.seed, 1, Speed())
        counts = counting_pass(pkg, pools[0], Tally())
        print(json.dumps({"input_sha256": setup.input_hash,
                          "counts": counts}))
        return 0

    speed = Speed()
    pkg, setup, pools, setup_s, catalog_s = set_up(
        args.workload, args.seed, SETUP_REPEATS, speed)
    broken = selftest.problems(pkg)
    tally = Tally()
    print(f"cedbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g} "
          f"nproc={os.cpu_count()} python={platform.python_version()} "
          f"input_sha256={setup.input_hash} pools={len(pools)} "
          f"jobs_per_pass={len(pools[0])}")
    median = statistics.median

    if args.trace == 0:
        passes = measure(pools, tally, speed, args.seconds)
        wall = {"pass_s": median(p for p, _ in passes),
                "slowest_job_s": median(m for _, m in passes),
                "setup_s": setup_s}
        k = speed.factor()
        metrics = {name: metric(t * k, "s") for name, t in wall.items()}
        metrics["peak_rss_mb"] = metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics["ok_ratio"] = metric(1 - tally.failed / tally.attempted,
                                     "ratio")
        print(f"timed passes: {len(passes)} after 1 warm-up; wall medians: "
              + " ".join(f"{name} {t:.4f}" for name, t in wall.items()))
    else:
        plain, traced, self_s, first = measure_traced(
            pkg, pools, tally, speed, args.seconds)
        k = speed.factor()
        counts = counting_pass(pkg, pools[0], tally)
        problem = check_determinism(args, setup.input_hash, counts)
        if problem:
            broken.append(f"determinism: {problem}")
        metrics = {f"{layer}.self_s": metric(
            k * median(s.get(layer, 0.0) for s in self_s), "s")
            for layer in tracing.SELF_TIMES}
        metrics.update(
            (name, metric(n, "bytes" if name.endswith(".bytes") else "count"))
            for name, n in counts.items())
        metrics["catalog.build_s"] = metric(k * catalog_s, "s")
        metrics["trace.overhead_s"] = metric(
            k * (median(traced) - median(plain)), "s")
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        spans = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        first.write(spans)
        print(f"traced passes: {len(traced)}, untraced {len(plain)}; "
              f"{len(first.spans)} spans of the first traced pass in "
              f"{spans.relative_to(BENCH.parent)}; counters from one "
              f"counting pass over pool 0 repeat in a second process: "
              f"{'no' if problem else 'yes'}")

    print(f"speed factor {k:.4f}: reference chunk {REFERENCE_CHUNK_S} s / "
          f"median {median(speed.samples):.5f} s over {len(speed.samples)} "
          f"chunks in this run")
    print(f"fail_ratio: {tally.failed / tally.attempted:.4f} ratio "
          f"({tally.failed} of {tally.attempted} jobs)")
    for (error, defect), (n, label) in sorted(tally.failures.items()):
        print(f"failed jobs: {n}, e.g. {label}: {error}"
              + (f" [known defect: {defect}]" if defect else ""))
    for line in broken:
        print(f"benchmark check failed: {line}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>14.6g} {m['unit']}")
    correct = tally.unexpected == 0 and not broken
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
