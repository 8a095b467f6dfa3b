#!/usr/bin/env python3
"""Benchmark entry point: builds the driver, runs one workload, prints one
JSON result line.

  python3 perfbench/run.py --workload lu_serial --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout. It builds perfbench_driver and
sweepd into .bench_build/perfbench (a Release build of the repository's own
libraries), gives the run a private directory under .bench_build/runs for
its checkpoint stores and the sweepd socket, and removes that directory on
every exit path.

--trace 0 reports the end-to-end metrics. The run is split into five
slices of S/5 seconds, each a fresh driver process with its own set-up and
warm-up job, and their samples are pooled: setup_s is the median of the
five set-ups (each timed from before the process starts until its first
timed job is about to start); job_p50_s, job_tail_s and jobs_per_s come
from all verified jobs; peak_rss_mb is the largest slice's. --trace 1 runs
one driver process and reports the per-layer metrics instead. The last
stdout line is {"correct", "attempted", "failed", "metrics"}; failing to
build or run exits non-zero without printing a result.

Workloads, metric meanings and seeds: perfbench/METRICS.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("lu_serial", "dist_faults", "sweep_served")
SLICES = 5       # fresh driver processes pooled into one end-to-end run
MIN_SAMPLES = 11  # a tail needs ten samples beyond it
DEADLINE_S = 170.0  # a run must end within 180 s, the first build aside
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUNS_DIR = os.path.join(".bench_build", "runs")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_group(cmd, timeout, stdout):
    """Run cmd in its own process group; on timeout kill the whole group
    (the driver's dist ranks and sweepd included) and wait for it."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{cmd[0]} timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return out


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_group(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"], 300, sys.stderr)
    run_group(["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
               "sweepd", "-j", jobs], 850, sys.stderr)


def driver(args, run_dir, deadline, seconds, min_jobs):
    """One driver process; returns (its result line, its start time)."""
    cmd = [os.path.join(BUILD_DIR, "perfbench_driver"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={seconds}", f"--trace={args.trace}",
           f"--min-jobs={min_jobs}", f"--run-dir={run_dir}",
           f"--sweepd={os.path.join(BUILD_DIR, 'abftc', 'sweepd')}"]
    start = time.monotonic()  # CLOCK_MONOTONIC, as the driver reports
    out = run_group(cmd, deadline - time.monotonic(), subprocess.PIPE)
    lines = out.decode().strip().splitlines()
    if not lines:
        raise RuntimeError("driver printed no result")
    return json.loads(lines[-1]), start


def end_to_end(args, run_dir, deadline):
    """Pool SLICES fresh driver processes into one set of end-to-end
    metrics, so a per-process offset (memory placement, which host core)
    averages out instead of moving the whole run."""
    slices, setups = [], []
    for _ in range(SLICES):
        result, start = driver(args, run_dir, deadline, args.seconds / SLICES,
                               -(-MIN_SAMPLES // SLICES))
        setups.append(result["setup_done"] - start)
        slices.append(result)
    lat = sorted(x for s in slices for x in s["latencies"])
    n = len(lat)
    if n < MIN_SAMPLES:
        raise RuntimeError(f"only {n} verified jobs; a tail needs "
                           f"{MIN_SAMPLES}")
    print(f"job_tail_s is p{100 * (n - 10) / n:.1f} of {n} verified jobs")
    failed = sum(s["failed"] for s in slices)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "job_p50_s": (statistics.median(lat), "s"),
        "job_tail_s": (lat[n - 11], "s"),
        "jobs_per_s": (n / sum(s["elapsed"] for s in slices), "1/s"),
        "peak_rss_mb": (max(s["peak_rss_mb"] for s in slices), "MiB"),
    }
    return {"correct": failed == 0,
            "attempted": sum(s["attempted"] for s in slices),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    for needed in ("CMakeLists.txt", "src", os.path.join("perfbench", "src")):
        if not os.path.exists(needed):
            log(f"no {needed} here: run from the root of a source checkout")
            return 2
    try:
        build()
    except (RuntimeError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    deadline = time.monotonic() + DEADLINE_S
    run_dir = os.path.join(RUNS_DIR, str(os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        if args.trace:
            result = driver(args, run_dir, deadline, args.seconds,
                            MIN_SAMPLES)[0]
        else:
            result = end_to_end(args, run_dir, deadline)
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log(f"run failed: {e}")
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
