#!/usr/bin/env python3
"""Benchmark entry point for the aapm simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator library and the benchmark program from the
checkout's sources (into .bench_build/perfbench), records the host,
runs one workload in its own process and prints the result as one JSON
object on the last line of standard output. perfbench/README.md
describes the workloads and metrics.

Exit status: 0 when every output check passed; 1 when a check failed
(the result line then says "correct": false); 2 on a usage, build or
run error, in which case no result line is printed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "aapm_perfbench")
WORKLOADS = ("suite_sweep", "cluster_faults_1024", "serve_bursty_1024")
# A run must end within 180 s; the benchmark process gets this long.
RUN_TIMEOUT_S = 160
# Build jobs: the compile is memory-hungry, so keep it narrow.
BUILD_JOBS = 2
SPIN = """
import sys, time
end = time.perf_counter() + float(sys.argv[1])
n = 0
while time.perf_counter() < end:
    n += 1
print(n)
"""


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build incrementally; build logs go to
    stderr only when the build fails."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        step = subprocess.run(configure, capture_output=True, text=True)
        if step.returncode != 0:
            # Leave no half-configured tree behind for the next run.
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("configure failed:\n" + step.stdout + step.stderr)
    step = subprocess.run(["cmake", "--build", BUILD_DIR, "-j",
                           str(BUILD_JOBS)], capture_output=True, text=True)
    if step.returncode != 0:
        fail("build failed:\n" + step.stdout + step.stderr)


def spin_rate(processes, seconds=0.25):
    """Loop iterations per second summed over `processes` concurrent
    busy-loop processes."""
    procs = [subprocess.Popen([sys.executable, "-c", SPIN, str(seconds)],
                              stdout=subprocess.PIPE, text=True)
             for _ in range(processes)]
    total = 0
    for p in procs:
        out, _ = p.communicate()
        total += int(out.strip() or 0)
    return total / seconds


def host_record():
    """nproc and delivered parallelism: the summed loop rate of nproc
    concurrent spinners over the rate of one alone."""
    nproc = len(os.sched_getaffinity(0))
    # Single-spinner rate before and after, so a host-speed shift
    # during the test biases the ratio less.
    before = spin_rate(1)
    together = spin_rate(nproc)
    single = (before + spin_rate(1)) / 2
    parallel = together / single if single > 0 else 0.0
    return {"nproc": nproc, "delivered_parallelism": parallel}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Self-test knobs (perfbench/selftest.py): a small scale, and a
    # forced output-check failure.
    parser.add_argument("--tiny", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--inject-check-failure", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in (0, 60]")

    build()
    host = host_record()
    print(f"host: nproc {host['nproc']}, delivered parallelism "
          f"{host['delivered_parallelism']:.2f}", flush=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "host.jsonl"), "a") as log:
        log.write(json.dumps(dict(host, time=time.time(),
                                  workload=args.workload,
                                  seed=args.seed)) + "\n")

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_check_failure:
        cmd.append("--inject-check-failure")
    env = {k: v for k, v in os.environ.items()
           if k not in ("AAPM_MODEL_CACHE", "AAPM_JOBS", "AAPM_PROF")}
    try:
        child = subprocess.run(cmd, capture_output=True, text=True, env=env,
                               timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(child.stderr)
    lines = child.stdout.strip().splitlines()
    if child.returncode not in (0, 1) or not lines:
        sys.stderr.write(child.stdout)
        fail(f"benchmark exited with status {child.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(child.stdout)
        fail("benchmark printed no result line")
    for line in lines[:-1]:
        print(line)
    if args.trace:
        result["metrics"]["host.nproc"] = {
            "value": host["nproc"], "unit": "count"}
        result["metrics"]["host.delivered_parallelism"] = {
            "value": host["delivered_parallelism"], "unit": "cpus"}
    print(json.dumps(result), flush=True)
    sys.exit(child.returncode)


if __name__ == "__main__":
    main()
