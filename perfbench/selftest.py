#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

For every workload declared in BENCHMARK.json, at a small scale
(--tiny, one second per run):
  - an untraced run prints exactly the declared end-to-end metrics, and
    a traced run exactly the declared per-layer metrics, each with its
    declared unit;
  - a second seed changes the simulated digest but not the metric set;
  - a forced output-check failure exits non-zero.
Then, in a directory holding only BENCHMARK.json and the benchmark's
files, the command must fail without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BARE_DIR = os.path.join(ROOT, ".bench_build", "selftest-bare")

failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(spec, workload, seed, trace, *extra, cwd=ROOT):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace),
                             "--tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    digest = next((l.split()[1] for l in lines if l.startswith("digest:")),
                  None)
    return proc.returncode, result, digest


def metric_units(result):
    return {name: m.get("unit") for name, m in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in spec["workloads"]:
        name = w["name"]
        digests = {}
        for trace in (0, 1):
            code, result, digest = run(spec, name, 1, trace)
            check(code == 0 and result is not None and result["correct"],
                  f"{name} trace={trace}: exit 0 with a correct result")
            if result is None:
                continue
            check(metric_units(result) == declared[trace],
                  f"{name} trace={trace}: metric names and units match "
                  "BENCHMARK.json")
            check(all(isinstance(m["value"], (int, float))
                      for m in result["metrics"].values()),
                  f"{name} trace={trace}: every metric has a number")
            digests[trace] = digest
        check(digests.get(0) is not None and digests.get(0) == digests.get(1),
              f"{name}: the traced run reproduces the untraced digest")
        code, result, digest = run(spec, name, 2, 0)
        check(code == 0 and result is not None and digest is not None
              and digest != digests.get(0),
              f"{name}: a second seed changes the digest")
        check(result is not None and
              metric_units(result) == declared[0],
              f"{name}: a second seed keeps the metric set")
        code, result, _ = run(spec, name, 1, 0, "--inject-check-failure")
        check(code != 0 and (result is None or not result["correct"]),
              f"{name}: a forced check failure exits non-zero")

    # Only BENCHMARK.json and the benchmark's own files: no simulator
    # sources to build, so the command must fail and print no result.
    shutil.rmtree(BARE_DIR, ignore_errors=True)
    os.makedirs(BARE_DIR)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), BARE_DIR)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path),
                        os.path.join(BARE_DIR, path))
    code, result, _ = run(spec, spec["workloads"][0]["name"], 1, 0,
                          cwd=BARE_DIR)
    check(code != 0 and result is None,
          "a directory without the simulator sources fails with no result")
    shutil.rmtree(BARE_DIR, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
