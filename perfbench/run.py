#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One measured run. The last stdout line is the JSON result.
  python3 perfbench/run.py --smoke
      Every workload of BENCHMARK.json at a small size, untraced and
      traced; checks that each names every metric with its unit.
  python3 perfbench/run.py --overhead --workload NAME --seed N --seconds S
      Runs untraced, then traced, and prints traced minus untraced for
      each end-to-end metric.

The benchmark builds itself from source into .bench_build/ (CMake,
Release) on first use and rebuilds incrementally afterwards.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "seagull_perfbench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "seagull_perfbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def git_commit():
    """The checkout's git commit, or "unknown" outside a repository."""
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_binary(workload, seed, seconds, trace, smoke=False, echo=True):
    """Runs one benchmark process; returns (result, measured) or None."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--commit", git_commit()]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return None
    lines = proc.stdout.rstrip("\n").split("\n")
    if echo:
        for line in lines[:-1]:
            print(line)
    if proc.returncode != 0:
        log("perfbench: benchmark exited with %d" % proc.returncode)
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("perfbench: last line is not a JSON result")
        return None
    if set(result) != RESULT_KEYS:
        log("perfbench: result keys are %s" % sorted(result))
        return None
    measured = None
    for line in lines:
        if line.startswith("measured: "):
            measured = json.loads(line[len("measured: "):])
    return result, measured


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def smoke():
    spec = load_spec()
    problems = []
    for workload in spec["workloads"]:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            name = workload["name"]
            got = run_binary(name, 1, 2, trace, smoke=True, echo=False)
            if got is None:
                problems.append("%s trace=%d: run failed" % (name, trace))
                continue
            result, _ = got
            want = {m["name"]: m["unit"] for m in spec[section]}
            have = {k: v["unit"] for k, v in result["metrics"].items()}
            if have != want:
                missing = sorted(set(want) - set(have))
                extra = sorted(set(have) - set(want))
                wrong = sorted(k for k in set(want) & set(have)
                               if want[k] != have[k])
                problems.append("%s trace=%d: missing %s extra %s unit %s" %
                                (name, trace, missing, extra, wrong))
            if not result["correct"] or result["failed"]:
                problems.append("%s trace=%d: correct=%s failed=%d" %
                                (name, trace, result["correct"],
                                 result["failed"]))
            print("smoke %-18s trace=%d  %3d metrics  attempted %d" %
                  (name, trace, len(have), result["attempted"]))
    for p in problems:
        print("SMOKE FAILED: " + p)
    return 0 if not problems else 1


def overhead(args):
    runs = {}
    for trace in (False, True):
        got = run_binary(args.workload, args.seed, args.seconds, trace,
                         echo=False)
        if got is None or got[1] is None:
            return 1
        runs[trace] = got[1]["end_to_end"]
    print("tracing overhead on %s (seed %d, %g s): traced - untraced" %
          (args.workload, args.seed, args.seconds))
    for name in sorted(runs[False]):
        off, on = runs[False][name]["value"], runs[True][name]["value"]
        rel = (on - off) / off if off else 0.0
        print("  %-24s %14.4f -> %14.4f  %+12.4f %-5s (%+.1f%%)" %
              (name, off, on, on - off, runs[False][name]["unit"], 100 * rel))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args()
    if not build():
        return 1
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")
    if args.overhead:
        return overhead(args)
    got = run_binary(args.workload, args.seed, args.seconds, bool(args.trace))
    if got is None:
        return 1
    print(json.dumps(got[0], separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
