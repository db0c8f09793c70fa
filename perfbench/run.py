#!/usr/bin/env python3
"""Build and run the fpna benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
module libraries and fpna_perfbench (Release) into .bench_build/perfbench;
later runs only bring that build up to date. Its standard output is
passed through, so the last line is the result JSON. A traced run
also writes its spans to .bench_build/perfbench/trace-<workload>-<seed>.json.

Extra flags (--corrupt-op, --dump-inputs) are passed to fpna_perfbench; the
benchmark's tests use them.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "fpna_perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, timeout):
    """Runs a build step; its output goes to stderr only if it fails."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{cmd[0]} failed: {e}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail(f"{' '.join(cmd)} exited with {proc.returncode}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no fpna sources at src/ next to perfbench/; "
             "run from the root of a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", BUILD, "-j4"], BUILD_TIMEOUT_S)


def recorded_fingerprint(workload, seed):
    """The output fingerprint recorded for this workload and seed, if any."""
    with open(os.path.join(HERE, "fingerprints.json")) as f:
        entry = json.load(f).get(workload)
    if entry is not None and entry["seed"] == seed:
        return entry["fingerprint"]
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--corrupt-op", type=int)
    parser.add_argument("--dump-inputs", action="store_true")
    args = parser.parse_args()
    if not args.dump_inputs and (args.seconds is None or args.trace is None):
        parser.error("--seconds and --trace are required")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed)]
    if args.dump_inputs:
        cmd.append("--dump-inputs")
    else:
        cmd += ["--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.trace == 1:
            cmd += ["--trace-out", os.path.join(
                BUILD, f"trace-{args.workload}-{args.seed}.json")]
        expected = recorded_fingerprint(args.workload, args.seed)
        if expected is not None:
            cmd += ["--expect-fingerprint", expected]
    if args.corrupt_op is not None:
        cmd += ["--corrupt-op", str(args.corrupt_op)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"fpna_perfbench did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
