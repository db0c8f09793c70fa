#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

They check that generated inputs are a pure function of the seed, that
the printed workload and metric names match BENCHMARK.json, that an
injected single-bit corruption of one op's output is counted as a failed
op, that the recorded infer-nd fingerprint is enforced, that the exact
traffic counts per training step do not depend on the run's length, and
that the benchmark refuses to run without the library sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT, check=True):
    proc = subprocess.run(RUN + [str(a) for a in args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    if check and proc.returncode != 0:
        raise AssertionError(f"{args} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def result(*args):
    return json.loads(run(*args).stdout.strip().splitlines()[-1])


class InputsTest(unittest.TestCase):
    def test_inputs_are_a_pure_function_of_the_seed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = result("--workload", w, "--seed", 7, "--dump-inputs")
                b = result("--workload", w, "--seed", 7, "--dump-inputs")
                c = result("--workload", w, "--seed", 8, "--dump-inputs")
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)


class NamesTest(unittest.TestCase):
    def check(self, out, wanted):
        self.assertEqual(set(out["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(out["metrics"][m["name"]]["unit"], m["unit"])
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})

    def test_untraced_runs_print_the_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                out = result("--workload", w, "--seed", 3, "--seconds", 1,
                             "--trace", 0)
                self.check(out, SPEC["end_to_end"])
                self.assertTrue(out["correct"])
                self.assertEqual(out["failed"], 0)
                self.assertGreater(out["attempted"], 0)

    def test_traced_runs_print_the_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                out = result("--workload", w, "--seed", 3, "--seconds", 2,
                             "--trace", 1)
                self.check(out, SPEC["per_layer"])
                self.assertTrue(out["correct"])

    def test_traffic_per_step_does_not_depend_on_run_length(self):
        # The ProcessGroup ledger gives exact counts: one traced step moves
        # the same bytes and messages whatever the run's length.
        runs = [result("--workload", "train-ddp", "--seed", 3, "--seconds",
                       s, "--trace", 1)["metrics"] for s in (1, 3)]
        for name in ("comm.bytes_per_step", "comm.messages_per_step"):
            self.assertEqual(runs[0][name]["value"], runs[1][name]["value"])

    def test_unknown_workload_is_refused(self):
        proc = run("--workload", "no-such", "--seed", 1, "--seconds", 1,
                   "--trace", 0, check=False)
        self.assertNotEqual(proc.returncode, 0)


class CorruptionTest(unittest.TestCase):
    def test_one_flipped_bit_counts_as_a_failed_op(self):
        for w in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    out = result("--workload", w, "--seed", 5, "--seconds", 1,
                                 "--trace", trace, "--corrupt-op", 3)
                    self.assertEqual(out["failed"], 1)
                    self.assertFalse(out["correct"])


class FingerprintTest(unittest.TestCase):
    def test_recorded_fingerprint_holds_traced_and_untraced(self):
        with open(os.path.join(HERE, "fingerprints.json")) as f:
            entry = json.load(f)["infer-nd"]
        for trace in (0, 1):
            proc = run("--workload", "infer-nd", "--seed", entry["seed"],
                       "--seconds", 1, "--trace", trace)
            lines = [json.loads(l) for l in proc.stdout.strip().splitlines()]
            printed = [l["output_fingerprint"] for l in lines
                       if "output_fingerprint" in l]
            self.assertEqual(printed, [entry["fingerprint"]])
            self.assertTrue(lines[-1]["correct"])

    def test_a_different_fingerprint_fails_the_run(self):
        binary = os.path.join(ROOT, ".bench_build", "perfbench",
                              "fpna_perfbench")
        run("--workload", "infer-nd", "--seed", 1, "--dump-inputs")  # builds
        proc = subprocess.run(
            [binary, "--workload", "infer-nd", "--seed", "1", "--seconds",
             "1", "--trace", "0", "--expect-fingerprint", "0" * 16],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
        self.assertFalse(json.loads(proc.stdout.splitlines()[-1])["correct"])


class BareDirectoryTest(unittest.TestCase):
    def test_refuses_without_the_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
