#!/usr/bin/env python3
"""Exit-code tests for the first-divergence localizer.

Usage: test_trace_divergence.py

scripts/trace_divergence.py documents exit 0 for identical provenance
files, 1 for a divergence and 2 for usage or input errors. This checks
each code on small synthetic provenance files: a file against itself
(0), one flipped `bits` field (1), and a truncated file, a missing file,
a valid-JSON line that is not an object and a key field of the wrong
type (2, with a one-line message and no traceback).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPTS = os.path.dirname(os.path.abspath(__file__))
LOCALIZER = os.path.join(SCRIPTS, "trace_divergence.py")


def record(index, bits):
    return {"frame": 0, "scope": "epoch", "site": "cpu_sum", "kind": "chunk",
            "index": index, "sub_index": -1, "spec": "serial", "seq": 0,
            "bits": bits, "elements": 64}


RECORDS = [record(i, "%016x" % (0x3ff0000000000000 + i)) for i in range(4)]


def jsonl(records):
    return "".join(json.dumps(r) + "\n" for r in records)


class TraceDivergenceExitCodes(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.good = self.write("good.jsonl", jsonl(RECORDS))

    def write(self, name, text):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as out:
            out.write(text)
        return path

    def run_localizer(self, path_a, path_b):
        return subprocess.run([sys.executable, LOCALIZER, path_a, path_b],
                              capture_output=True, text=True)

    def assert_input_error(self, result):
        self.assertEqual(result.returncode, 2, result.stdout + result.stderr)
        self.assertNotIn("Traceback", result.stderr)
        self.assertEqual(len(result.stderr.splitlines()), 1, result.stderr)
        self.assertTrue(result.stderr.startswith("error: "), result.stderr)

    def test_identical_files_exit_0(self):
        self.assertEqual(self.run_localizer(self.good, self.good).returncode,
                         0)

    def test_one_flipped_bits_exits_1(self):
        flipped = [dict(r) for r in RECORDS]
        flipped[2]["bits"] = "%016x" % (int(flipped[2]["bits"], 16) ^ 1)
        result = self.run_localizer(self.good,
                                    self.write("flip.jsonl", jsonl(flipped)))
        self.assertEqual(result.returncode, 1)
        self.assertIn("FIRST DIVERGENCE", result.stdout)

    def test_truncated_file_exits_2(self):
        text = jsonl(RECORDS)
        truncated = self.write("cut.jsonl", text[:len(text) - 20])
        self.assert_input_error(self.run_localizer(self.good, truncated))

    def test_missing_file_exits_2(self):
        missing = os.path.join(self.tmp.name, "missing.jsonl")
        self.assert_input_error(self.run_localizer(missing, self.good))

    def test_non_object_line_exits_2(self):
        scalar = self.write("scalar.jsonl", jsonl(RECORDS) + "42\n")
        self.assert_input_error(self.run_localizer(self.good, scalar))

    def test_mistyped_key_field_exits_2(self):
        mistyped = [dict(r) for r in RECORDS]
        mistyped[1]["index"] = "one"
        path = self.write("mistyped.jsonl", jsonl(mistyped))
        self.assert_input_error(self.run_localizer(self.good, path))


if __name__ == "__main__":
    unittest.main()
