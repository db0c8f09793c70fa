#!/usr/bin/env python3
"""Negative tests for the bench-json determinism gate.

Usage: test_bench_json_diff.py [SNAPSHOT.json]

A gate that cannot fail proves nothing. Starting from a committed dump
(default: BENCH_bucketed_allreduce.json at the repository root), this
checks that scripts/bench_json_diff.py
  * passes the dump against itself (exit 0),
  * fails (exit 1) when one bit of one gated bits column is flipped,
  * fails (exit 1) on a dump in which no row is gated,
  * fails (exit 1, one FAIL line, no traceback) on a truncated dump and
    on a row shorter than its headers.
"""

import copy
import json
import os
import string
import subprocess
import sys
import tempfile
import unittest

SCRIPTS = os.path.dirname(os.path.abspath(__file__))
GATE = os.path.join(SCRIPTS, "bench_json_diff.py")
sys.path.insert(0, SCRIPTS)
import bench_json_diff  # noqa: E402  (the gate's own column rules)

SNAPSHOT = os.path.join(os.path.dirname(SCRIPTS),
                        "BENCH_bucketed_allreduce.json")


def gate(dump_a, dump_b):
    """The gate's completed run; a str dump is written verbatim."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, dump in (("a.json", dump_a), ("b.json", dump_b)):
            path = os.path.join(tmp, name)
            with open(path, "w") as out:
                if isinstance(dump, str):
                    out.write(dump)
                else:
                    json.dump(dump, out)
            paths.append(path)
        return subprocess.run([sys.executable, GATE] + paths,
                              capture_output=True, text=True)


def run_gate(dump_a, dump_b):
    return gate(dump_a, dump_b).returncode


def gated_cells(dump):
    """(table, row, column) of every bits cell the gate compares."""
    for t, table in enumerate(dump["tables"]):
        headers = table["headers"]
        repro = bench_json_diff.repro_column(headers)
        for col in bench_json_diff.bit_columns(headers):
            for r, row in enumerate(table["rows"]):
                if repro is None or row[repro] == "yes":
                    yield t, r, col


def flip_low_bit(cell):
    """The cell with the lowest bit of its last hex digit flipped."""
    digit = int(cell[-1], 16) ^ 1
    return cell[:-1] + ("%x" % digit if cell[-1].islower() else "%X" % digit)


class BenchJsonDiffGate(unittest.TestCase):
    def setUp(self):
        with open(SNAPSHOT) as f:
            self.dump = json.load(f)

    def test_snapshot_records_its_host(self):
        host = self.dump["host"]
        for key in ("cpu", "cores", "compiler", "build_type"):
            self.assertIn(key, host)

    def test_identical_dumps_pass(self):
        self.assertEqual(run_gate(self.dump, self.dump), 0)

    def test_one_flipped_bit_fails(self):
        def fingerprint(cell):
            t, r, col = cell
            table = self.dump["tables"][t]
            text = table["rows"][r][col]
            return ("bits" in table["headers"][col] and text != ""
                    and text[-1] in string.hexdigits)

        cells = [cell for cell in gated_cells(self.dump) if fingerprint(cell)]
        self.assertTrue(cells, "snapshot has no gated bits fingerprint")
        t, r, col = cells[0]
        flipped = copy.deepcopy(self.dump)
        row = flipped["tables"][t]["rows"][r]
        row[col] = flip_low_bit(row[col])
        self.assertEqual(run_gate(self.dump, flipped), 1)

    def test_dump_without_gated_row_fails(self):
        ungated = copy.deepcopy(self.dump)
        for table in ungated["tables"]:
            repro = bench_json_diff.repro_column(table["headers"])
            if repro is None:
                table["rows"] = []
            else:
                for row in table["rows"]:
                    row[repro] = "no"
        self.assertFalse(list(gated_cells(ungated)))
        self.assertEqual(run_gate(ungated, ungated), 1)

    def assert_clean_fail(self, result):
        self.assertEqual(result.returncode, 1)
        self.assertTrue(result.stdout.startswith("bench_json_diff: FAIL"),
                        result.stdout)
        self.assertNotIn("Traceback", result.stderr)

    def test_truncated_dump_fails(self):
        text = json.dumps(self.dump)
        result = gate(self.dump, text[:len(text) // 2])
        self.assert_clean_fail(result)
        self.assertEqual(len(result.stdout.splitlines()), 1)

    def test_short_row_fails(self):
        short = copy.deepcopy(self.dump)
        t, r, _ = next(gated_cells(short))
        row = short["tables"][t]["rows"][r]
        del row[1:]
        self.assert_clean_fail(gate(self.dump, short))


if __name__ == "__main__":
    if len(sys.argv) > 1 and not sys.argv[1].startswith("-"):
        SNAPSHOT = sys.argv.pop(1)
    unittest.main()
