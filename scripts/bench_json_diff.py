#!/usr/bin/env python3
"""CI determinism gate over two bench --json dumps.

Usage: bench_json_diff.py RUN1.json RUN2.json

A bench emits {"bench": name, "tables": [{"name", "headers", "rows"}]}.
For every row whose reproducibility column ("reproducible" or
"run-to-run stable") reads "yes", the bit-pattern columns (headers
containing "bits" or "ulps") must be byte-identical across the two runs.
Timing columns are free to move. The gate fails (exit 1) on any drift,
on structural mismatch (including a row shorter than its headers), on a
dump that cannot be read or parsed (e.g. truncated), or if no row was
gated at all (a vacuous pass would hide a bench that stopped emitting
its reproducibility column).
"""

import json
import sys

REPRO_HEADERS = {"reproducible", "run-to-run stable"}


def bit_columns(headers):
    return [i for i, h in enumerate(headers) if "bits" in h or "ulps" in h]


def repro_column(headers):
    for i, h in enumerate(headers):
        if h in REPRO_HEADERS:
            return i
    return None


def load(path):
    """The parsed dump; an unreadable or unparsable one fails the gate."""
    try:
        with open(path) as handle:
            dump = json.load(handle)
    except (OSError, ValueError) as err:
        print("bench_json_diff: FAIL - cannot parse %s: %s" % (path, err))
        sys.exit(1)
    if not isinstance(dump, dict):
        print("bench_json_diff: FAIL - %s is not a JSON object" % path)
        sys.exit(1)
    return dump


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip())
    run_a = load(sys.argv[1])
    run_b = load(sys.argv[2])

    failures = []
    gated_rows = 0

    if run_a.get("bench") != run_b.get("bench"):
        failures.append("bench names differ: %r vs %r"
                        % (run_a.get("bench"), run_b.get("bench")))

    tables_a, tables_b = run_a.get("tables", []), run_b.get("tables", [])
    if len(tables_a) != len(tables_b):
        failures.append("table counts differ: %d vs %d"
                        % (len(tables_a), len(tables_b)))

    for ta, tb in zip(tables_a, tables_b):
        name = ta.get("name", "?")
        if ta.get("headers") != tb.get("headers"):
            failures.append("table %r: headers differ" % name)
            continue
        headers = ta["headers"]
        repro = repro_column(headers)
        bits = bit_columns(headers)
        if not bits:
            # Nothing to compare: don't let such a table's rows satisfy
            # the anti-vacuous-pass count below (a bench whose gated
            # table stopped emitting its bit columns must still fail).
            continue
        rows_a, rows_b = ta.get("rows", []), tb.get("rows", [])
        if len(rows_a) != len(rows_b):
            failures.append("table %r: row counts differ: %d vs %d"
                            % (name, len(rows_a), len(rows_b)))
            continue
        for idx, (ra, rb) in enumerate(zip(rows_a, rows_b)):
            if min(len(ra), len(rb)) < len(headers):
                failures.append("table %r row %d: %d/%d cells for %d headers"
                                % (name, idx, len(ra), len(rb), len(headers)))
                continue
            if repro is not None and ra[repro] != "yes":
                continue
            gated_rows += 1
            for col in bits:
                if ra[col] != rb[col]:
                    failures.append(
                        "table %r row %d (%s): column %r drifted: %r vs %r"
                        % (name, idx, " ".join(ra[:3]), headers[col],
                           ra[col], rb[col]))

    if gated_rows == 0:
        failures.append("no reproducible rows were gated - "
                        "did the bench stop emitting its columns?")

    if failures:
        print("bench_json_diff: FAIL (%d)" % len(failures))
        for failure in failures:
            print("  - " + failure)
        sys.exit(1)
    print("bench_json_diff: OK - %d reproducible rows bit-identical "
          "across runs (%s)" % (gated_rows, run_a.get("bench")))


if __name__ == "__main__":
    main()
