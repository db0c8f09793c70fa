#!/usr/bin/env python3
"""First-divergence localizer over two provenance.jsonl files.

Each line of a provenance file (obs::Recorder::write_provenance_jsonl) is
one bit-provenance record: a fingerprint of the exact bit pattern some
site produced, keyed by *logical* coordinates (frame / scope / site /
kind / index / sub_index / spec) that are invariant to thread count and
OS scheduling. Two runs of a reproducible configuration therefore emit
identical files; when a run is NOT reproducible, the earliest record
whose bits differ names the first site where the computations parted -
which kernel, which chunk, which bucket, which wire step.

Usage:
    trace_divergence.py A.jsonl B.jsonl [--context N] [--quiet]

Exit codes: 0 identical, 1 diverged (or structurally mismatched),
2 usage/IO error.
"""

import argparse
import json
import sys

# The canonical record ordering (must match obs::provenance_less): every
# component is a logical coordinate, so sorting makes line order itself
# reproducible and lets us walk both files in lockstep.
KEY_FIELDS = ("frame", "scope", "site", "kind", "index", "sub_index",
              "spec", "seq")


class InputError(Exception):
    """An unreadable, truncated or malformed provenance file (exit 2)."""


def key_of(rec):
    return tuple(rec.get(f, "") for f in KEY_FIELDS)


def load_records(path):
    records = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as err:
                    raise InputError(f"{path}:{lineno}: not valid JSON "
                                     f"(truncated?): {err}") from None
                if not isinstance(rec, dict):
                    raise InputError(
                        f"{path}:{lineno}: not a JSON object: {line[:40]}")
                records.append(rec)
    except (OSError, UnicodeDecodeError) as err:
        raise InputError(f"cannot read {path}: {err}") from None
    try:
        records.sort(key=key_of)
    except TypeError as err:
        raise InputError(f"{path}: mistyped key field: {err}") from None
    return records


def describe(rec):
    """Human-oriented site description: kernel, kind, and coordinates."""
    parts = [f"site={rec.get('site', '?')}", f"kind={rec.get('kind', '?')}"]
    index = rec.get("index", -1)
    sub_index = rec.get("sub_index", -1)
    if index is not None and index >= 0:
        kind = rec.get("kind", "")
        label = {"chunk": "chunk", "row_block": "block", "bucket": "bucket",
                 "wire_step": "step", "partial": "partial",
                 "combine_step": "step"}.get(kind, "index")
        parts.append(f"{label}={index}")
    if sub_index is not None and sub_index >= 0:
        kind = rec.get("kind", "")
        sub_label = {"wire_step": "receiver",
                     "combine_step": "operand"}.get(kind, "sub_index")
        parts.append(f"{sub_label}={sub_index}")
    scope = rec.get("scope", "")
    if scope:
        parts.append(f"scope={scope}")
    frame = rec.get("frame", 0)
    if frame:
        parts.append(f"frame={frame}")
    spec = rec.get("spec", "")
    if spec:
        parts.append(f"spec={spec}")
    parts.append(f"elements={rec.get('elements', '?')}")
    return " ".join(str(p) for p in parts)


def main(argv):
    parser = argparse.ArgumentParser(
        description="Report the earliest divergent bit-provenance record "
                    "between two runs.")
    parser.add_argument("file_a")
    parser.add_argument("file_b")
    parser.add_argument("--context", type=int, default=0, metavar="N",
                        help="also print up to N further divergent records")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the all-clear message")
    args = parser.parse_args(argv)

    try:
        a = load_records(args.file_a)
        b = load_records(args.file_b)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    # Structural mismatch (a record present in only one run) is itself a
    # divergence: the runs executed different logical work.
    keys_a = {key_of(r) for r in a}
    keys_b = {key_of(r) for r in b}
    only_a = sorted(keys_a - keys_b)
    only_b = sorted(keys_b - keys_a)

    by_key_b = {key_of(r): r for r in b}
    divergent = []
    for rec in a:
        other = by_key_b.get(key_of(rec))
        if other is None:
            continue
        if rec.get("bits") != other.get("bits"):
            divergent.append((rec, other))

    if not divergent and not only_a and not only_b:
        if not args.quiet:
            print(f"identical: {len(a)} provenance records match bit for bit")
        return 0

    if divergent:
        first, other = divergent[0]
        print("FIRST DIVERGENCE")
        print(f"  {describe(first)}")
        print(f"  bits A: {first.get('bits')}")
        print(f"  bits B: {other.get('bits')}")
        print(f"  ({len(divergent)} divergent record(s) of "
              f"{len(a)} compared)")
        for extra_a, extra_b in divergent[1:1 + max(0, args.context)]:
            print(f"  also: {describe(extra_a)} "
                  f"A={extra_a.get('bits')} B={extra_b.get('bits')}")
    if only_a:
        print(f"records only in {args.file_a}: {len(only_a)} "
              f"(first: {only_a[0]})")
    if only_b:
        print(f"records only in {args.file_b}: {len(only_b)} "
              f"(first: {only_b[0]})")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
