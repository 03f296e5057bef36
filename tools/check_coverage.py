#!/usr/bin/env python3
"""Per-directory line-coverage gate for the tier-1 test suite.

CI builds with -DPB_COVERAGE=ON (Clang: source-based instrumentation),
runs ctest, exports one llvm-cov JSON summary over every test binary, and
gates it against the checked-in floors:

    llvm-cov export -summary-only -format=json \
        -instr-profile merged.profdata ./test_foo -object ./test_bar ... \
        > coverage.json
    python3 tools/check_coverage.py coverage.json

Floors live in tools/coverage_floors.json, keyed by source directory
("src/core", "src/db", ...) with a minimum line-coverage percentage each.
A directory dropping below its floor fails the gate; directories without a
floor are reported but never fail (new code earns a floor when it is
seeded). Floors are deliberately a few points below measured coverage so
the gate catches "forgot to test the new subsystem", not formatting churn.

Seeding / refreshing floors (works with a GCC --coverage build too, via
gcov's JSON output — handy where only GCC is installed):

    cmake -B build-cov -S . -DPB_COVERAGE=ON && cmake --build build-cov
    (cd build-cov && ctest && gcov --json-format \
        $(find . -name '*.gcno') >/dev/null)
    python3 tools/check_coverage.py --gcov-dir build-cov \
        --write-floors --margin 10

(No `gcov -r`: CMake compiles sources by absolute path, and -r keeps only
relative ones, which drops every src/ file.)

Exit codes: 0 = every floored directory at or above its floor,
1 = a floor violated (or the report was empty), 2 = usage error.
"""

import argparse
import glob
import gzip
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FLOORS_PATH = os.path.join(REPO_ROOT, "tools", "coverage_floors.json")


def source_dir(path):
    """Maps an absolute/relative source path to its floor key ("src/core"),
    or None for files outside src/ (tests, examples, system headers)."""
    path = os.path.normpath(path)
    if path.startswith(REPO_ROOT):
        path = os.path.relpath(path, REPO_ROOT)
    parts = path.split(os.sep)
    if "src" in parts:
        i = parts.index("src")
        if i + 1 < len(parts) - 1:  # src/<dir>/<file...>
            return os.path.join("src", parts[i + 1])
    return None


def load_llvm_export(path):
    """Per-file (lines_total, lines_covered) from `llvm-cov export
    -summary-only -format=json`."""
    with open(path) as f:
        data = json.load(f)
    out = {}
    for export in data.get("data", []):
        for entry in export.get("files", []):
            lines = entry.get("summary", {}).get("lines", {})
            out[entry["filename"]] = (int(lines.get("count", 0)),
                                      int(lines.get("covered", 0)))
    return out


def load_gcov_dir(build_dir):
    """Per-file (lines_total, lines_covered) from gcov --json-format output
    (*.gcov.json.gz files under build_dir)."""
    out = {}
    for path in glob.glob(os.path.join(build_dir, "**", "*.gcov.json.gz"),
                          recursive=True):
        with gzip.open(path, "rt") as f:
            data = json.load(f)
        for entry in data.get("files", []):
            lines = [l for l in entry.get("lines", [])]
            if not lines:
                continue
            total = len(lines)
            covered = sum(1 for l in lines if l.get("count", 0) > 0)
            # The same source file appears once per including translation
            # unit; keep the best observation (a line is covered if any
            # test binary executed it — mirrors llvm-cov's merged view
            # closely enough for a floor gate).
            prev = out.get(entry["file"])
            if prev is None or covered * max(prev[0], 1) > prev[1] * total:
                out[entry["file"]] = (total, covered)
    return out


def aggregate(per_file):
    """Collapses per-file line counts into {floor_key: percent}."""
    totals = {}
    for path, (count, covered) in per_file.items():
        key = source_dir(path)
        if key is None or count == 0:
            continue
        t, c = totals.get(key, (0, 0))
        totals[key] = (t + count, c + covered)
    return {key: 100.0 * c / t for key, (t, c) in totals.items() if t > 0}


def main():
    parser = argparse.ArgumentParser(
        description="Per-directory line-coverage floor gate")
    parser.add_argument("report", nargs="?",
                        help="llvm-cov export JSON (CI mode)")
    parser.add_argument("--gcov-dir",
                        help="build dir with gcov --json-format output "
                             "(GCC mode)")
    parser.add_argument("--floors", default=FLOORS_PATH,
                        help="floors file (default tools/coverage_floors."
                             "json)")
    parser.add_argument("--write-floors", action="store_true",
                        help="write measured coverage minus --margin as "
                             "the new floors instead of gating")
    parser.add_argument("--margin", type=float, default=10.0,
                        help="points subtracted from measured coverage "
                             "when seeding floors (default 10)")
    args = parser.parse_args()

    if bool(args.report) == bool(args.gcov_dir):
        parser.error("pass exactly one of <report> or --gcov-dir")
    try:
        per_file = (load_llvm_export(args.report) if args.report
                    else load_gcov_dir(args.gcov_dir))
    except (OSError, ValueError, KeyError) as e:
        print(f"FAIL: cannot load coverage report: {e}")
        return 1
    measured = aggregate(per_file)
    if not measured:
        print("FAIL: the coverage report contains no src/ files — "
              "empty or mis-pathed report (a gate that measures nothing "
              "must not pass)")
        return 1

    if args.write_floors:
        floors = {key: round(max(pct - args.margin, 1.0), 1)
                  for key, pct in sorted(measured.items())}
        with open(args.floors, "w") as f:
            json.dump(floors, f, indent=2, sort_keys=True)
            f.write("\n")
        for key, pct in sorted(measured.items()):
            print(f"{key}: measured {pct:.1f}% -> floor {floors[key]}%")
        print(f"wrote {args.floors}")
        return 0

    try:
        with open(args.floors) as f:
            floors = json.load(f)
    except (OSError, ValueError) as e:
        print(f"FAIL: cannot load floors file {args.floors}: {e}")
        return 1
    failures = []
    for key in sorted(set(floors) | set(measured)):
        floor = floors.get(key)
        pct = measured.get(key)
        if floor is None:
            print(f"[note] {key}: {pct:.1f}% (no floor yet — seed one "
                  "with --write-floors)")
        elif pct is None:
            failures.append(f"{key}: floored at {floor}% but absent from "
                            "the report — coverage collection lost it")
        elif pct < float(floor):
            failures.append(f"{key}: {pct:.1f}% < floor {floor}%")
        else:
            print(f"[ok] {key}: {pct:.1f}% (floor {floor}%)")
    if failures:
        print(f"\n{len(failures)} coverage floor violation(s):")
        for failure in failures:
            print(f"  FAIL {failure}")
        return 1
    print("OK: every floored directory at or above its floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
