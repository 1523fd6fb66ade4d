#!/usr/bin/env python3
"""Compares the count-unit metrics of two perfbench results.

    python3 tools/diff_perfbench_counters.py A.json B.json [--allow NAME ...]

Each file holds the output of one perfbench run (perfbench/run.py); its
last line that parses as JSON is the result. Every metric whose unit is
"count" in either result is compared, and each one that differs (or is
missing from one side) is printed with both values. Counters are
deterministic, so two runs of one commit and seed agree exactly; wall-time
metrics are ignored. An --allow NAME (a metric name or an fnmatch pattern
such as 'exec.q*.fold_join.rows_out') lets a known difference through.

Exit status: 0 when every differing counter is allowed, 1 when one is not,
2 when a file cannot be read.
"""

import argparse
import fnmatch
import json
import sys


def last_json_line(path):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    for line in reversed(lines):
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            return json.loads(line)
        except json.JSONDecodeError:
            continue
    raise ValueError(f"{path}: no JSON result line")


def counters(result):
    return {name: m.get("value")
            for name, m in result.get("metrics", {}).items()
            if m.get("unit") == "count"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--allow", nargs="+", default=[], metavar="NAME")
    args = parser.parse_args()
    try:
        a = counters(last_json_line(args.a))
        b = counters(last_json_line(args.b))
    except (OSError, ValueError) as err:
        print(f"diff_perfbench_counters: {err}", file=sys.stderr)
        return 2

    failed = False
    for name in sorted(set(a) | set(b)):
        if a.get(name) == b.get(name):
            continue
        allowed = any(fnmatch.fnmatchcase(name, p) for p in args.allow)
        failed = failed or not allowed
        print(f"{name}: {a.get(name, 'missing')} -> {b.get(name, 'missing')}"
              f"{' (allowed)' if allowed else ''}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
