#!/usr/bin/env python3
"""Validate the committed perf trajectory, one JSON object per line.

Each line records one end-to-end benchmark median before and after a
performance change:

    pr        the change's sequence number
    commit    the parent commit the `parent` column was measured at
    workload  the perfbench workload (BENCHMARK.json `workloads`)
    metric    the end-to-end metric (BENCHMARK.json `end_to_end`)
    parent    median at the parent commit
    change    median with the change applied, same host and seed
    unit      the metric's unit
    host      the machine both medians come from

Usage: python3 ci/check_trajectory.py [ci/bench-trajectory.jsonl]

Exits 1 naming the first line that does not parse as a JSON object or
lacks a field; exits 0 otherwise.
"""

import json
import sys

FIELDS = ("pr", "commit", "workload", "metric", "parent", "change", "unit", "host")


def check(path):
    """Returns the number of valid lines; raises ValueError on the first bad one."""
    count = 0
    with open(path, encoding="utf-8") as lines:
        for number, line in enumerate(lines, 1):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise ValueError(f"{path}:{number}: not JSON ({err})") from None
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{number}: not a JSON object")
            missing = [field for field in FIELDS if field not in record]
            if missing:
                raise ValueError(f"{path}:{number}: missing {', '.join(missing)}")
            count += 1
    return count


def main(argv):
    path = argv[1] if len(argv) > 1 else "ci/bench-trajectory.jsonl"
    try:
        count = check(path)
    except (OSError, ValueError) as err:
        print(f"check_trajectory: {err}", file=sys.stderr)
        return 1
    print(f"check_trajectory: {path}: {count} line(s) ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
