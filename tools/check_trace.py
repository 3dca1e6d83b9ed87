#!/usr/bin/env python3
"""Validates a Chrome trace-event JSON file produced by --trace-out or by
the repository benchmark (perfbench/run.py --trace 1).

Checks, per (pid, tid) lane:
  - the file parses as strict JSON with the expected top-level shape,
  - duration events ('B'/'E') appear with monotonically non-decreasing
    timestamps in file order (Perfetto requires in-order spans per track),
  - every 'B' has a matching 'E' (balanced, properly nested).

Instant ('i') and metadata ('M') events are checked for required fields but
not for ordering. Exit 0 = valid, 1 = violation, 2 = usage/IO error.

Usage: check_trace.py FILE.json
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict


def fail(msg: str) -> None:
    print(f"check_trace: FAIL: {msg}")
    sys.exit(1)


def check_lanes(events: list) -> dict:
    """Base validation: shapes, per-lane ordering, balanced B/E."""
    last_ts: dict[tuple[int, int], float] = {}
    open_spans: dict[tuple[int, int], list[str]] = defaultdict(list)
    counts = defaultdict(int)

    for i, e in enumerate(events):
        if not isinstance(e, dict):
            fail(f"event {i} is not an object")
        ph = e.get("ph")
        if ph not in ("B", "E", "i", "M"):
            fail(f"event {i}: unexpected phase {ph!r}")
        counts[ph] += 1
        if ph == "M":
            if "name" not in e or "pid" not in e:
                fail(f"metadata event {i} lacks name/pid")
            continue
        for field in ("name", "ts", "pid", "tid"):
            if field not in e:
                fail(f"event {i} ({ph}) lacks required field '{field}'")
        lane = (e["pid"], e["tid"])
        if ph == "i":
            continue
        ts = e["ts"]
        if lane in last_ts and ts < last_ts[lane]:
            fail(
                f"event {i}: timestamp {ts} < {last_ts[lane]} on lane "
                f"pid={lane[0]} tid={lane[1]} (spans must be in order)"
            )
        last_ts[lane] = ts
        if ph == "B":
            open_spans[lane].append(e["name"])
        else:  # 'E'
            if not open_spans[lane]:
                fail(
                    f"event {i}: 'E' with no open 'B' on lane "
                    f"pid={lane[0]} tid={lane[1]}"
                )
            open_spans[lane].pop()

    for lane, stack in open_spans.items():
        if stack:
            fail(
                f"{len(stack)} unclosed 'B' event(s) on lane "
                f"pid={lane[0]} tid={lane[1]} (first: {stack[0]!r})"
            )

    total = sum(counts.values())
    print(
        f"check_trace: OK: {total} events "
        f"(B/E={counts['B']}/{counts['E']}, i={counts['i']}, M={counts['M']}) "
        f"across {len(last_ts)} lanes"
    )
    return counts


def main() -> None:
    parser = argparse.ArgumentParser(
        prog="check_trace.py",
        description="Validate a Chrome trace-event JSON file.",
    )
    parser.add_argument("file", metavar="FILE.json")
    args = parser.parse_args()

    try:
        with open(args.file, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_trace: cannot load '{args.file}': {e}")
        sys.exit(2)

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail("top level must be an object with a 'traceEvents' array")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail("'traceEvents' is not an array")

    check_lanes(events)


if __name__ == "__main__":
    main()
