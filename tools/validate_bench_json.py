#!/usr/bin/env python3
"""Schema validation for the BENCH_*.json trajectory files.

Usage: validate_bench_json.py FILE...

Each file must parse as JSON, carry the shared envelope (a known bench
name and a non-empty rows array) plus its bench's overhead pairs, and
every row must provide the per-bench required fields. CI runs this over the perf-smoke outputs so a
schema drift (renamed field, truncated write, NaN) fails the build
instead of silently corrupting the perf trajectory.
"""

import json
import math
import sys

# bench name -> fields every row must carry, with JSON number values.
ROW_FIELDS = {
    "engine": [
        "policy", "mode", "producers", "workers", "cap", "ops", "seconds",
        "updates_per_sec", "epochs", "p50_flush_ms", "p99_flush_ms",
        "applied_inserts", "applied_removes", "annihilated_pairs",
        "duplicates", "noops",
        # Per-phase pipeline decomposition (us, summed over the cell's
        # flushes; EngineStats::PhaseTotals).
        "drain_us", "coalesce_us", "wal_us", "apply_us", "om_compact_us",
        "checkpoint_us", "publish_us", "worker_busy_us", "worker_idle_us",
        # The WAL's physical write totals and what admission control
        # did to the stream (zero in rows that leave them off).
        "wal_frames", "wal_bytes", "wal_fsyncs", "checkpoints",
        "shed", "block_waits", "blocked_us", "compacted",
        "overload_flushes",
    ],
    "paper": ["workload", "algo", "workers", "insert_ms", "remove_ms"],
    "storage": [],  # storage rows are heterogeneous; envelope-only check
    "query_serving": [
        "mode", "batch", "epochs", "publish_us_mean", "publish_us_p50",
        "publish_us_p99", "pages_cloned", "read_mqps",
    ],
    "bulk_decompose": [
        "workload", "algo", "workers", "decompose_ms", "max_core", "rounds",
    ],
}

# bench name -> the off/on overhead pairs it must carry (CI gates each
# one's overhead_pct). `pairs` holds each rep's own overhead.
OVERHEADS = {
    "engine": ("obs_overhead", "wal_overhead", "admission_overhead"),
}

STRING_FIELDS = {"policy", "workload", "mode", "algo"}


def finite(value):
    return isinstance(value, (int, float)) and not isinstance(
        value, bool) and math.isfinite(value)


def fail(path, message):
    print(f"{path}: FAILED - {message}", file=sys.stderr)
    return 1


def validate(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, f"unreadable or invalid JSON ({e})")

    if not isinstance(doc, dict):
        return fail(path, "top level is not an object")
    bench = doc.get("bench")
    if not isinstance(bench, str) or not bench:
        return fail(path, "missing 'bench' name")
    if bench not in ROW_FIELDS:
        return fail(path, f"unknown bench {bench!r}")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        return fail(path, "missing or empty 'rows'")

    for name in OVERHEADS.get(bench, ()):
        overhead = doc.get(name)
        if not isinstance(overhead, dict):
            return fail(path, f"missing or malformed '{name}'")
        for field in ("off_updates_per_sec", "on_updates_per_sec",
                      "overhead_pct"):
            if not finite(overhead.get(field)):
                return fail(path, f"{name} field '{field}' not a "
                                  f"finite number "
                                  f"(got {overhead.get(field)!r})")
        pairs = overhead.get("pairs")
        if not isinstance(pairs, list) or not pairs or not all(
                finite(p) for p in pairs):
            return fail(path, f"{name} 'pairs' is not a non-empty array "
                              f"of finite numbers")

    required = ROW_FIELDS[bench]
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            return fail(path, f"row {i} is not an object")
        for field in required:
            if field not in row:
                return fail(path, f"row {i} lacks '{field}'")
            value = row[field]
            if field in STRING_FIELDS:
                if not isinstance(value, str) or not value:
                    return fail(path, f"row {i} field '{field}' not a string")
            elif not finite(value):
                return fail(path, f"row {i} field '{field}' not a finite "
                                  f"number (got {value!r})")
    print(f"{path}: ok ({bench}, {len(rows)} rows)")
    return 0


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    return max(validate(p) for p in argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
