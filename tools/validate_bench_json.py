#!/usr/bin/env python3
"""Schema validation for the BENCH_*.json trajectory files.

Usage: validate_bench_json.py FILE...

Each file must parse as JSON, carry the shared envelope (a known bench
name and a non-empty rows array), and every row must provide the
per-bench required fields. CI runs this over the perf-smoke outputs so a
schema drift (renamed field, truncated write, NaN) fails the build
instead of silently corrupting the perf trajectory.
"""

import json
import math
import sys

# bench name -> fields every row must carry, with JSON number values.
ROW_FIELDS = {
    "engine_throughput": [
        "policy", "producers", "workers", "seconds", "updates_per_sec",
        "epochs", "p50_flush_ms", "p99_flush_ms", "applied_inserts",
        "applied_removes",
        # Per-phase pipeline decomposition (us, summed over the cell's
        # flushes; EngineStats::PhaseTotals).
        "drain_us", "coalesce_us", "apply_us", "om_compact_us",
        "publish_us", "worker_busy_us", "worker_idle_us",
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
    "durability": [
        "mode", "producers", "workers", "seconds", "updates_per_sec",
        "epochs", "p99_flush_ms",
        # Where the overhead lives: the wal/checkpoint slices of the
        # flush window plus the WAL's physical write totals.
        "wal_us", "checkpoint_us", "wal_frames", "wal_bytes", "wal_fsyncs",
        "checkpoints",
    ],
    "overload": [
        "mode", "cap", "producers", "workers", "seconds",
        "updates_per_sec", "epochs", "p99_flush_ms",
        # What each admission policy actually did to the stream.
        "shed", "block_waits", "blocked_us", "compacted",
        "overload_flushes",
    ],
}

# Optional off/on overhead cell pairs (bench_engine_throughput emits
# obs_overhead, bench_durability emits wal_overhead, bench_overload
# emits admission_overhead). Same field triple for all.
OVERHEAD_OBJECTS = ("obs_overhead", "wal_overhead", "admission_overhead")

STRING_FIELDS = {"policy", "workload", "mode", "algo"}


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

    for name in OVERHEAD_OBJECTS:
        overhead = doc.get(name)
        if overhead is None:
            continue
        if not isinstance(overhead, dict):
            return fail(path, f"'{name}' is not an object")
        for field in ("off_updates_per_sec", "on_updates_per_sec",
                      "overhead_pct"):
            value = overhead.get(field)
            if not isinstance(value, (int, float)) or (
                    isinstance(value, float) and not math.isfinite(value)):
                return fail(path, f"{name} field '{field}' not a "
                                  f"finite number (got {value!r})")

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
            elif not isinstance(value, (int, float)) or (
                    isinstance(value, float) and not math.isfinite(value)):
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
