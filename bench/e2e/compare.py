#!/usr/bin/env python3
"""Compares two sets of untraced benchmark runs, workload by workload.

    python3 bench/e2e/compare.py A_DIR B_DIR

A is the reference (the parent commit), B the candidate (the change).
Each directory holds the per-workload result files run.py writes
(<workload>-seed<S>[-rep<i>].json); traced and smoke runs are skipped.
So are runs whose correctness check failed; a workload with such a run
reads unresolved. Both sides must
have run for the same number of seconds. Runs of the two sides pair up
by (seed, rep), or by order when no key matches. For every workload x
end_to_end metric of BENCHMARK.json it prints each side's median and
quartiles, the share of pairs B wins, and a verdict:

  unresolved  a run of the workload was skipped, or either side's
              quartile spread exceeds the metric's bound and B is
              neither better nor worse in every run;
  worse       B's median is worse than A's by more than the bound;
  better      at least 10 pairs ran, B wins at least 9 of 10 of them,
              and the medians differ by more than A's own quartile
              spread (or, where the spread exceeds the bound, every run
              of B beats every run of A);
  unchanged   otherwise.

Exits 1 when any row is worse, unresolved or missing, 2 when the run
lengths differ, else 0.
"""

import json
import re
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"
MIN_PAIRS_FOR_GAIN = 10
RESULT = re.compile(
    r"^[a-z0-9-]+-seed(?P<seed>\d+)(?:-rep(?P<rep>\d+))?\.json$")


def load_runs(directory):
    """({workload: {(seed, rep): e2e metric dict}}, {workload: skipped},
    the set of run lengths seen). A run whose outputs were wrong is
    skipped, not compared."""
    runs, skipped, seconds = {}, {}, set()
    for path in sorted(Path(directory).glob("*.json")):
        m = RESULT.match(path.name)
        if not m:
            continue
        with open(path) as f:
            res = json.load(f)
        if res.get("trace") or res.get("smoke") or "e2e" not in res:
            continue
        seconds.add(res.get("seconds"))
        if not res.get("correct"):
            skipped[res["workload"]] = skipped.get(res["workload"], 0) + 1
            continue
        key = (int(m.group("seed")), int(m.group("rep") or 0))
        runs.setdefault(res["workload"], {})[key] = res["e2e"]
    return runs, skipped, seconds


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(a, b, pairs, better, bound):
    """Returns (verdict, relative change, B's share of pair wins)."""
    sign = 1.0 if better == "lower" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    change = sign * (mb - ma) / ma  # > 0: B is worse
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    share = wins / len(pairs) if pairs else 0.0
    spread = [(q3 - q1) / statistics.median(v)
              for v in (a, b) for q1, q3 in [quartiles(v)]]
    b_always_better = all(sign * (y - x) < 0 for x in a for y in b)
    b_always_worse = all(sign * (y - x) > 0 for x in a for y in b)
    enough_pairs = len(pairs) >= MIN_PAIRS_FOR_GAIN
    if max(spread) > bound:
        if b_always_better:
            return ("better" if enough_pairs else "unchanged"), change, share
        if b_always_worse:
            return "worse", change, share
        return "unresolved", change, share
    if change > bound:
        return "worse", change, share
    if enough_pairs and share >= 0.9 and -change > spread[0]:
        return "better", change, share
    return "unchanged", change, share


def fmt(values):
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK) as f:
        metrics = json.load(f)["end_to_end"]
    side_a, skip_a, secs_a = load_runs(argv[0])
    side_b, skip_b, secs_b = load_runs(argv[1])
    if len(secs_a | secs_b) > 1:
        print(f"compare.py: runs of different lengths ({sorted(secs_a)} s "
              f"vs {sorted(secs_b)} s) do not compare", file=sys.stderr)
        return 2
    rows, failing = [], 0
    for workload in sorted(set(side_a) | set(side_b) | set(skip_a)
                           | set(skip_b)):
        runs_a, runs_b = side_a.get(workload, {}), side_b.get(workload, {})
        skipped = skip_a.get(workload, 0) + skip_b.get(workload, 0)
        if skipped:
            print(f"compare.py: {workload}: skipped {skipped} incorrect "
                  "run(s); its rows read unresolved", file=sys.stderr)
        common = sorted(set(runs_a) & set(runs_b))
        keyed = ([(runs_a[k], runs_b[k]) for k in common] if common else
                 list(zip([runs_a[k] for k in sorted(runs_a)],
                          [runs_b[k] for k in sorted(runs_b)])))
        for m in metrics:
            name = m["name"]
            a = [r[name]["value"] for r in runs_a.values() if name in r]
            b = [r[name]["value"] for r in runs_b.values() if name in r]
            if not a or not b:
                rows.append((workload, name, "-", "-", "-", "-",
                             f"{m['bound']:.0%}", "missing"))
                failing += 1
                continue
            pairs = [(x[name]["value"], y[name]["value"]) for x, y in keyed
                     if name in x and name in y]
            v, change, share = verdict(a, b, pairs, m["better"], m["bound"])
            if skipped:
                v = "unresolved"
            failing += v in ("worse", "unresolved")
            rows.append((workload, name, fmt(a), fmt(b), f"{change:+.1%}",
                         f"{share:.0%} of {len(pairs)}", f"{m['bound']:.0%}",
                         v))
    header = ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
              "B worse by", "B wins", "bound", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())
    counts = {}
    for r in rows:
        counts[r[-1]] = counts.get(r[-1], 0) + 1
    print(", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
