#!/usr/bin/env python3
"""The parcore end-to-end benchmark: one command builds, runs and checks.

    python3 bench/e2e/run.py [--workload W] [--seed S] [--seconds N]
                             [--trace [0|1]] [--smoke] [--repeat N]
                             [--pairs N --base DIR] [--out DIR]

Builds bench/e2e (a standalone CMake project over the library sources)
into build-bench/, runs each workload in its own process, prints every
metric as `workload metric value unit`, writes one results JSON with
provenance to --out, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the BENCHMARK.json end_to_end metrics (or, with --trace 1, the
per_layer ones). The run length is BENCHMARK.json's run_seconds: --seconds
is accepted so the standard command line can state it, and any other
value is refused. Exits non-zero when a correctness check fails, a
workload crashes, or a metric is missing or not finite. See README.md.
"""

import argparse
import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-bench"
WORKLOAD_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
SMOKE_SECONDS = 1.5


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def require_sources(src_root):
    missing = [p for p in ("CMakeLists.txt", "src/parcore.h")
               if not (Path(src_root) / p).exists()]
    if missing:
        log(f"run.py: parcore sources not found in {src_root} "
            f"(missing {', '.join(missing)})")
        sys.exit(2)


def build(src_root, build_dir):
    """Configures (once) and builds parcore_e2e; returns the binary path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
               f"-DPARCORE_SOURCE_DIR={src_root}"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "parcore_e2e", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "parcore_e2e"


def provenance(build_dir, src_root):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    try:
        with open(build_dir / "CMakeCache.txt") as f:
            for line in f:
                m = re.match(r"([A-Za-z_]+):[A-Z]+=(.*)", line.strip())
                if m:
                    cache[m.group(1)] = m.group(2)
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    try:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True, timeout=30)
        compiler = out.stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        pass
    git = "unknown (not a git checkout)"
    if (Path(src_root) / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(src_root), "rev-parse",
                                  "HEAD"], capture_output=True, text=True,
                                 timeout=30)
            if rev.returncode == 0:
                git = rev.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "compiler": compiler,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
            "git_head": git}


def self_times(spans_path):
    """Per span name: total duration minus the part its children cover."""
    spans = {}
    with open(spans_path) as f:
        for line in f:
            s = json.loads(line)
            spans[s["id"]] = s
    child_ns = {}
    for s in spans.values():
        if s["parent"]:
            child_ns[s["parent"]] = (child_ns.get(s["parent"], 0)
                                     + s["end_ns"] - s["start_ns"])
    out = {}
    for s in spans.values():
        own = s["end_ns"] - s["start_ns"] - child_ns.get(s["id"], 0)
        out[s["name"]] = out.get(s["name"], 0.0) + own / 1e6
    return out


def result_name(workload, seed, trace, rep):
    suffix = "-trace" if trace else ""
    if rep is not None:
        suffix += f"-rep{rep}"
    return f"{workload}-seed{seed}{suffix}.json"


def run_workload(binary, workload, args, trace, out_dir, prov, rep=None):
    """Runs one workload process; returns its parsed result, with the
    provenance and wall time added to its file too, or None."""
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / result_name(workload, args.seed, trace, rep)
    spans_path = out_dir / f"trace-{workload}.jsonl"
    scratch = BUILD / f"scratch-{os.getpid()}"
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    cmd = [str(binary), workload, "--json", str(json_path),
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--scratch", str(scratch)]
    if trace:
        cmd += ["--trace", "--spans", str(spans_path)]
    if args.smoke:
        cmd.append("--smoke")
    if json_path.exists():
        json_path.unlink()
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr,
                              timeout=WORKLOAD_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} exceeded {WORKLOAD_TIMEOUT_S} s; killed")
        code = None
    wall = time.monotonic() - start
    shutil.rmtree(scratch, ignore_errors=True)
    if code is None or not json_path.exists():
        log(f"run.py: {workload} produced no result (exit {code})")
        return None
    with open(json_path) as f:
        res = json.load(f)
    res["wall_s"] = wall
    res["exit_code"] = code
    res["provenance"] = prov
    if trace and spans_path.exists():
        res["self_ms"] = self_times(spans_path)
    with open(json_path, "w") as f:
        json.dump(res, f, indent=1, sort_keys=True)
    return res


def check_metrics(res, expected, exact):
    """Names of expected metrics missing or not finite, plus extras when
    `exact` (the smoke check)."""
    group = res["layer"] if res["trace"] else res["e2e"]
    bad = [n for n in expected
           if n not in group or group[n]["value"] is None
           or not math.isfinite(group[n]["value"])]
    if exact:
        bad += [f"unexpected {n}" for n in group if n not in expected]
    return bad


def failed(res):
    """Whether a finished run failed its correctness check."""
    return not res["correct"] or res["exit_code"] != 0


def print_result(res, untraced=None):
    w = res["workload"]
    for group in ("e2e", "layer", "extra"):
        for name, m in res[group].items():
            value = math.nan if m["value"] is None else m["value"]
            print(f"{w} {name} {value:.6g} {m['unit']}")
    fail_ratio = res["failed"] / max(res["attempted"], 1)
    print(f"{w} fail_ratio {fail_ratio:.6g} fraction")
    for name, ms in sorted(res.get("self_ms", {}).items()):
        print(f"{w} self.{name} {ms:.6g} ms")
    if untraced is not None:
        for name, m in res["e2e"].items():
            base = untraced["e2e"].get(name, {}).get("value")
            if base:
                pct = 100.0 * (m["value"] - base) / base
                print(f"{w} trace.overhead_pct.{name} {pct:.3g} %")
    print(f"{w} wall_s {res['wall_s']:.3f} s")


def result_line(results, bench, trace):
    """The last stdout line: the gated metric set, one workload's names
    as they are, several workloads' prefixed with the workload."""
    names = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    metrics = {}
    for res in results:
        group = res["layer"] if trace else res["e2e"]
        prefix = "" if len(results) == 1 else res["workload"] + "."
        for n in names:
            if n in group:
                metrics[prefix + n] = {"value": group[n]["value"],
                                       "unit": group[n]["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def run_pairs(args, bench, workloads):
    """Alternating parent/change runs with identical benchmark code:
    the parent's library is built from --base into build-bench/base."""
    require_sources(args.base)
    base_root = Path(args.base).resolve()
    sides = {"base": (build(base_root, BUILD / "base"),
                      provenance(BUILD / "base", base_root)),
             "change": (build(ROOT, BUILD), provenance(BUILD, ROOT))}
    ok = True
    for i in range(args.pairs):
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        for workload in workloads:
            for side in order:
                log(f"run.py: pair {i} {side} {workload}")
                binary, prov = sides[side]
                res = run_workload(binary, workload, args, False,
                                   Path(args.out) / side, prov, rep=i)
                ok = ok and res is not None and not failed(res)
    sys.path.insert(0, str(HERE))
    import compare
    code = compare.main([str(Path(args.out) / "base"),
                         str(Path(args.out) / "change")])
    return 0 if ok and code == 0 else 1


def main():
    bench = load_benchmark()
    all_workloads = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=all_workloads,
                   help="one workload (default: all)")
    p.add_argument("--seed", type=int, default=1,
                   help="input seed (1 = development, 2 = held out)")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"],
                   help="length of each measured phase; must equal "
                        "BENCHMARK.json's run_seconds (--smoke uses its own)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=[0, 1], help="traced run: per-layer metrics")
    p.add_argument("--smoke", action="store_true",
                   help="all workloads at small scale, traced and untraced; "
                        "checks the metric names against BENCHMARK.json")
    p.add_argument("--repeat", type=int, default=1,
                   help="runs per workload (results tagged -rep<i>)")
    p.add_argument("--pairs", type=int, default=0,
                   help="alternating parent/change pairs, then compare.py")
    p.add_argument("--base", help="parent checkout for --pairs")
    p.add_argument("--out", default=str(BUILD / "results"),
                   help="directory for results and traces")
    args = p.parse_args()
    if args.seconds != bench["run_seconds"]:
        p.error(f"--seconds must be {bench['run_seconds']} (BENCHMARK.json "
                "run_seconds): runs of other lengths do not compare")

    require_sources(ROOT)
    workloads = [args.workload] if args.workload else all_workloads
    out_dir = Path(args.out)
    if args.pairs:
        if not args.base:
            p.error("--pairs needs --base")
        return run_pairs(args, bench, workloads)

    binary = build(ROOT, BUILD)
    prov = provenance(BUILD, ROOT)
    if args.smoke and subprocess.run([str(binary), "selftest"],
                                     timeout=60).returncode != 0:
        log("run.py: parcore_e2e selftest failed")
        return 1
    modes = [False, True] if args.smoke else [bool(args.trace)]
    results, keyed, ok = [], {}, True
    for trace in modes:
        expected = [m["name"] for m in
                    bench["per_layer" if trace else "end_to_end"]]
        for workload in workloads:
            for i in range(args.repeat):
                rep = i if args.repeat > 1 else None
                res = run_workload(binary, workload, args, trace, out_dir,
                                   prov, rep)
                if res is None:
                    ok = False
                    continue
                untraced = None
                plain = out_dir / result_name(workload, args.seed, False, None)
                if trace and plain.exists():
                    with open(plain) as f:
                        untraced = json.load(f)
                print_result(res, untraced)
                bad = check_metrics(res, expected, exact=args.smoke)
                if bad:
                    log(f"run.py: {workload}: bad metrics: {', '.join(bad)}")
                    ok = False
                if failed(res):
                    log(f"run.py: {workload}: correctness check failed")
                    ok = False
                results.append(res)
                key = workload + ("-trace" if trace else "")
                keyed[key if rep is None else f"{key}-rep{rep}"] = res

    summary = {"provenance": prov, "seed": args.seed,
               "seconds": SMOKE_SECONDS if args.smoke else args.seconds,
               "smoke": args.smoke,
               "results": keyed}
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = "smoke" if args.smoke else ("trace" if args.trace else "e2e")
    with open(out_dir / f"results-{tag}-seed{args.seed}.json", "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
    if results and not args.smoke:
        print(json.dumps(result_line(results, bench, bool(args.trace))))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
