#!/usr/bin/env python3
"""parcore project lint: mechanical concurrency/config rules that the
compiler cannot express but the codebase depends on.

Rules (each maps to a section of docs/STATIC_ANALYSIS.md):

  bare-lock   No bare .lock()/.unlock() calls outside src/sync/ — lock
              acquisition goes through the RAII guards (SpinGuard,
              MutexGuard) so Clang's thread-safety analysis can track
              it. .try_lock() is allowed: it is the entry point of the
              adopt-guard idiom (sync/mutex.h). Files implementing
              hand-over-hand walks over dynamically chosen locks are
              allowlisted (they carry PARCORE_NO_THREAD_SAFETY_ANALYSIS
              and their own documented discipline instead).

  alignas     Thread-sharded state structs (the project's per-thread
              Cell/Shard/... types) must be declared
              `struct alignas(64) Name` — without the padding,
              neighbouring shards false-share a cache line and the
              whole point of sharding evaporates.

  getenv      Raw getenv() only inside src/support/env.cpp (the typed
              accessors) and src/durability/{crash,faults}.cpp (the
              injection shims, which must stay dependency-free).
              Everything else goes through env_int/env_flag/env_str/
              env_present so defaults and parsing live in one place.

  env-doc     Every "PARCORE_*" environment-variable string literal in
              the tree must be documented in docs/CONFIG.md.

Exit status: 0 clean, 1 violations (printed one per line as
path:line: [rule] message), 2 usage/internal error.

  --self-test  seeds one violation of each rule into a temp tree and
               asserts the linter flags it (and that a clean file
               passes); exits 0 iff every rule fires. CI runs this
               before the real lint so a silently broken rule cannot
               green-wash the tree.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent

# Directories scanned for C++ rules. tests/ and bench/ are out of
# scope on purpose: they exercise the raw primitives (sync_test locks
# and unlocks deliberately) and use fake PARCORE_TEST_* env names.
CXX_DIRS = ["src", "tools"]
CXX_SUFFIXES = {".cpp", ".h", ".hpp", ".cc"}

# bare-lock: files whose documented locking discipline cannot be
# expressed as balanced RAII scopes (hand-over-hand group walks,
# per-vertex lock arrays). Each carries NO_THREAD_SAFETY_ANALYSIS on
# exactly the functions doing unbalanced lock ops — see
# docs/STATIC_ANALYSIS.md "Exemptions".
BARE_LOCK_ALLOWLIST = {
    "src/om/order_list.cpp",
    "src/parallel/parallel_order.cpp",
    "src/parallel/korder_heap.cpp",
}

# Thread-sharded struct names that must be alignas(64). Project
# convention: these names are reserved for per-thread/per-shard slots
# (obs counter cells, ingest/slab shards). Other padded types exist
# (WorkerCtx) but are not counter arrays; keep the list
# tight so single-instance stats structs (durability Totals) don't
# trip it.
SHARDED_STRUCT_NAMES = ("Shard", "Cell")

# getenv: the typed accessor implementation plus the two injection
# shims (kept free of support/ dependencies so they can be linked into
# crash-test children without dragging in more of the tree).
GETENV_ALLOWLIST = {
    "src/support/env.cpp",
    "src/durability/crash.cpp",
    "src/durability/faults.cpp",
}

CONFIG_MD = "docs/CONFIG.md"

BARE_LOCK_RE = re.compile(r"(?:\.|->)\s*(?:un)?lock\s*\(\s*\)")
TRY_LOCK_RE = re.compile(r"\.\s*try_lock\s*\(")
STRUCT_RE = re.compile(
    r"\bstruct\s+(?:alignas\s*\(\s*(\d+)\s*\)\s+)?(%s)\b(?!\s*[;*&])"
    % "|".join(SHARDED_STRUCT_NAMES)
)
GETENV_RE = re.compile(r"(?:\bstd\s*::\s*|::)?\bgetenv\s*\(")
ENV_VAR_RE = re.compile(r'"(PARCORE_[A-Z0-9_]+)"')


def strip_comments(text: str) -> str:
    """Blanks out // and /* */ comments and string/char literals except
    PARCORE_* env literals, preserving line structure for line numbers."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(text[i:j])  # keep literals: env-doc rule reads them
            i = j
        elif c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(" " * (j - i))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def cxx_files(root: pathlib.Path):
    for d in CXX_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for p in sorted(base.rglob("*")):
            if p.suffix in CXX_SUFFIXES and p.is_file():
                yield p


def lint(root: pathlib.Path) -> list[str]:
    errors: list[str] = []
    documented: set[str] = set()
    config_md = root / CONFIG_MD
    if config_md.is_file():
        documented = set(
            re.findall(r"PARCORE_[A-Z0-9_]+", config_md.read_text())
        )

    for path in cxx_files(root):
        rel = path.relative_to(root).as_posix()
        text = strip_comments(path.read_text(errors="replace"))
        lines = text.splitlines()

        # bare-lock ------------------------------------------------------
        if not rel.startswith("src/sync/") and rel not in BARE_LOCK_ALLOWLIST:
            for ln, line in enumerate(lines, 1):
                if BARE_LOCK_RE.search(line):
                    errors.append(
                        f"{rel}:{ln}: [bare-lock] bare .lock()/.unlock() — "
                        "use SpinGuard/MutexGuard (or try_lock + adopt "
                        "guard); see docs/STATIC_ANALYSIS.md"
                    )

        # alignas --------------------------------------------------------
        for ln, line in enumerate(lines, 1):
            m = STRUCT_RE.search(line)
            if m and m.group(1) != "64":
                errors.append(
                    f"{rel}:{ln}: [alignas] thread-sharded struct "
                    f"'{m.group(2)}' must be declared 'struct alignas(64) "
                    f"{m.group(2)}' (false-sharing padding)"
                )

        # getenv ---------------------------------------------------------
        if rel not in GETENV_ALLOWLIST:
            for ln, line in enumerate(lines, 1):
                if GETENV_RE.search(line):
                    errors.append(
                        f"{rel}:{ln}: [getenv] raw getenv() — use the "
                        "support/env.h accessors (env_int/env_flag/"
                        "env_str/env_present)"
                    )

        # env-doc --------------------------------------------------------
        for ln, line in enumerate(lines, 1):
            for var in ENV_VAR_RE.findall(line):
                if var not in documented:
                    errors.append(
                        f"{rel}:{ln}: [env-doc] env var '{var}' is not "
                        f"documented in {CONFIG_MD}"
                    )

    return errors


# --------------------------------------------------------------- self-test

SEEDED = {
    "bare-lock": "void f(parcore::Spinlock& s) { s.lock(); s.unlock(); }\n",
    "alignas": "struct Shard { int x; };\n",
    "getenv": '#include <cstdlib>\nconst char* v = std::getenv("HOME");\n',
    "env-doc": 'const char* k = "PARCORE_TOTALLY_UNDOCUMENTED_VAR";\n',
}

CLEAN = (
    "struct alignas(64) Shard { int x; };\n"
    "void g(parcore::Spinlock& s) {\n"
    "  parcore::SpinGuard guard(s);\n"
    "  if (s.try_lock()) { }\n"  # try_lock is sanctioned (adopt idiom)
    "}\n"
    "// s.lock();  (commented code must not trip the rule)\n"
    'const char* k = "PARCORE_SELFTEST_DOCUMENTED";\n'
)


def self_test() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="parcore_lint_") as tmp:
        root = pathlib.Path(tmp)
        (root / "docs").mkdir()
        (root / "docs" / "CONFIG.md").write_text("`PARCORE_SELFTEST_DOCUMENTED`\n")
        srcdir = root / "src" / "seeded"
        srcdir.mkdir(parents=True)

        # Each seeded violation must be flagged with the right rule tag.
        for rule, code in SEEDED.items():
            f = srcdir / f"{rule.replace('-', '_')}.cpp"
            f.write_text(code)
            errs = lint(root)
            if not any(f"[{rule}]" in e for e in errs):
                failures.append(f"rule '{rule}' did NOT fire on seeded violation")
            f.unlink()

        # A clean file must pass every rule.
        clean = srcdir / "clean.cpp"
        clean.write_text(CLEAN)
        errs = lint(root)
        if errs:
            failures.append("clean file flagged: " + "; ".join(errs))

    if failures:
        print("parcore_lint self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("parcore_lint self-test: all rules fire, clean tree passes")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=pathlib.Path, default=REPO,
                    help="repository root to lint (default: repo)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify each rule fires on a seeded violation")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    errors = lint(args.root)
    for e in errors:
        print(e)
    if errors:
        print(f"parcore_lint: {len(errors)} violation(s)", file=sys.stderr)
        return 1
    print("parcore_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
