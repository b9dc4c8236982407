// parcore_cli — the unified dataset driver (DESIGN.md §7). One binary
// replaces the per-bench ad-hoc setup code with subcommands over the
// src/io readers:
//
//   decompose   static core decomposition of a dataset (BZ or the
//               parallel exact peel)
//   maintain    sliding-window batch maintenance (parallel/seq/JE/...)
//   serve       drive the StreamingEngine from a temporal update file
//   bench       engine-throughput benchmark emitting BENCH_*.json
//   convert     transcode datasets (e.g. edge list -> .pcg cache)
//
// The implementation lives in a library (cli.cpp) so tests can smoke
// the full CLI surface in-process; tools/parcore_cli.cpp is the thin
// main(). Exit codes: 0 ok, 1 runtime/verification failure, 2 usage.
#pragma once

#include <string>
#include <vector>

namespace parcore::cli {

int cli_main(int argc, const char* const* argv);

/// Convenience overload for tests: args exclude the program name.
int cli_main(const std::vector<std::string>& args);

}  // namespace parcore::cli
