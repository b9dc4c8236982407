// The three workloads of parcore_e2e (README.md in this directory).
#pragma once

#include <cstdint>
#include <vector>

#include "common.h"
#include "support/types.h"

namespace e2e {

/// A Table-2 stand-in graph ("BA" or "RMAT", gen/suite.h), its edges
/// deduplicated and shuffled by `seed`. The graph itself is the suite's
/// fixed stand-in, as a dataset file would be: the seed picks which
/// edges form the batch or the base graph, not the graph's shape, so
/// runs on different seeds measure the same structure.
struct SuiteInput {
  std::size_t n = 0;
  std::vector<parcore::Edge> edges;
};
SuiteInput suite_input(const char* name, double scale, std::uint64_t seed);

/// batch-ba / batch-rmat: the paper's batch protocol.
void run_batch(const Config& cfg, const char* graph, Report& report,
               Spans& spans);

/// stream-burst: closed-loop saturation through the streaming engine.
void run_stream_burst(const Config& cfg, Report& report, Spans& spans);

}  // namespace e2e
