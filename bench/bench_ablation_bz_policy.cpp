// Ablation: initialisation/decomposition choices — the classic O(m+n)
// array BZ vs the heap variant under the three tie policies of §3.3.1
// ("small degree first" is the paper's pick).
#include <cstdio>

#include "decomp/bz.h"
#include "harness.h"

using namespace parcore;
using namespace parcore::bench;

int main() {
  const BenchEnv env = bench_env();

  std::printf("== Ablation: static decomposition (init path) ==\n");
  std::printf("(scale %.2f; times in ms)\n\n", env.scale);

  Table table({"graph", "BZ array", "heap small", "heap large",
               "heap random"});
  for (const SuiteSpec& spec : scalability_suite()) {
    SuiteGraph sg = build_suite_graph(spec, env.scale);
    DynamicGraph g = to_graph(sg);

    WallTimer t;
    auto d = bz_decompose(g);
    const double bz_ms = t.elapsed_ms();

    auto time_policy = [&](PeelTie policy) {
      WallTimer tp;
      auto dp = bz_decompose_with_policy(g, policy);
      const double ms = tp.elapsed_ms();
      if (dp.core != d.core) std::printf("POLICY MISMATCH on %s!\n",
                                         spec.name.c_str());
      return ms;
    };
    const double small_ms = time_policy(PeelTie::kSmallDegreeFirst);
    const double large_ms = time_policy(PeelTie::kLargeDegreeFirst);
    const double random_ms = time_policy(PeelTie::kRandom);

    table.add_row({spec.name, fmt(bz_ms), fmt(small_ms), fmt(large_ms),
                   fmt(random_ms)});
    std::fflush(stdout);
  }
  table.print();
  std::printf(
      "\nAll variants must produce identical core numbers; only the\n"
      "k-order instance differs. The array BZ is the default init.\n");
  return 0;
}
