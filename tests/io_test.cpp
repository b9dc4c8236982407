// Dataset I/O layer + parcore_cli (DESIGN.md §7): fixture parsing,
// edge-list <-> .pcg round trips, malformed-input rejection with
// file:line context, temporal-stream ordering, stream adapters, and an
// in-process CLI smoke test whose `serve` result is checked against
// bz_decompose (the check runs inside the serve command).
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "cli.h"
#include "decomp/bz.h"
#include "gen/stream_adapter.h"
#include "graph/edge_list.h"
#include "io/graph_reader.h"
#include "io/io_error.h"
#include "io/pcg.h"
#include "io/temporal_stream.h"

#ifdef PARCORE_HAVE_ZLIB
#include <zlib.h>
#endif

namespace parcore {
namespace {

std::string fixture(const std::string& name) {
  return std::string(PARCORE_FIXTURE_DIR) + "/" + name;
}

std::string write_tmp(const std::string& name, const std::string& content) {
  const std::string path = testing::TempDir() + "/io_" + name;
  std::ofstream f(path, std::ios::binary);
  f << content;
  EXPECT_TRUE(f.good());
  return path;
}

/// EXPECT that `fn` throws an IoError whose message contains `frag`.
template <typename Fn>
void expect_io_error(Fn&& fn, const std::string& frag) {
  try {
    fn();
    FAIL() << "expected IoError containing '" << frag << "'";
  } catch (const io::IoError& e) {
    EXPECT_NE(std::string(e.what()).find(frag), std::string::npos)
        << "got: " << e.what();
  }
}

// ------------------------------------------------------------- edge lists

TEST(GraphReader, SnapFixtureFiltersAndCompacts) {
  io::GraphData data = io::read_graph(fixture("toy.txt"));
  EXPECT_EQ(data.num_vertices, 12u);
  EXPECT_EQ(data.edges.size(), 18u);
  EXPECT_FALSE(data.has_timestamps);
  EXPECT_EQ(data.stats.self_loops, 1u);
  EXPECT_EQ(data.stats.duplicates, 2u);
  EXPECT_GE(data.stats.memory_footprint_bytes,
            data.edges.size() * sizeof(TimestampedEdge));
  // Compaction is first-appearance order; raw ids are preserved.
  ASSERT_EQ(data.original_ids.size(), 12u);
  EXPECT_EQ(data.original_ids[0], 100u);
  EXPECT_EQ(data.original_ids[11], 300u);

  const Decomposition d = bz_decompose(io::to_dynamic_graph(data));
  EXPECT_EQ(d.max_core, 4);  // the K5
}

TEST(GraphReader, MatrixMarketParses) {
  io::GraphData data = io::read_graph(fixture("toy.mtx"));
  EXPECT_EQ(data.num_vertices, 6u);
  EXPECT_EQ(data.edges.size(), 8u);
  const Decomposition d = bz_decompose(io::to_dynamic_graph(data));
  EXPECT_EQ(d.max_core, 3);  // the K4
}

TEST(GraphReader, CrlfAndMissingFinalNewline) {
  const std::string path =
      write_tmp("crlf.txt", "# c\r\n1 2\r\n2 3\r\n3 1");
  io::GraphData data = io::read_graph(path);
  EXPECT_EQ(data.edges.size(), 3u);
  EXPECT_EQ(data.num_vertices, 3u);
  std::remove(path.c_str());
}

TEST(GraphReader, ThreeColumnTimestamps) {
  const std::string path = write_tmp("cols3.txt", "1 2 77\n2 3\n");
  io::GraphData data = io::read_graph(path);
  ASSERT_EQ(data.edges.size(), 2u);
  EXPECT_TRUE(data.has_timestamps);
  EXPECT_EQ(data.edges[0].time, 77u);
  EXPECT_EQ(data.edges[1].time, 0u);
  std::remove(path.c_str());
}

TEST(GraphReader, KonectFourColumnWeightThenTimestamp) {
  // KONECT: "u v weight time" — the weight may be signed or fractional
  // and must be skipped; the fourth column is the timestamp.
  const std::string path = write_tmp(
      "cols4.txt", "1 2 -1 1348785677\n2 3 0.5 1348785678 trailing\n");
  io::GraphData data = io::read_graph(path);
  ASSERT_EQ(data.edges.size(), 2u);
  EXPECT_TRUE(data.has_timestamps);
  EXPECT_EQ(data.edges[0].time, 1348785677u);
  EXPECT_EQ(data.edges[1].time, 1348785678u);
  std::remove(path.c_str());
}

TEST(GraphReader, RejectsNonNumericWithLineContext) {
  const std::string path = write_tmp("bad_token.txt", "1 2\n1 z\n");
  expect_io_error([&] { io::read_graph(path); }, ":2:");
  std::remove(path.c_str());
}

TEST(GraphReader, RejectsNegativeIds) {
  const std::string path = write_tmp("bad_neg.txt", "1 -2\n");
  expect_io_error([&] { io::read_graph(path); }, "negative");
  std::remove(path.c_str());
}

TEST(GraphReader, RejectsOverflowingIds) {
  const std::string path =
      write_tmp("bad_overflow.txt", "1 99999999999999999999999\n");
  expect_io_error([&] { io::read_graph(path); }, "overflows 64 bits");
  std::remove(path.c_str());
}

TEST(GraphReader, RejectsMissingField) {
  const std::string path = write_tmp("bad_short.txt", "1 2\n42\n");
  expect_io_error([&] { io::read_graph(path); }, "missing field");
  std::remove(path.c_str());
}

TEST(GraphReader, VerbatimModeBoundsChecksIds) {
  const std::string path = write_tmp("bad_wide.txt", "0 4294967295\n");
  io::ReadOptions opts;
  opts.compact_ids = false;
  expect_io_error([&] { io::read_graph(path, opts); }, "VertexId");
  // The same file is fine with compaction.
  EXPECT_EQ(io::read_graph(path).num_vertices, 2u);
  std::remove(path.c_str());
}

TEST(GraphReader, MatrixMarketRejectsMissingBanner) {
  const std::string path = write_tmp("bad_banner.mtx", "3 3 1\n1 2\n");
  expect_io_error([&] { io::read_graph(path); }, "banner");
  std::remove(path.c_str());
}

TEST(GraphReader, MatrixMarketRejectsTruncatedEntries) {
  const std::string path = write_tmp(
      "bad_trunc.mtx",
      "%%MatrixMarket matrix coordinate pattern general\n3 3 5\n1 2\n2 3\n");
  expect_io_error([&] { io::read_graph(path); }, "truncated");
  std::remove(path.c_str());
}

TEST(GraphReader, MatrixMarketRejectsRectangular) {
  const std::string path = write_tmp(
      "bad_rect.mtx",
      "%%MatrixMarket matrix coordinate pattern general\n3 4 2\n1 1\n2 3\n");
  expect_io_error([&] { io::read_graph(path); }, "rectangular");
  std::remove(path.c_str());
}

TEST(GraphReader, MatrixMarketRejectsZeroBasedIds) {
  const std::string path = write_tmp(
      "bad_zero.mtx",
      "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n0 2\n");
  expect_io_error([&] { io::read_graph(path); }, "1-based");
  std::remove(path.c_str());
}

TEST(GraphReader, LegacyLoaderReportsContext) {
  // The edge_list.h shim must surface the same file:line diagnostics.
  const std::string path = write_tmp("bad_legacy.txt", "1 2\nx y\n");
  try {
    load_edge_list(path);
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(":2:"), std::string::npos);
  }
  std::remove(path.c_str());
}

#ifdef PARCORE_HAVE_ZLIB
TEST(GraphReader, ReadsGzipTransparently) {
  const std::string path = testing::TempDir() + "/io_gz.txt.gz";
  gzFile f = gzopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  gzputs(f, "# gz fixture\n1 2\n2 3\n");
  gzclose(f);
  io::GraphData data = io::read_graph(path);
  EXPECT_EQ(data.edges.size(), 2u);
  std::remove(path.c_str());
}
#endif

// ------------------------------------------------------------------- .pcg

TEST(Pcg, RoundTripsEdgeListFixture) {
  io::GraphData data = io::read_graph(fixture("toy.txt"));
  const std::string path = testing::TempDir() + "/io_toy.pcg";
  io::save_pcg(path, data);
  io::GraphData loaded = io::read_graph(path);  // auto-detected by extension
  EXPECT_EQ(loaded.num_vertices, data.num_vertices);
  ASSERT_EQ(loaded.edges.size(), data.edges.size());
  for (std::size_t i = 0; i < data.edges.size(); ++i) {
    EXPECT_EQ(loaded.edges[i].e, data.edges[i].e);
    EXPECT_EQ(loaded.edges[i].time, data.edges[i].time);
  }
  EXPECT_EQ(loaded.has_timestamps, data.has_timestamps);
  std::remove(path.c_str());
}

TEST(Pcg, RoundTripsTimestamps) {
  io::GraphData data;
  data.num_vertices = 3;
  data.has_timestamps = true;
  data.edges = {{{0, 1}, 100}, {{1, 2}, 200}};
  const std::string path = testing::TempDir() + "/io_times.pcg";
  io::save_pcg(path, data);
  io::GraphData loaded = io::load_pcg(path);
  ASSERT_EQ(loaded.edges.size(), 2u);
  EXPECT_EQ(loaded.edges[1].time, 200u);
  std::remove(path.c_str());
}

TEST(Pcg, RejectsBadMagicAndTruncation) {
  const std::string not_pcg = write_tmp("bad_magic.pcg", "this is text\n");
  expect_io_error([&] { io::load_pcg(not_pcg); }, "magic");
  std::remove(not_pcg.c_str());

  const std::string stub = write_tmp("bad_header.pcg", "PCG1");
  expect_io_error([&] { io::load_pcg(stub); }, "truncated header");
  std::remove(stub.c_str());
}

TEST(Pcg, RejectsTruncatedEdgeSection) {
  io::GraphData data;
  data.num_vertices = 4;
  data.edges = {{{0, 1}, 0}, {{1, 2}, 0}, {{2, 3}, 0}};
  const std::string path = testing::TempDir() + "/io_trunc.pcg";
  io::save_pcg(path, data);
  // Chop the last edge record off.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long len = std::ftell(f);
  ASSERT_EQ(ftruncate(fileno(f), len - 5), 0);
  std::fclose(f);
  expect_io_error([&] { io::load_pcg(path); }, "truncated edge section");
  std::remove(path.c_str());
}

TEST(Pcg, RejectsUnsupportedVersion) {
  io::GraphData data;
  data.num_vertices = 2;
  data.edges = {{{0, 1}, 0}};
  const std::string path = testing::TempDir() + "/io_version.pcg";
  io::save_pcg(path, data);
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 4, SEEK_SET);  // version field
  const unsigned char v99[4] = {99, 0, 0, 0};
  std::fwrite(v99, 1, 4, f);
  std::fclose(f);
  expect_io_error([&] { io::load_pcg(path); }, "version 99");
  std::remove(path.c_str());
}

TEST(Pcg, RejectsOutOfRangeEndpoints) {
  io::GraphData data;
  data.num_vertices = 2;
  data.edges = {{{0, 7}, 0}};  // endpoint 7 >= n
  const std::string path = testing::TempDir() + "/io_range.pcg";
  io::save_pcg(path, data);
  expect_io_error([&] { io::load_pcg(path); }, "out of range");
  std::remove(path.c_str());
}

TEST(Pcg, CheckpointRoundTripsAndDegradesToGraph) {
  io::PcgCheckpoint ck;
  ck.epoch = 42;
  ck.num_vertices = 4;
  ck.edges = {{0, 1}, {1, 2}, {2, 3}};
  ck.core = {1, 1, 1, 1};
  ck.order = {3, 2, 1, 0};
  const std::string path = testing::TempDir() + "/io_ckpt.pcg";
  io::save_pcg_checkpoint(path, ck, /*sync=*/false);

  // Strict v2 loader round-trips everything.
  io::PcgCheckpoint back = io::load_pcg_checkpoint(path);
  EXPECT_EQ(back.epoch, 42u);
  EXPECT_EQ(back.num_vertices, 4u);
  EXPECT_EQ(back.edges, ck.edges);
  EXPECT_EQ(back.core, ck.core);
  EXPECT_EQ(back.order, ck.order);

  // The generic loader degrades a v2 checkpoint to its graph image, so
  // `decompose --input checkpoint-N.pcg` and friends keep working.
  io::GraphData data = io::load_pcg(path);
  EXPECT_EQ(data.num_vertices, 4u);
  ASSERT_EQ(data.edges.size(), 3u);
  EXPECT_EQ(data.edges[1].e, (Edge{1, 2}));
  EXPECT_FALSE(data.has_timestamps);

  // And the strict loader refuses a v1 graph cache.
  io::GraphData v1;
  v1.num_vertices = 2;
  v1.edges = {{{0, 1}, 0}};
  const std::string v1path = testing::TempDir() + "/io_ckpt_v1.pcg";
  io::save_pcg(v1path, v1);
  expect_io_error([&] { io::load_pcg_checkpoint(v1path); }, "version");
  std::remove(v1path.c_str());
  std::remove(path.c_str());
}

// --------------------------------------------------------------- temporal

TEST(Temporal, FixturePreservesOrderAndKinds) {
  io::TemporalStream s = io::read_temporal_stream(fixture("toy_temporal.txt"));
  EXPECT_EQ(s.num_vertices, 10u);
  ASSERT_EQ(s.ops.size(), 41u);
  EXPECT_TRUE(s.monotone);
  EXPECT_EQ(s.ops.front().u.kind, UpdateKind::kInsert);
  EXPECT_EQ(s.ops.front().time, 10u);
  std::size_t removes = 0;
  std::uint64_t prev = 0;
  for (const io::TimedUpdate& op : s.ops) {
    if (op.u.kind == UpdateKind::kRemove) ++removes;
    EXPECT_GE(op.time, prev);
    prev = op.time;
  }
  EXPECT_EQ(removes, 10u);
}

TEST(Temporal, NonMonotoneFlaggedAndOptionallyRejected) {
  const std::string path = write_tmp("nonmono.txt", "1 2 5\n2 3 4\n");
  io::TemporalStream s = io::read_temporal_stream(path);
  EXPECT_FALSE(s.monotone);
  io::TemporalReadOptions strict;
  strict.require_monotone = true;
  expect_io_error([&] { io::read_temporal_stream(path, strict); },
                  "decreases");
  std::remove(path.c_str());
}

TEST(Temporal, SignMustBeSeparateToken) {
  const std::string path = write_tmp("sign.txt", "+1 2\n");
  expect_io_error([&] { io::read_temporal_stream(path); }, "separate token");
  std::remove(path.c_str());
}

TEST(Temporal, SaveLoadRoundTripAndReplay) {
  std::vector<io::TimedUpdate> ops = {
      {{{0, 1}, UpdateKind::kInsert}, 1},
      {{{1, 2}, UpdateKind::kInsert}, 2},
      {{{0, 1}, UpdateKind::kRemove}, 3},
      {{{2, 0}, UpdateKind::kInsert}, 4},
      {{{3, 3}, UpdateKind::kInsert}, 5},  // self-loop never materialises
  };
  const std::string path = testing::TempDir() + "/io_temporal_rt.txt";
  io::save_temporal_stream(path, ops);
  io::TemporalStream loaded = io::read_temporal_stream(path);
  ASSERT_EQ(loaded.ops.size(), ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(loaded.ops[i].u.kind, ops[i].u.kind);
    EXPECT_EQ(loaded.ops[i].time, ops[i].time);
  }
  std::vector<Edge> live = io::replay_final_edges(ops);
  ASSERT_EQ(live.size(), 2u);  // (1,2) and (0,2)
  for (const Edge& e : live) EXPECT_NE(edge_key(e), edge_key(Edge{0, 1}));
  std::remove(path.c_str());
}

// ---------------------------------------------------------- stream adapters

TEST(StreamAdapter, SlidingWindowEmitsOldestRemovals) {
  const std::vector<Edge> stream = {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}};
  const std::vector<GraphUpdate> ops =
      sliding_window_updates(stream, /*window=*/3);
  ASSERT_EQ(ops.size(), 7u);  // 5 inserts + 2 removes
  EXPECT_EQ(ops[3].kind, UpdateKind::kInsert);   // insert (3,4)...
  EXPECT_EQ(ops[4].kind, UpdateKind::kRemove);   // ...evicts (0,1)
  EXPECT_EQ(edge_key(ops[4].e), edge_key(Edge{0, 1}));
  EXPECT_EQ(edge_key(ops[6].e), edge_key(Edge{1, 2}));
}

TEST(StreamAdapter, PartitionKeepsPerEdgeOrder) {
  std::vector<GraphUpdate> ops;
  for (int round = 0; round < 8; ++round)
    for (VertexId v = 0; v < 6; ++v)
      ops.push_back(GraphUpdate{Edge{v, static_cast<VertexId>(v + 1)},
                                round % 2 == 0 ? UpdateKind::kInsert
                                               : UpdateKind::kRemove});
  const auto parts = partition_updates_by_edge(ops, 4);
  ASSERT_EQ(parts.size(), 4u);
  std::size_t total = 0;
  for (const auto& part : parts) {
    total += part.size();
    // Within a part, ops on one edge must alternate insert/remove in
    // submission order; and one edge never appears in two parts.
    for (const auto& other : parts) {
      if (&other == &part) continue;
      for (const GraphUpdate& a : part)
        for (const GraphUpdate& b : other)
          EXPECT_NE(edge_key(a.e), edge_key(b.e));
    }
    std::unordered_map<std::uint64_t, UpdateKind> last;
    for (const GraphUpdate& u : part) {
      auto it = last.find(edge_key(u.e));
      if (it != last.end()) EXPECT_NE(it->second, u.kind);
      last[edge_key(u.e)] = u.kind;
    }
  }
  EXPECT_EQ(total, ops.size());
}

// -------------------------------------------------------------- CLI smoke

TEST(Cli, ServeFixtureMatchesBzDecompose) {
  // serve verifies its final snapshot against bz_decompose of the
  // replayed graph internally and exits nonzero on mismatch.
  EXPECT_EQ(cli::cli_main({"serve", "--input", fixture("toy_temporal.txt"),
                           "--producers", "4"}),
            0);
}

TEST(Cli, MaintainFixtureVerifies) {
  EXPECT_EQ(cli::cli_main({"maintain", "--input", fixture("toy.txt"),
                           "--window", "10", "--batch", "4", "--verify"}),
            0);
}

TEST(Cli, StatsPrintsMemoryFootprint) {
  EXPECT_EQ(cli::cli_main({"stats", "--input", fixture("toy.txt")}), 0);
  EXPECT_EQ(cli::cli_main({"stats"}), 2);  // missing --input
}

TEST(Cli, DecomposeAndConvertRoundTrip) {
  const std::string pcg = testing::TempDir() + "/io_cli_toy.pcg";
  EXPECT_EQ(cli::cli_main({"convert", "--input", fixture("toy.txt"),
                           "--output", pcg}),
            0);
  EXPECT_EQ(cli::cli_main({"decompose", "--input", pcg, "--top", "3"}), 0);
  std::remove(pcg.c_str());
}

TEST(Cli, UsageErrors) {
  EXPECT_EQ(cli::cli_main({"no-such-command"}), 2);
  EXPECT_EQ(cli::cli_main({"serve"}), 2);             // missing --input
  EXPECT_EQ(cli::cli_main({"serve", "--bogus"}), 2);  // unknown option
  EXPECT_EQ(cli::cli_main({"help"}), 0);
  EXPECT_EQ(cli::cli_main({"serve", "--help"}), 0);
  EXPECT_EQ(cli::cli_main(
                {"decompose", "--input", "/nonexistent/parcore.txt"}),
            1);
}

TEST(Cli, EverySubcommandRejectsUnknownOptionsWithExit2) {
  // The strict-option contract holds for every subcommand, including
  // the newer ones: an unknown option is a usage error (2), never a
  // silent ignore or a runtime failure (1).
  for (const char* cmd :
       {"decompose", "convert", "maintain", "serve", "recover", "stats"}) {
    EXPECT_EQ(cli::cli_main({cmd, "--definitely-not-an-option", "x"}), 2)
        << cmd;
    EXPECT_EQ(cli::cli_main({cmd, "--help"}), 0) << cmd;
  }
  // A flag the subcommand does not define is rejected even when the rest
  // of the line is a valid run: `--plan` is no option of any command.
  const std::string toy = fixture("toy.txt");
  for (const std::vector<std::string>& argv :
       std::vector<std::vector<std::string>>{
           {"maintain", "--input", toy, "--plan"},
           {"serve", "--input", fixture("toy_temporal.txt"), "--plan"}}) {
    EXPECT_EQ(cli::cli_main(argv), 2) << argv[0];
  }
  // The parallel exact peel and BZ are the only decompositions: the
  // ParK and h-index spellings are usage errors, not silent fallbacks.
  for (const std::vector<std::string>& argv :
       std::vector<std::vector<std::string>>{
           {"decompose", "--input", toy, "--algo", "park"},
           {"decompose", "--input", toy, "--algo", "approx"},
           {"decompose", "--input", toy, "--max-rounds", "4"},
           {"recover", "--dir", "/nonexistent/parcore-ckpt", "--verify",
            "approx"}}) {
    EXPECT_EQ(cli::cli_main(argv), 2) << argv[0] << " " << argv[3];
  }
  EXPECT_EQ(cli::cli_main({"decompose", "--input", toy, "--algo", "parallel",
                           "--workers", "4"}),
            0);
  // The engine-throughput sweep over a dataset is bench_engine_throughput
  // with PARCORE_BENCH_INPUT; the CLI has no `bench` command.
  EXPECT_EQ(cli::cli_main({"bench", "--input", toy}), 2);
}

TEST(Cli, HelpIsStrictAboutItsArguments) {
  // `help <command>` prints that command's usage (exit 0); anything it
  // cannot resolve is a usage error — the pre-durability CLI ignored
  // extra help arguments and returned 0.
  for (const char* cmd :
       {"decompose", "convert", "maintain", "serve", "recover", "stats"}) {
    EXPECT_EQ(cli::cli_main({"help", cmd}), 0) << cmd;
  }
  EXPECT_EQ(cli::cli_main({"help", "no-such-command"}), 2);
  EXPECT_EQ(cli::cli_main({"help", "--bogus"}), 2);
  EXPECT_EQ(cli::cli_main({"help", "serve", "extra"}), 2);
}

TEST(Cli, RecoverUsageAndMissingDir) {
  EXPECT_EQ(cli::cli_main({"recover"}), 2);  // missing --dir
  EXPECT_EQ(cli::cli_main({"recover", "--workers", "abc", "--dir", "x"}), 2);
  // An empty/nonexistent directory is a runtime failure, not usage.
  EXPECT_EQ(cli::cli_main({"recover", "--dir",
                           testing::TempDir() + "/io_no_such_ckpt_dir"}),
            1);
}

TEST(Cli, MalformedOptionValuesAreUsageErrors) {
  // A typo'd value must not silently run on the default.
  const std::string input = fixture("toy_temporal.txt");
  EXPECT_EQ(cli::cli_main({"serve", "--input", input, "--producers", "abc"}),
            2);
  EXPECT_EQ(cli::cli_main({"serve", "--input", input, "--producers", "10x"}),
            2);
  EXPECT_EQ(cli::cli_main({"maintain", "--input", fixture("toy.txt"),
                           "--window", "-3"}),
            2);
}

#ifdef PARCORE_HAVE_ZLIB
TEST(Cli, ConvertGzOutputIsRealGzip) {
  const std::string path = testing::TempDir() + "/io_cli_out.txt.gz";
  EXPECT_EQ(cli::cli_main({"convert", "--input", fixture("toy.txt"),
                           "--output", path}),
            0);
  // Must carry the gzip magic, not plain text under a .gz name.
  std::ifstream f(path, std::ios::binary);
  unsigned char magic[2] = {0, 0};
  f.read(reinterpret_cast<char*>(magic), 2);
  EXPECT_EQ(magic[0], 0x1f);
  EXPECT_EQ(magic[1], 0x8b);
  io::GraphData back = io::read_graph(path);
  EXPECT_EQ(back.edges.size(), 18u);
  std::remove(path.c_str());
}
#endif

TEST(Cli, ConvertRejectsGzippedPcg) {
  EXPECT_EQ(cli::cli_main({"convert", "--input", fixture("toy.txt"),
                           "--output", testing::TempDir() + "/x.pcg.gz"}),
            2);
}

}  // namespace
}  // namespace parcore
