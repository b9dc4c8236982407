// Observability substrate tests: histogram buckets, flush-trace ring
// wraparound (concurrent writer/reader under TSan in CI), exporter
// golden output over hand-built rows, and the loopback HTTP pair.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace parcore::obs {
namespace {

TEST(ObsHistogramTest, HistogramBucketsAndQuantiles) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_upper(1), 1u);
  EXPECT_EQ(Histogram::bucket_upper(3), 7u);

  Histogram h;
  for (int i = 0; i < 90; ++i) h.record(1);
  for (int i = 0; i < 10; ++i) h.record(1000);
  EXPECT_EQ(h.count, 100u);
  EXPECT_EQ(h.sum, 90u + 10u * 1000u);
  EXPECT_NEAR(h.mean(), 100.9, 1e-9);
  EXPECT_EQ(h.quantile_upper(0.5), 1u);
  // 1000 has bit_width 10 -> bucket 10, upper bound 2^10 - 1.
  EXPECT_EQ(h.quantile_upper(0.99), 1023u);

  // Nearest rank: of 7 samples, p50 is the 4th and p99 the 7th.
  Histogram few;
  for (std::uint64_t v : {1, 2, 4, 8, 16, 32, 64}) few.record(v);
  EXPECT_EQ(few.quantile_upper(0.5), 15u);
  EXPECT_EQ(few.quantile_upper(0.99), 127u);
}

TEST(FlushTraceTest, RingWrapsOldestFirst) {
  FlushTrace trace(4);
  EXPECT_EQ(trace.capacity(), 4u);
  for (std::uint64_t e = 1; e <= 10; ++e) {
    FlushSpan s;
    s.epoch = e;
    trace.record(s);
  }
  EXPECT_EQ(trace.recorded(), 10u);
  const std::vector<FlushSpan> kept = trace.snapshot();
  ASSERT_EQ(kept.size(), 4u);
  EXPECT_EQ(kept.front().epoch, 7u);
  EXPECT_EQ(kept.back().epoch, 10u);
  for (std::size_t i = 1; i < kept.size(); ++i)
    EXPECT_EQ(kept[i].epoch, kept[i - 1].epoch + 1);
}

TEST(FlushTraceTest, PartiallyFilledKeepsAll) {
  FlushTrace trace(8);
  for (std::uint64_t e = 1; e <= 3; ++e) {
    FlushSpan s;
    s.epoch = e;
    trace.record(s);
  }
  const std::vector<FlushSpan> kept = trace.snapshot();
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0].epoch, 1u);
  EXPECT_EQ(kept[2].epoch, 3u);
}

TEST(FlushTraceTest, ZeroCapacityClampsToOne) {
  FlushTrace trace(0);
  EXPECT_EQ(trace.capacity(), 1u);
  FlushSpan s;
  s.epoch = 42;
  trace.record(s);
  ASSERT_EQ(trace.snapshot().size(), 1u);
  EXPECT_EQ(trace.snapshot()[0].epoch, 42u);
}

// One writer (flush cadence) races snapshot readers; spans must never
// tear (epoch stamped in every field makes a torn copy detectable).
TEST(FlushTraceTest, ConcurrentRecordAndSnapshot) {
  FlushTrace trace(16);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (std::uint64_t e = 1; e <= 20000; ++e) {
      FlushSpan s;
      s.epoch = e;
      s.raw = e;
      s.flush_us = e;
      trace.record(s);
    }
    stop.store(true);
  });
  std::thread reader([&] {
    while (!stop.load()) {
      for (const FlushSpan& s : trace.snapshot()) {
        EXPECT_EQ(s.raw, s.epoch);
        EXPECT_EQ(s.flush_us, s.epoch);
      }
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(trace.recorded(), 20000u);
}

TEST(ObsExportTest, PrometheusTextGolden) {
  Rows rows;
  rows.counters.push_back({"parcore_test_flushes_total", 3});
  rows.gauges.push_back({"parcore_test_epoch", -2});
  Histogram h;
  h.record(1);
  h.record(1);
  h.record(5);
  rows.histograms.push_back({"parcore_test_batch", h});

  const std::string text = prometheus_text(rows);
  EXPECT_EQ(text,
            "# TYPE parcore_test_flushes_total counter\n"
            "parcore_test_flushes_total 3\n"
            "# TYPE parcore_test_epoch gauge\n"
            "parcore_test_epoch -2\n"
            "# TYPE parcore_test_batch histogram\n"
            "parcore_test_batch_bucket{le=\"1\"} 2\n"
            "parcore_test_batch_bucket{le=\"7\"} 3\n"
            "parcore_test_batch_bucket{le=\"+Inf\"} 3\n"
            "parcore_test_batch_sum 7\n"
            "parcore_test_batch_count 3\n");
}

TEST(ObsExportTest, HumanSummaryGolden) {
  Rows rows;
  rows.counters.push_back({"updates_total", 10});
  rows.gauges.push_back({"epoch", 4});
  Histogram h;
  for (int i = 0; i < 4; ++i) h.record(100);
  rows.histograms.push_back({"flush_us", h});
  // The last bucket is unbounded: its quantile bound reads +Inf.
  Histogram huge;
  huge.record(std::uint64_t{1} << 40);
  rows.histograms.push_back({"stall_us", huge});

  EXPECT_EQ(human_summary(rows),
            "metrics:\n"
            "  updates_total = 10\n"
            "  epoch = 4\n"
            "histograms (count / mean / ~p50 / ~p99):\n"
            "  flush_us = 4 / 100.0 / <=127 / <=127\n"
            "  stall_us = 1 / 1099511627776.0 / <=+Inf / <=+Inf\n");
}

TEST(ObsExportPlain, EmptyRowsRenderEmpty) {
  EXPECT_EQ(prometheus_text(Rows{}), "");
  EXPECT_EQ(human_summary(Rows{}), "");
}

TEST(ObsExportPlain, TraceJsonLineGolden) {
  FlushSpan s;
  s.epoch = 7;
  s.raw = 100;
  s.inserts = 60;
  s.removes = 30;
  s.pages_cloned = 5;
  s.repair_us = 3;
  s.drain_us = 10;
  s.coalesce_us = 20;
  s.wal_us = 5;
  s.apply_us = 40;
  s.om_compact_us = 50;
  s.publish_us = 60;
  s.checkpoint_us = 8;
  s.flush_us = 201;
  s.workers = 4;
  s.worker_busy_us = 120;
  s.worker_idle_us = 40;
  s.deferred_edges = 6;
  s.adjacency_scanned = 900;
  s.adjacency_repartitions = 11;
  EXPECT_EQ(trace_json_line(s),
            "{\"epoch\":7,\"raw\":100,\"inserts\":60,\"removes\":30,"
            "\"pages_cloned\":5,\"repair_us\":3,\"drain_us\":10,"
            "\"coalesce_us\":20,\"wal_us\":5,\"apply_us\":40,"
            "\"om_compact_us\":50,\"publish_us\":60,\"checkpoint_us\":8,"
            "\"flush_us\":201,\"workers\":4,\"worker_busy_us\":120,"
            "\"worker_idle_us\":40,\"deferred_edges\":6,"
            "\"adjacency_scanned\":900,\"adjacency_repartitions\":11}");
}

TEST(ObsHttpTest, ServeAndFetchRoundTrip) {
  MetricsHttpServer server;
  // Port 0: ephemeral bind, so parallel test runs never collide.
  ASSERT_TRUE(server.start(
      0, [] { return std::string("metrics-body\n"); },
      [] { return std::string("summary-body\n"); }));
  ASSERT_TRUE(server.running());
  const int port = server.port();
  ASSERT_GT(port, 0);

  std::string error;
  EXPECT_EQ(http_fetch("127.0.0.1", port, "/metrics", &error), "metrics-body\n")
      << error;
  EXPECT_EQ(http_fetch("localhost", port, "/summary", &error), "summary-body\n")
      << error;
  EXPECT_EQ(http_fetch("127.0.0.1", port, "/", &error), "metrics-body\n")
      << error;
  // Unknown path: served (connection succeeds) but flagged.
  const std::string missing = http_fetch("127.0.0.1", port, "/nope", &error);
  EXPECT_NE(missing.find("unknown path"), std::string::npos);

  server.stop();
  EXPECT_FALSE(server.running());
  // After stop the fetch must fail cleanly, not hang.
  error.clear();
  EXPECT_EQ(http_fetch("127.0.0.1", port, "/metrics", &error), "");
  EXPECT_FALSE(error.empty());
}

TEST(ObsHttpTest, ConcurrentFetches) {
  MetricsHttpServer server;
  std::atomic<int> calls{0};
  ASSERT_TRUE(server.start(
      0,
      [&calls] {
        calls.fetch_add(1);
        return std::string("ok");
      },
      [] { return std::string(); }));
  const int port = server.port();
  constexpr int kClients = 4;
  std::vector<std::thread> pool;
  std::atomic<int> good{0};
  for (int t = 0; t < kClients; ++t)
    pool.emplace_back([port, &good] {
      for (int i = 0; i < 8; ++i)
        if (http_fetch("127.0.0.1", port, "/metrics") == "ok")
          good.fetch_add(1);
    });
  for (auto& th : pool) th.join();
  // The server is serial but the listen backlog queues clients; every
  // request must eventually be answered.
  EXPECT_EQ(good.load(), kClients * 8);
  EXPECT_EQ(calls.load(), kClients * 8);
  server.stop();
}

}  // namespace
}  // namespace parcore::obs
