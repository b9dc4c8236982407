#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "support/env.h"
#include "support/histogram.h"
#include "support/rng.h"
#include "support/timer.h"
#include "support/types.h"
#include "support/vertex_set.h"

namespace parcore {
namespace {

TEST(Types, CanonicalOrdersEndpoints) {
  EXPECT_EQ(canonical(Edge{5, 3}), (Edge{3, 5}));
  EXPECT_EQ(canonical(Edge{3, 5}), (Edge{3, 5}));
  EXPECT_EQ(edge_key(Edge{5, 3}), edge_key(Edge{3, 5}));
  EXPECT_NE(edge_key(Edge{1, 2}), edge_key(Edge{1, 3}));
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i)
    if (a2.next() != c.next()) differs = true;
  EXPECT_TRUE(differs);
}

TEST(Rng, BoundedStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.bounded(17), 17u);
}

TEST(Rng, BoundedCoversRange) {
  Rng r(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.bounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RealInUnitInterval) {
  Rng r(99);
  for (int i = 0; i < 10000; ++i) {
    double x = r.real();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng r(1);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(VertexSet, InsertContainsErase) {
  VertexSet s;
  EXPECT_TRUE(s.insert(3));
  EXPECT_FALSE(s.insert(3));
  EXPECT_TRUE(s.contains(3));
  EXPECT_FALSE(s.contains(4));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.erase(3));
  EXPECT_FALSE(s.erase(3));
  EXPECT_FALSE(s.contains(3));
  EXPECT_TRUE(s.empty());
}

TEST(VertexSet, IterationInInsertionOrder) {
  VertexSet s;
  for (VertexId v : {9u, 2u, 7u, 5u}) s.insert(v);
  std::vector<VertexId> seen;
  s.for_each([&](VertexId v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<VertexId>{9, 2, 7, 5}));
}

TEST(VertexSet, ErasedSkippedButOrderKept) {
  VertexSet s;
  for (VertexId v : {1u, 2u, 3u, 4u}) s.insert(v);
  s.erase(2);
  s.erase(4);
  std::vector<VertexId> seen;
  s.for_each([&](VertexId v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<VertexId>{1, 3}));
  EXPECT_EQ(s.total_inserted(), 4u);
}

TEST(VertexSet, ReviveKeepsFirstInsertionOrder) {
  VertexSet s;
  s.insert(1);
  s.insert(2);
  s.erase(1);
  EXPECT_TRUE(s.insert(1));  // revive
  std::vector<VertexId> seen;
  s.for_each([&](VertexId v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<VertexId>{1, 2}));
}

TEST(VertexSet, GrowsPastInitialCapacity) {
  VertexSet s(4);
  for (VertexId v = 0; v < 1000; ++v) EXPECT_TRUE(s.insert(v * 7919));
  for (VertexId v = 0; v < 1000; ++v) EXPECT_TRUE(s.contains(v * 7919));
  EXPECT_EQ(s.size(), 1000u);
}

TEST(VertexSet, ClearResets) {
  VertexSet s;
  for (VertexId v = 0; v < 50; ++v) s.insert(v);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.contains(10));
  EXPECT_TRUE(s.insert(10));
}

std::vector<VertexId> members(const VertexSet& s) {
  std::vector<VertexId> out;
  s.for_each([&](VertexId v) { out.push_back(v); });
  return out;
}

TEST(VertexSet, ClearAfterLargeSetThenSmallCycles) {
  // One big set grows the table for good; later clears reset only the
  // members' own slots, so nothing of the big set may survive them.
  VertexSet s;
  for (VertexId v = 0; v < 5000; ++v) s.insert(v * 13);
  s.clear();
  for (VertexId v = 0; v < 5000; ++v) ASSERT_FALSE(s.contains(v * 13)) << v;
  for (VertexId round = 0; round < 20; ++round) {
    const VertexId a = round * 13, b = 7 + round * 39, c = 100000 + round;
    EXPECT_TRUE(s.insert(c));
    EXPECT_TRUE(s.insert(a));
    EXPECT_TRUE(s.insert(b));
    EXPECT_TRUE(s.erase(a));
    EXPECT_EQ(members(s), (std::vector<VertexId>{c, b}));
    EXPECT_EQ(s.total_inserted(), 3u);
    s.clear();
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.total_inserted(), 0u);
    EXPECT_FALSE(s.contains(a));
    EXPECT_FALSE(s.contains(b));
    EXPECT_FALSE(s.contains(c));
  }
}

TEST(VertexSet, ClearAfterEraseAndRevive) {
  VertexSet s;
  for (VertexId v : {4u, 8u, 15u}) s.insert(v);
  s.erase(8);
  EXPECT_TRUE(s.insert(8));  // revive
  s.clear();
  EXPECT_TRUE(s.empty());
  for (VertexId v : {4u, 8u, 15u}) EXPECT_FALSE(s.contains(v));
  EXPECT_TRUE(s.insert(15));
  EXPECT_TRUE(s.insert(8));
  EXPECT_EQ(members(s), (std::vector<VertexId>{15, 8}));
}

TEST(VertexSet, ClearRightAfterRehash) {
  // 16 slots hold 7 members; the 8th insert doubles the table, and the
  // clear that follows must reset the slots the rehash assigned.
  for (VertexId extra = 8; extra <= 40; extra += 8) {
    VertexSet s;
    for (VertexId v = 0; v < extra; ++v) s.insert(v * 101);
    s.clear();
    for (VertexId v = 0; v < extra; ++v)
      ASSERT_FALSE(s.contains(v * 101)) << extra << " " << v;
    for (VertexId v = extra; v-- > 0;) EXPECT_TRUE(s.insert(v * 101));
    EXPECT_EQ(s.size(), extra);
    EXPECT_EQ(members(s).front(), (extra - 1) * 101);
  }
}

TEST(VertexSet, RepeatedClearOfEmptySet) {
  VertexSet s;
  s.clear();
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.insert(3));
  s.clear();
  s.clear();
  EXPECT_FALSE(s.contains(3));
  EXPECT_TRUE(members(s).empty());
}

TEST(Histogram, RecordsAndBuckets) {
  SizeHistogram h;
  for (std::size_t i = 0; i < 10; ++i) h.record(1);
  h.record(0);
  h.record(100);
  EXPECT_EQ(h.total(), 12u);
  EXPECT_EQ(h.count_at(1), 10u);
  EXPECT_EQ(h.count_at(0), 1u);
  EXPECT_EQ(h.max_seen(), 100u);
  EXPECT_NEAR(h.fraction_at_most(10), 11.0 / 12.0, 1e-9);
}

TEST(Histogram, MergeCombines) {
  SizeHistogram a, b;
  a.record(1);
  b.record(1);
  b.record(2);
  a.merge(b);
  EXPECT_EQ(a.total(), 3u);
  EXPECT_EQ(a.count_at(1), 2u);
  EXPECT_EQ(a.count_at(2), 1u);
}

TEST(Histogram, OverflowBucket) {
  SizeHistogram h(8);
  h.record(9);
  h.record(100000);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 2u);
}

TEST(Histogram, MergeCarriesOverflowAndMax) {
  SizeHistogram a(8), b(8);
  a.record(3);
  b.record(20);   // overflow in b
  b.record(500);  // overflow + max
  a.merge(b);
  EXPECT_EQ(a.total(), 3u);
  EXPECT_EQ(a.overflow(), 2u);
  EXPECT_EQ(a.max_seen(), 500u);
  EXPECT_NEAR(a.mean(), (3.0 + 20.0 + 500.0) / 3.0, 1e-9);
  // Merging into a wider histogram must keep the wider exact range.
  SizeHistogram wide(64);
  wide.merge(b);
  EXPECT_EQ(wide.count_at(20), 0u);  // b lost exactness at 20; stays lost
  EXPECT_EQ(wide.overflow(), 2u);
}

TEST(RunStats, MeanAndBounds) {
  RunStats s = RunStats::from({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  EXPECT_GT(s.ci95, 0.0);
  EXPECT_EQ(s.count, 3u);
}

TEST(RunStats, EmptyIsZero) {
  RunStats s = RunStats::from({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Env, FallbacksWhenUnset) {
  EXPECT_EQ(env_int("PARCORE_TEST_UNSET_VAR", 42), 42);
  EXPECT_DOUBLE_EQ(env_double("PARCORE_TEST_UNSET_VAR", 1.5), 1.5);
  EXPECT_FALSE(env_flag("PARCORE_TEST_UNSET_VAR"));
  EXPECT_EQ(env_str("PARCORE_TEST_UNSET_VAR", "x"), "x");
}

TEST(Env, ParsesValues) {
  setenv("PARCORE_TEST_SET_VAR", "17", 1);
  EXPECT_EQ(env_int("PARCORE_TEST_SET_VAR", 0), 17);
  setenv("PARCORE_TEST_SET_VAR", "2.5", 1);
  EXPECT_DOUBLE_EQ(env_double("PARCORE_TEST_SET_VAR", 0.0), 2.5);
  setenv("PARCORE_TEST_SET_VAR", "yes", 1);
  EXPECT_TRUE(env_flag("PARCORE_TEST_SET_VAR"));
  setenv("PARCORE_TEST_SET_VAR", "0", 1);
  EXPECT_FALSE(env_flag("PARCORE_TEST_SET_VAR"));
  unsetenv("PARCORE_TEST_SET_VAR");
}

}  // namespace
}  // namespace parcore
