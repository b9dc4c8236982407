// Concurrency stress for the parallel OM structure.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "om/order_list.h"
#include "support/rng.h"

namespace parcore {
namespace {

TEST(OmParallel, ConcurrentTailAppends) {
  OrderList list(0, 8);
  constexpr std::size_t kPerThread = 2000;
  constexpr int kThreads = 8;
  auto items = std::make_unique<OmItem[]>(kPerThread * kThreads);
  for (std::size_t i = 0; i < kPerThread * kThreads; ++i)
    items[i].vertex = static_cast<VertexId>(i);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i)
        list.insert_tail(&items[t * kPerThread + i]);
    });
  for (auto& th : threads) th.join();

  EXPECT_EQ(list.size(), kPerThread * kThreads);
  std::string err;
  EXPECT_TRUE(list.validate(&err)) << err;
  // Per-thread insertion order must be preserved in the list.
  auto seq = list.to_vector();
  std::vector<std::size_t> last(kThreads, 0);
  std::vector<bool> seen_any(kThreads, false);
  for (VertexId v : seq) {
    const int t = static_cast<int>(v / kPerThread);
    const std::size_t idx = v % kPerThread;
    if (seen_any[t]) {
      EXPECT_GT(idx, last[t]);
    }
    seen_any[t] = true;
    last[t] = idx;
  }
}

TEST(OmParallel, ConcurrentHeadInserts) {
  OrderList list(0, 8);
  constexpr std::size_t kPerThread = 2000;
  constexpr int kThreads = 4;
  auto items = std::make_unique<OmItem[]>(kPerThread * kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        OmItem* it = &items[t * kPerThread + i];
        it->vertex = static_cast<VertexId>(t * kPerThread + i);
        list.insert_head(it);
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(list.size(), kPerThread * kThreads);
  std::string err;
  EXPECT_TRUE(list.validate(&err)) << err;
}

TEST(OmParallel, ReadersDuringMutations) {
  // Two pinned items bracket churn in the middle; concurrent readers
  // must always order them correctly while relabels run.
  OrderList list(0, 4);
  auto items = std::make_unique<OmItem[]>(2 + 4096);
  OmItem* lo = &items[0];
  OmItem* hi = &items[1];
  lo->vertex = 0;
  hi->vertex = 1;
  list.insert_tail(lo);
  list.insert_tail(hi);

  std::atomic<bool> stop{false};
  std::atomic<long> checks{0};
  std::atomic<int> started{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r)
    readers.emplace_back([&] {
      started.fetch_add(1, std::memory_order_relaxed);
      do {
        ASSERT_TRUE(OrderList::precedes(lo, hi));
        ASSERT_FALSE(OrderList::precedes(hi, lo));
        checks.fetch_add(1, std::memory_order_relaxed);
      } while (!stop.load(std::memory_order_relaxed));
    });

  std::thread writer([&] {
    // Churn only once every reader runs: on a loaded host the writer
    // could otherwise finish before any reader was scheduled.
    while (started.load(std::memory_order_relaxed) < 4)
      std::this_thread::yield();
    for (std::size_t i = 0; i < 4096; ++i) {
      OmItem* it = &items[2 + i];
      it->vertex = static_cast<VertexId>(2 + i);
      list.insert_after(lo, it);  // hammer one insertion point
    }
    stop = true;
  });
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_GT(checks.load(), 0);
  std::string err;
  EXPECT_TRUE(list.validate(&err)) << err;
}

TEST(OmParallel, ConcurrentInsertAndRemoveDisjoint) {
  OrderList list(0, 8);
  constexpr std::size_t kCount = 4000;
  auto items = std::make_unique<OmItem[]>(2 * kCount);
  for (std::size_t i = 0; i < 2 * kCount; ++i)
    items[i].vertex = static_cast<VertexId>(i);
  for (std::size_t i = 0; i < kCount; ++i) list.insert_tail(&items[i]);

  std::thread remover([&] {
    for (std::size_t i = 0; i < kCount; i += 2) list.remove(&items[i]);
  });
  std::thread inserter([&] {
    for (std::size_t i = 0; i < kCount; ++i)
      list.insert_tail(&items[kCount + i]);
  });
  remover.join();
  inserter.join();
  EXPECT_EQ(list.size(), kCount / 2 + kCount);
  std::string err;
  EXPECT_TRUE(list.validate(&err)) << err;
}

TEST(OmParallel, SnapshotKeysUnderChurn) {
  OrderList list(0, 4);
  auto items = std::make_unique<OmItem[]>(2 + 2048);
  OmItem* lo = &items[0];
  OmItem* hi = &items[1];
  list.insert_tail(lo);
  list.insert_tail(hi);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      OmKey a = list.snapshot_key(lo);
      OmKey b = list.snapshot_key(hi);
      ASSERT_LT(a, b);
    }
  });
  for (std::size_t i = 0; i < 2048; ++i) {
    items[2 + i].vertex = static_cast<VertexId>(2 + i);
    list.insert_after(lo, &items[2 + i]);
  }
  stop = true;
  reader.join();
}

}  // namespace
}  // namespace parcore
