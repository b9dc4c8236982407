#include <gtest/gtest.h>

#include "maint/core_state.h"
#include "parallel/korder_heap.h"
#include "test_util.h"

namespace parcore {
namespace {

/// Builds a path graph: all vertices core 1, O_1 = peel order.
class KOrderHeapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = test::make_graph(8, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5},
                              {5, 6}, {6, 7}});
    state_.initialize(g_);
    list_ = state_.levels().get(1);
    ASSERT_NE(list_, nullptr);
  }

  DynamicGraph g_;
  CoreState state_;
  OrderList* list_ = nullptr;
};

TEST_F(KOrderHeapTest, DequeueFollowsKOrder) {
  KOrderHeap q;
  q.reset(list_, &state_);
  // Enqueue in scrambled order; dequeue must follow O_1.
  std::vector<VertexId> scrambled{5, 1, 7, 3};
  for (VertexId v : scrambled) q.enqueue(v);
  std::vector<VertexId> order;
  for (;;) {
    VertexId v = q.dequeue(1);
    if (v == kInvalidVertex) break;
    order.push_back(v);
    state_.lock(v).unlock();
  }
  ASSERT_EQ(order.size(), 4u);
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_TRUE(state_.precedes_stable(order[i - 1], order[i]));
}

TEST_F(KOrderHeapTest, DuplicateEnqueueAccumulates) {
  // Each enqueue is one V* predecessor's Forward: the entry is shared,
  // the count covers both.
  KOrderHeap q;
  q.reset(list_, &state_);
  q.enqueue(3);
  q.enqueue(3);
  EXPECT_EQ(q.size(), 1u);
  CoreValue din = 0;
  VertexId v = q.dequeue(1, &din);
  EXPECT_EQ(v, 3u);
  EXPECT_EQ(din, 2);
  state_.lock(v).unlock();
  EXPECT_EQ(q.dequeue(1), kInvalidVertex);
}

TEST_F(KOrderHeapTest, DequeueHandsOverAndResetsCount) {
  KOrderHeap q;
  q.reset(list_, &state_);
  q.enqueue(5);
  q.enqueue(5);
  q.enqueue(5);
  CoreValue din = 0;
  ASSERT_EQ(q.dequeue(1, &din), 5u);
  state_.lock(5).unlock();
  EXPECT_EQ(din, 3);
  // The count left with the entry: a later enqueue starts afresh.
  q.enqueue(5);
  ASSERT_EQ(q.dequeue(1, &din), 5u);
  state_.lock(5).unlock();
  EXPECT_EQ(din, 1);
}

TEST_F(KOrderHeapTest, UncountStopsAtZeroAndKeepsEntry) {
  KOrderHeap q;
  q.reset(list_, &state_);
  q.enqueue(6);
  q.enqueue(6);
  q.uncount(6);
  q.uncount(6);
  q.uncount(6);  // already 0: stays 0
  q.uncount(2);  // not queued: no-op, and 2 stays unqueued
  EXPECT_EQ(q.size(), 1u);
  // A zero count does not unqueue: a new enqueue counts into the same
  // entry rather than adding a second one.
  q.enqueue(6);
  EXPECT_EQ(q.size(), 1u);
  CoreValue din = 0;
  ASSERT_EQ(q.dequeue(1, &din), 6u);
  state_.lock(6).unlock();
  EXPECT_EQ(din, 1);
  EXPECT_EQ(q.dequeue(1), kInvalidVertex);
}

TEST_F(KOrderHeapTest, StaleEntryDropsItsCount) {
  KOrderHeap q;
  q.reset(list_, &state_);
  q.enqueue(2);
  q.enqueue(2);
  q.enqueue(4);
  // Another worker promotes 2 past this level: its entry and its count
  // leave the queue together.
  state_.core(2).store(2, std::memory_order_release);
  CoreValue din = 0;
  ASSERT_EQ(q.dequeue(1, &din), 4u);
  state_.lock(4).unlock();
  EXPECT_EQ(din, 1);
  EXPECT_TRUE(q.empty());
  // Back at this level, 2 starts from a fresh count, not the dropped 2.
  state_.core(2).store(1, std::memory_order_release);
  q.enqueue(2);
  ASSERT_EQ(q.dequeue(1, &din), 2u);
  state_.lock(2).unlock();
  EXPECT_EQ(din, 1);
}

TEST_F(KOrderHeapTest, CountsSurviveTableGrowth) {
  // Enough queued vertices to force the membership table to rehash
  // several times; every count must survive.
  DynamicGraph g(300);
  for (VertexId v = 0; v + 1 < 300; ++v) g.insert_edge(v, v + 1);
  CoreState state;
  state.initialize(g);
  KOrderHeap q;
  q.reset(state.levels().get(1), &state);
  for (VertexId v = 0; v < 300; ++v)
    for (VertexId c = 0; c <= v % 3; ++c) q.enqueue(v);
  EXPECT_EQ(q.size(), 300u);
  std::size_t popped = 0;
  for (;;) {
    CoreValue din = 0;
    const VertexId v = q.dequeue(1, &din);
    if (v == kInvalidVertex) break;
    state.lock(v).unlock();
    EXPECT_EQ(din, static_cast<CoreValue>(v % 3 + 1)) << "vertex " << v;
    ++popped;
  }
  EXPECT_EQ(popped, 300u);
}

TEST_F(KOrderHeapTest, SkipsVerticesWithWrongCore) {
  KOrderHeap q;
  q.reset(list_, &state_);
  q.enqueue(2);
  q.enqueue(4);
  // Simulate another worker promoting 2 past this level.
  state_.core(2).store(2, std::memory_order_release);
  VertexId v = q.dequeue(1);
  EXPECT_EQ(v, 4u);
  state_.lock(v).unlock();
  state_.core(2).store(1, std::memory_order_release);
}

TEST_F(KOrderHeapTest, RefreshesAfterStatusBump) {
  // The path's k-order is peeled from both ends: 0,7,1,6,2,5,3,4.
  ASSERT_TRUE(state_.precedes_stable(2, 4));
  KOrderHeap q;
  q.reset(list_, &state_);
  q.enqueue(2);
  q.enqueue(4);
  // Simulate a concurrent move of 2 to AFTER 4 (the last position).
  state_.s(2).fetch_add(1);
  list_->remove(&state_.item(2));
  list_->insert_after(&state_.item(4), &state_.item(2));
  state_.s(2).fetch_add(1);
  ASSERT_TRUE(state_.precedes_stable(4, 2));
  // Dequeue must observe the NEW order: 4 first, then 2.
  VertexId first = q.dequeue(1);
  ASSERT_NE(first, kInvalidVertex);
  state_.lock(first).unlock();
  VertexId second = q.dequeue(1);
  ASSERT_NE(second, kInvalidVertex);
  state_.lock(second).unlock();
  EXPECT_EQ(first, 4u);
  EXPECT_EQ(second, 2u);
}

TEST_F(KOrderHeapTest, RefreshesAfterRelabel) {
  // k-order: 0,7,1,6,2,5,3,4 -> 6 precedes 2.
  ASSERT_TRUE(state_.precedes_stable(6, 2));
  KOrderHeap q;
  q.reset(list_, &state_);
  q.enqueue(6);
  q.enqueue(2);
  // Force relabels by hammering one insertion point with fresh items.
  auto extra = std::make_unique<OmItem[]>(512);
  const std::uint64_t before = list_->relabel_count();
  for (std::size_t i = 0; i < 512; ++i) {
    extra[i].vertex = kInvalidVertex;
    list_->insert_after(&state_.item(0), &extra[i]);
  }
  EXPECT_GT(list_->relabel_count(), before);
  VertexId first = q.dequeue(1);
  ASSERT_EQ(first, 6u);
  state_.lock(first).unlock();
  VertexId second = q.dequeue(1);
  ASSERT_EQ(second, 2u);
  state_.lock(second).unlock();
}

TEST_F(KOrderHeapTest, DequeueReturnsLockedVertex) {
  KOrderHeap q;
  q.reset(list_, &state_);
  q.enqueue(5);
  VertexId v = q.dequeue(1);
  ASSERT_EQ(v, 5u);
  EXPECT_TRUE(state_.lock(5).is_locked());
  state_.lock(5).unlock();
}

TEST_F(KOrderHeapTest, ResetClearsState) {
  KOrderHeap q;
  q.reset(list_, &state_);
  q.enqueue(1);
  q.enqueue(1);
  q.reset(list_, &state_);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.dequeue(1), kInvalidVertex);
  // Membership and count went too: 1 queues again, counted afresh.
  q.enqueue(1);
  CoreValue din = 0;
  ASSERT_EQ(q.dequeue(1, &din), 1u);
  state_.lock(1).unlock();
  EXPECT_EQ(din, 1);
}

}  // namespace
}  // namespace parcore
