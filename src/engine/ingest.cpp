#include "engine/ingest.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <functional>
#include <thread>

#include "engine/coalesce.h"

namespace parcore::engine {

IngestQueue::IngestQueue(Options opts)
    : cap_(opts.cap), policy_(opts.policy), overflow_(opts.overflow) {
  const std::size_t count =
      std::bit_ceil(std::max<std::size_t>(opts.shards, 1));
  shards_ = std::vector<Shard>(count);
  mask_ = count - 1;
}

IngestQueue::Shard& IngestQueue::shard_for_this_thread() {
  // Hash the thread id once per thread; consecutive ids land on
  // different shards. thread_local so the pin survives across pushes
  // (per-producer FIFO within a shard).
  thread_local const std::size_t tid_hash =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return shards_[tid_hash & mask_];
}

std::size_t IngestQueue::compact_shard(Shard& s) {
  SpinGuard g(s.lock);
  const std::size_t before = s.buf.size();
  // Amortization guard: don't re-scan until the shard has roughly
  // doubled past the last compaction's survivor count. Without it an
  // all-distinct stream at the cap would pay a futile O(size) scan per
  // push (observed as a ~500x throughput collapse in bench_engine's
  // degrade rows).
  if (before < s.compact_floor * 2 + 16) return 0;
  // Keep only each edge's LAST op, in place. Dropping an edge's earlier
  // ops cannot change what the coalescer computes from the drained
  // stream: only the drain-order last op of an edge decides its
  // outcome, and survivors keep their relative order (per-producer FIFO
  // included). Recorded back to front, a run's `first` is its edge's
  // last op, and the runs come out in decreasing index order.
  LastOpTable table(before);
  for (std::size_t i = before; i-- > 0;)
    table.add(s.buf[i], static_cast<std::uint32_t>(i));
  const std::vector<EdgeRun>& runs = table.runs();
  std::size_t kept = 0;
  for (auto r = runs.rbegin(); r != runs.rend(); ++r)
    s.buf[kept++] = s.buf[r->first];
  s.buf.resize(kept);
  s.compact_floor = kept;
  const std::size_t removed = before - kept;
  if (removed > 0) size_.fetch_sub(removed, std::memory_order_relaxed);
  return removed;
}

PushResult IngestQueue::push(const GraphUpdate& u) {
  PushResult r;
  Shard& s = shard_for_this_thread();
  bool at_cap = false;
  {
    SpinGuard g(s.lock);
    s.buf.push_back(u);
    // Counted inside the critical section: once drain() can observe the
    // update (it takes this lock), its increment has landed, so the
    // drain-side fetch_sub can never underflow the counter.
    r.prev = size_.fetch_add(1, std::memory_order_relaxed);
    // Optimistic admission: the fetch_add the unbounded path already
    // pays doubles as the at-cap probe, so an under-cap push costs one
    // register compare over the unbounded queue. (A separate pre-push
    // size_ load re-contends the hottest cache line before its own RMW
    // and measurably taxed admission-on throughput — the <=2% gate is
    // why the probe is the RMW itself.) kShed/kBlock retract the
    // speculative insert under this same lock hold, so a drain can
    // never deliver an update whose push will report accepted == false.
    at_cap = cap_ > 0 && r.prev >= cap_ &&
             !closed_.load(std::memory_order_relaxed);
    if (at_cap && policy_ != OverloadPolicy::kDegrade) {
      s.buf.pop_back();
      size_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  if (at_cap) return push_at_cap(s, u, r);
  return r;
}

PushResult IngestQueue::push_at_cap(Shard& s, const GraphUpdate& u,
                                    PushResult r) {
  // Poke the consumer before the policy acts: a blocking producer
  // wants the drain it is about to wait on already scheduled.
  if (overflow_ != nullptr) overflow_->notify();
  switch (policy_) {
    case OverloadPolicy::kShed:
      r.accepted = false;
      shed_.fetch_add(1, std::memory_order_relaxed);
      return r;
    case OverloadPolicy::kBlock: {
      block_waits_.fetch_add(1, std::memory_order_relaxed);
      const auto t0 = std::chrono::steady_clock::now();
      while (size_.load(std::memory_order_relaxed) >= cap_ &&
             !closed_.load(std::memory_order_relaxed)) {
        // Bounded waits, re-armed by drain(): the condition is
        // re-checked on every wake, so a missed notify costs at most
        // one timeout, never a hang.
        drained_.wait_for(std::chrono::microseconds(500));
      }
      r.blocked_us = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      blocked_us_.fetch_add(r.blocked_us, std::memory_order_relaxed);
      // Land the update for real; no re-check, so racing producers can
      // overshoot the cap by at most one each after a wake.
      {
        SpinGuard g(s.lock);
        s.buf.push_back(u);
        r.prev = size_.fetch_add(1, std::memory_order_relaxed);
      }
      return r;
    }
    case OverloadPolicy::kDegrade: {
      // The update stays admitted (with nothing left to compact the cap
      // has to yield, or a distinct-edge burst would deadlock producers
      // that were promised admission); shed the oldest redundant ops
      // from this shard instead.
      const std::size_t removed = compact_shard(s);
      if (removed > 0)
        compacted_.fetch_add(removed, std::memory_order_relaxed);
      return r;
    }
  }
  return r;  // unreachable; placates -Wreturn-type
}

std::size_t IngestQueue::drain(std::vector<GraphUpdate>& out) {
  std::size_t drained = 0;
  std::vector<GraphUpdate> grabbed;
  for (Shard& s : shards_) {
    grabbed.clear();
    // Swap under the lock, splice outside it: producers stall only for
    // the O(1) swap, not for the copy into `out`.
    {
      SpinGuard g(s.lock);
      grabbed.swap(s.buf);
      s.compact_floor = 0;
    }
    drained += grabbed.size();
    out.insert(out.end(), grabbed.begin(), grabbed.end());
  }
  size_.fetch_sub(drained, std::memory_order_relaxed);
  if (cap_ > 0 && drained > 0) drained_.notify_all();
  return drained;
}

void IngestQueue::close() {
  closed_.store(true, std::memory_order_relaxed);
  if (cap_ > 0) drained_.notify_all();
}

void IngestQueue::open() {
  closed_.store(false, std::memory_order_relaxed);
}

}  // namespace parcore::engine
