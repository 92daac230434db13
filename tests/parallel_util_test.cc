// Tests for the parallel primitives substrate.

#include "util/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "util/stats.h"
#include "util/types.h"

namespace receipt {
namespace {

TEST(ParallelUtilTest, ParallelForCoversAllIndices) {
  for (const int threads : {1, 2, 4}) {
    std::vector<std::atomic<int>> hits(1000);
    ParallelFor(hits.size(), threads, [&hits](size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelUtilTest, ParallelForWithContextUsesDistinctContexts) {
  struct Ctx {
    uint64_t sum = 0;
  };
  std::vector<Ctx> ctxs(4);
  ParallelForWithContext(10000, 4, ctxs,
                         [](Ctx& ctx, size_t i) { ctx.sum += i; });
  uint64_t total = 0;
  for (const Ctx& c : ctxs) total += c.sum;
  EXPECT_EQ(total, 10000ull * 9999 / 2);
}

TEST(ParallelUtilTest, ParallelForWithContextFinishesEachThreadOnce) {
  // The epilogue runs once on every thread of the team, after all of that
  // thread's iterations — also when the loop is empty or has fewer items
  // than threads.
  struct Ctx {
    uint64_t iterations = 0;
    uint64_t iterations_at_finish = 0;
    int finishes = 0;
    int team = 0;
  };
  for (const int threads : {1, 2, 4}) {
    for (const size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{5000}}) {
      std::vector<Ctx> ctxs(4);
      ParallelForWithContext(
          n, threads, ctxs, [](Ctx& ctx, size_t) { ++ctx.iterations; },
          [](Ctx& ctx) {
            ++ctx.finishes;
            ctx.iterations_at_finish = ctx.iterations;
            ctx.team = omp_get_num_threads();
          });
      uint64_t total = 0;
      int finished = 0;
      int team = 0;
      for (const Ctx& ctx : ctxs) {
        EXPECT_LE(ctx.finishes, 1) << n << " items, " << threads << " threads";
        EXPECT_EQ(ctx.iterations_at_finish, ctx.iterations)
            << n << " items, " << threads << " threads";
        if (ctx.iterations > 0) {
          EXPECT_EQ(ctx.finishes, 1);
        }
        total += ctx.iterations;
        finished += ctx.finishes;
        team = std::max(team, ctx.team);
      }
      EXPECT_EQ(total, n);
      // Each thread of the team (all of it, even threads that got no
      // items) finished exactly once; a sequential call finishes ctx 0.
      EXPECT_EQ(finished, threads <= 1 ? 1 : team)
          << n << " items, " << threads << " threads";
      EXPECT_LE(team, threads);
    }
  }
}

TEST(ParallelUtilTest, DynamicChunkFollowsLoopSize) {
  EXPECT_EQ(DynamicChunk(1'000'000, 2), 64u);  // large loops keep 64
  EXPECT_EQ(DynamicChunk(64 * 2 * 64, 2), 64u);
  EXPECT_EQ(DynamicChunk(1000, 2), 7u);
  EXPECT_EQ(DynamicChunk(100, 2), 1u);  // small rounds: one item a chunk
  EXPECT_EQ(DynamicChunk(0, 4), 1u);
}

TEST(ParallelUtilTest, SmallLoopSpreadsAcrossThreads) {
  // Each of two items waits (bounded) until the other has started, which
  // only happens at once when they run on different threads. Were both
  // handed to one thread as a single chunk, the first would time out.
  struct Ctx {};
  std::vector<Ctx> ctxs(2);
  std::atomic<bool> started[2] = {false, false};
  std::atomic<bool> saw_other[2] = {false, false};
  ParallelForWithContext(2, 2, ctxs, [&](Ctx&, size_t i) {
    started[i].store(true);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!started[1 - i].load()) {
      if (std::chrono::steady_clock::now() > deadline) return;
      std::this_thread::yield();
    }
    saw_other[i].store(true);
  });
  EXPECT_TRUE(saw_other[0].load());
  EXPECT_TRUE(saw_other[1].load());
}

TEST(ParallelUtilTest, AtomicAddConcurrent) {
  uint64_t value = 0;
  ParallelFor(10000, 4, [&value](size_t) { AtomicAdd(&value, uint64_t{1}); });
  EXPECT_EQ(value, 10000u);
}

TEST(ParallelUtilTest, AtomicClampedSubBasics) {
  Count v = 100;
  EXPECT_EQ(AtomicClampedSub(&v, Count{30}, Count{10}), 70u);
  EXPECT_EQ(v, 70u);
  EXPECT_EQ(AtomicClampedSub(&v, Count{65}, Count{10}), 10u);  // clamps
  EXPECT_EQ(v, 10u);
  EXPECT_EQ(AtomicClampedSub(&v, Count{5}, Count{10}), 10u);  // at floor
}

TEST(ParallelUtilTest, AtomicClampedSubExactBoundary) {
  Count v = 40;
  // cur − delta == floor exactly.
  EXPECT_EQ(AtomicClampedSub(&v, Count{30}, Count{10}), 10u);
}

TEST(ParallelUtilTest, AtomicClampedSubConcurrentNeverBelowFloor) {
  Count v = 1000;
  ParallelFor(500, 4, [&v](size_t) {
    AtomicClampedSub(&v, Count{3}, Count{100});
  });
  EXPECT_EQ(v, 100u);  // 500·3 > 900 available above the floor
}

TEST(ParallelUtilTest, AtomicClampedSubConcurrentExactSum) {
  Count v = 10000;
  ParallelFor(100, 4, [&v](size_t) {
    AtomicClampedSub(&v, Count{7}, Count{0});
  });
  EXPECT_EQ(v, 10000u - 700u);  // no decrement may be lost (Lemma 2)
}

TEST(ParallelUtilTest, AtomicMax) {
  Count v = 5;
  AtomicMax(&v, Count{3});
  EXPECT_EQ(v, 5u);
  AtomicMax(&v, Count{9});
  EXPECT_EQ(v, 9u);
  ParallelFor(1000, 4, [&v](size_t i) { AtomicMax(&v, Count{i}); });
  EXPECT_EQ(v, 999u);
}

TEST(ParallelUtilTest, ExclusivePrefixSum) {
  std::vector<uint64_t> values = {3, 1, 4, 1, 5};
  const uint64_t total = ExclusivePrefixSum(values);
  EXPECT_EQ(total, 14u);
  EXPECT_EQ(values, (std::vector<uint64_t>{0, 3, 4, 8, 9}));
  std::vector<uint64_t> empty;
  EXPECT_EQ(ExclusivePrefixSum(empty), 0u);
}

TEST(ParallelUtilTest, PerThreadCountersFold) {
  PerThreadCounters counters(4);
  ParallelFor(4, 4, [&counters](size_t i) {
    counters.Add(ThreadId(), i + 1);
  });
  EXPECT_EQ(counters.Total(), 1u + 2 + 3 + 4);
}

TEST(ParallelUtilTest, PeelStatsMergeAndToString) {
  PeelStats a;
  a.wedges_cd = 10;
  a.sync_rounds = 2;
  a.seconds_cd = 0.5;
  PeelStats b;
  b.wedges_cd = 5;
  b.wedges_fd = 7;
  b.huc_recounts = 1;
  a.placement_nodes = 3;
  b.placement_nodes = 2;
  b.makespan_measured = 9;
  b.seconds_cd = 0.25;
  a.Merge(b);
  EXPECT_EQ(a.wedges_cd, 15u);
  EXPECT_EQ(a.wedges_fd, 7u);
  EXPECT_EQ(a.huc_recounts, 1u);
  EXPECT_EQ(a.TotalWedges(), 22u);
  EXPECT_DOUBLE_EQ(a.seconds_cd, 0.75);
  // Plan gauges keep the widest plan instead of adding up.
  EXPECT_EQ(a.placement_nodes, 3u);
  EXPECT_EQ(a.makespan_measured, 9u);
  const std::string dump = a.ToString();
  EXPECT_NE(dump.find("sync_rounds=2"), std::string::npos);
  // Every field is in the dump, gauges and incremental counters included.
  ForEachPeelStatsField([&](const char* name, auto, StatFold) {
    EXPECT_NE(dump.find(std::string(name) + "="), std::string::npos) << name;
  });
}

}  // namespace
}  // namespace receipt
