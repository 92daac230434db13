// Output-sensitive coarse decomposition (SupportIndex): the coarse step
// determines range bounds through a frontier-fed support histogram, patches
// ⊲⊳init at range boundaries from the entities whose support changed, and
// builds each range's first active set from the histogram's member lists.
// These suites pin the engine's RangeResults — bounds, subsets, subset_of,
// init_support, predicted_costs — to the naive oracle in coarse_oracle.h
// (which shares no engine code) for every algorithm, generator shape,
// HUC/DGM setting, partition count and thread count, check that the
// index's examined-element counters report what ran, and that the
// pool-resident index allocates nothing once warm.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "coarse_oracle.h"
#include "engine/support_index.h"
#include "engine/workspace.h"
#include "graph/generators.h"
#include "tip/bup.h"
#include "tip/receipt.h"
#include "tip/receipt_cd.h"
#include "util/parallel.h"
#include "wing/receipt_wing.h"
#include "wing/wing_decomposition.h"

namespace receipt {
namespace {

std::vector<int> SweepThreads() {
  std::vector<int> threads = {1, 4};
  const int hw = MaxThreads();
  if (hw != 1 && hw != 4) threads.push_back(hw);
  return threads;
}

BipartiteGraph SweepGraph(bool skewed, uint32_t seed) {
  // Skewed: heavy-tailed degrees, long peeling tails — the regime the
  // index exists for. Uniform: flat degrees.
  return skewed ? ChungLuBipartite(400, 260, 3000, 0.8, 0.8, seed)
                : RandomBipartite(400, 260, 3000, seed);
}

void ExpectSameRanges(const engine::RangeResult<VertexId>& a,
                      const engine::RangeResult<VertexId>& b) {
  EXPECT_EQ(a.bounds, b.bounds);
  EXPECT_EQ(a.subsets, b.subsets);
  EXPECT_EQ(a.subset_of, b.subset_of);
  EXPECT_EQ(a.init_support, b.init_support);
  EXPECT_EQ(a.predicted_costs, b.predicted_costs);
}

void ExpectSameDirectionCounters(const PeelStats& a, const PeelStats& b) {
  EXPECT_EQ(a.frontier_rounds, b.frontier_rounds);
  EXPECT_EQ(a.scan_rounds, b.scan_rounds);
  EXPECT_EQ(a.active_scan_elements, b.active_scan_elements);
  EXPECT_EQ(a.index_build_rounds, b.index_build_rounds);
}

// ---------------------------------------------------------------------------
// SupportIndex unit behavior against a brute-force model.
// ---------------------------------------------------------------------------

TEST(SupportIndexTest, FindBoundMatchesBruteForce) {
  const uint64_t n = 500;
  std::vector<Count> support(n);
  std::vector<Count> cost(n);
  std::vector<bool> alive(n, true);
  for (uint64_t e = 0; e < n; ++e) {
    support[e] = (e * 37) % 97;
    cost[e] = 1 + (e * 13) % 7;
    if (e % 11 == 0) alive[e] = false;
  }

  engine::SupportIndex index;
  index.Rebuild(
      n, [&](uint64_t e) { return alive[e]; },
      [&](uint64_t e) { return support[e]; }, cost);

  const auto brute = [&](Count need) -> Count {
    std::vector<std::pair<Count, Count>> sc;
    for (uint64_t e = 0; e < n; ++e) {
      if (alive[e]) sc.emplace_back(support[e], cost[e]);
    }
    if (sc.empty()) return kInvalidCount;
    std::sort(sc.begin(), sc.end());
    Count acc = 0;
    for (const auto& [s, c] : sc) {
      acc += c;
      if (acc >= need) return s + 1;
    }
    return sc.back().first + 1;
  };
  const auto supports = [&](uint64_t e) { return support[e]; };
  // The range's predicted cost: alive mass strictly below the bound.
  const auto mass_below = [&](Count hi) {
    Count mass = 0;
    for (uint64_t e = 0; e < n; ++e) {
      if (alive[e] && support[e] < hi) mass += cost[e];
    }
    return mass;
  };

  PeelStats stats;
  for (const Count need : {Count{1}, Count{50}, Count{700}, Count{1800},
                           Count{100000}}) {
    Count predicted = 0;
    const Count hi = index.FindBound(need, supports, &stats, &predicted);
    EXPECT_EQ(hi, brute(need)) << "need " << need;
    EXPECT_EQ(predicted, mass_below(hi)) << "need " << need;
  }
  EXPECT_GT(stats.bound_walk_buckets, 0u);

  // Remove a batch (as peeled rounds do), move a few survivors (as
  // boundary reconciliation does), and re-check every target.
  for (uint64_t e = 0; e < n; e += 5) {
    if (alive[e]) {
      index.Remove(e, cost[e]);
      alive[e] = false;
    }
  }
  for (uint64_t e = 1; e < n; e += 7) {
    if (alive[e]) {
      support[e] = support[e] / 2;
      index.MoveTo(e, support[e], cost[e]);
    }
  }
  for (const Count need : {Count{1}, Count{50}, Count{700}, Count{1800},
                           Count{100000}}) {
    Count predicted = 0;
    const Count hi = index.FindBound(need, supports, &stats, &predicted);
    EXPECT_EQ(hi, brute(need)) << "after mutation, need " << need;
    EXPECT_EQ(predicted, mass_below(hi)) << "after mutation, need " << need;
  }
}

TEST(SupportIndexTest, WideSupportRangeUsesBucketedRefine) {
  // Supports far above the leaf-bucket budget force a power-of-two bucket
  // width > 1, so FindBound must resolve crossings through the in-bucket
  // refine rather than bucket arithmetic alone.
  const uint64_t n = 300;
  std::vector<Count> support(n);
  std::vector<Count> cost(n, 1);
  for (uint64_t e = 0; e < n; ++e) {
    support[e] = e * 1'000'003;  // spread across ~300M support values
  }
  engine::SupportIndex index;
  index.Rebuild(
      n, [](uint64_t) { return true; },
      [&](uint64_t e) { return support[e]; }, cost);
  ASSERT_LE(index.num_buckets(), engine::SupportIndex::kMaxBuckets);

  PeelStats stats;
  const auto supports = [&](uint64_t e) { return support[e]; };
  for (const Count need : {Count{1}, Count{2}, Count{150}, Count{300}}) {
    EXPECT_EQ(index.FindBound(need, supports, &stats),
              support[need - 1] + 1)
        << "need " << need;
  }
  // Total mass short of the target: maximum alive support + 1.
  EXPECT_EQ(index.FindBound(Count{301}, supports, &stats),
            support[n - 1] + 1);
  EXPECT_GT(stats.histogram_refines, 0u);
}

// ---------------------------------------------------------------------------
// Engine vs oracle coarse step: RECEIPT CD (tip).
// ---------------------------------------------------------------------------

class CoarseIndexTipSweep
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(CoarseIndexTipSweep, EngineMatchesOracle) {
  const auto [skewed, optimized] = GetParam();
  const BipartiteGraph g = SweepGraph(skewed, skewed ? 311u : 313u);
  const auto expected =
      oracle::CoarseRanges(oracle::TipModel(g), /*partitions=*/8);

  PeelStats one_thread;
  for (const int threads : SweepThreads()) {
    TipOptions options;
    options.num_threads = threads;
    options.num_partitions = 8;
    options.use_huc = optimized;
    options.use_dgm = optimized;

    PeelStats stats;
    const CdResult cd = ReceiptCd(g, options, &stats);
    oracle::ExpectRanges(expected, cd);

    // Same peeling structure as the oracle: HUC re-counts change how
    // supports are refreshed, never what is peeled when. The work done is
    // a property of the graph, not of the schedule.
    EXPECT_EQ(stats.sync_rounds, expected.rounds);
    if (threads == 1) one_thread = stats;
    EXPECT_EQ(stats.TotalWedges(), one_thread.TotalWedges());
    EXPECT_EQ(stats.huc_recounts, one_thread.huc_recounts);
    // The rebuild direction depends only on set sizes, so its counters
    // are schedule-independent too.
    ExpectSameDirectionCounters(one_thread, stats);

    // Bound determination is routed through the index.
    EXPECT_GT(stats.bound_walk_buckets, 0u);
    EXPECT_GE(stats.index_rebuild_elements,
              static_cast<uint64_t>(g.num_u()));
    EXPECT_GE(stats.index_build_rounds, stats.num_subsets);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CoarseIndexTipSweep,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

// Thread-count invariance of the engine itself (the delta lists are
// schedule-dependent; the results must not be).
TEST(CoarseIndexTipTest, IndexedPathIsThreadCountInvariant) {
  const BipartiteGraph g = SweepGraph(/*skewed=*/true, 317u);
  TipOptions options;
  options.num_partitions = 6;
  options.num_threads = 1;
  PeelStats s1;
  const CdResult one = ReceiptCd(g, options, &s1);
  for (const int threads : SweepThreads()) {
    options.num_threads = threads;
    PeelStats st;
    const CdResult many = ReceiptCd(g, options, &st);
    ExpectSameRanges(one, many);
    ExpectSameDirectionCounters(s1, st);
  }
}

// ---------------------------------------------------------------------------
// Engine vs oracle coarse step: RECEIPT-W (wing).
// ---------------------------------------------------------------------------

class CoarseIndexWingSweep : public ::testing::TestWithParam<bool> {};

TEST_P(CoarseIndexWingSweep, EngineMatchesOracle) {
  const bool skewed = GetParam();
  const BipartiteGraph g = skewed
                               ? ChungLuBipartite(70, 50, 320, 0.7, 0.7, 331)
                               : RandomBipartite(70, 50, 320, 337);
  const oracle::WingModel model(g);

  for (const int partitions : {2, 5}) {
    const auto expected = oracle::CoarseRanges(model, partitions);
    for (const int threads : SweepThreads()) {
      ReceiptWingOptions options;
      options.num_threads = threads;
      options.num_partitions = partitions;

      PeelStats stats;
      const auto coarse = ReceiptWingCoarse(g, options, &stats);
      oracle::ExpectRanges(expected, coarse);
      EXPECT_EQ(stats.sync_rounds, expected.rounds);
      EXPECT_GT(stats.bound_walk_buckets, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CoarseIndexWingSweep, ::testing::Bool());

// ---------------------------------------------------------------------------
// End-to-end: the indexed coarse step feeds FD the exact final numbers.
// ---------------------------------------------------------------------------

TEST(CoarseIndexEndToEndTest, TipNumbersMatchBup) {
  const BipartiteGraph g = SweepGraph(/*skewed=*/true, 347u);
  TipOptions bup_options;
  const TipResult bup = BupDecompose(g, bup_options);

  TipOptions options;
  options.num_threads = 3;
  options.num_partitions = 7;
  const TipResult r = ReceiptDecompose(g, options);
  EXPECT_EQ(r.tip_numbers, bup.tip_numbers);

  PeelStats stats;
  oracle::ExpectRanges(oracle::CoarseRanges(oracle::TipModel(g), 7),
                       ReceiptCd(g, options, &stats));
}

TEST(CoarseIndexEndToEndTest, WingNumbersMatchSequential) {
  const BipartiteGraph g = ChungLuBipartite(40, 30, 170, 0.6, 0.6, 353);
  const WingResult sequential = WingDecompose(g, /*num_threads=*/1);

  ReceiptWingOptions options;
  options.num_threads = 2;
  options.num_partitions = 4;
  const WingResult r = ReceiptWingDecompose(g, options);
  EXPECT_EQ(r.wing_numbers, sequential.wing_numbers);

  PeelStats stats;
  oracle::ExpectRanges(oracle::CoarseRanges(oracle::WingModel(g), 4),
                       ReceiptWingCoarse(g, options, &stats));
}

// ---------------------------------------------------------------------------
// Arena residency: the index allocates nothing once warm.
// ---------------------------------------------------------------------------

TEST(CoarseIndexArenaTest, SupportIndexDoesNotGrowAfterWarmup) {
  const BipartiteGraph g = SweepGraph(/*skewed=*/true, 359u);
  engine::WorkspacePool pool;
  TipOptions options;
  options.num_threads = 2;
  options.num_partitions = 6;

  PeelStats warmup_stats;
  const CdResult warm = ReceiptCd(g, options, pool, &warmup_stats);
  const uint64_t growths_warm = pool.TotalGrowths();
  EXPECT_GT(growths_warm, 0u);

  for (int repeat = 0; repeat < 3; ++repeat) {
    PeelStats stats;
    const CdResult again = ReceiptCd(g, options, pool, &stats);
    ExpectSameRanges(warm, again);
  }
  EXPECT_EQ(pool.TotalGrowths(), growths_warm)
      << "SupportIndex (or other pool scratch) grew after warmup";
}

}  // namespace
}  // namespace receipt
