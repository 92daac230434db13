// Frontier-driven peel scheduling (Julienne-style direction optimization):
// each round the engine rebuilds the next active set either by merging the
// per-thread workspace frontiers (while the frontier holds fewer than
// kFrontierDensity × alive entities) or by a full parallel scan. These
// suites pin the contract that the one rule is exact — same tip/wing
// numbers as BUP / sequential wing peeling, same RangeResult as the naive
// oracle in coarse_oracle.h — that the direction counters report what ran
// and are identical across thread counts and repeats, that both directions
// run somewhere in the sweeps, and that the epoch bitmap dedups
// multi-neighbor decrements (the candidate-duplication regression).

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <tuple>
#include <vector>

#include "coarse_oracle.h"
#include "engine/workspace.h"
#include "graph/generators.h"
#include "tip/bup.h"
#include "tip/receipt.h"
#include "tip/receipt_cd.h"
#include "wing/receipt_wing.h"
#include "wing/wing_decomposition.h"

namespace receipt {
namespace {

// Thread counts every run is checked at (the coarse-step helpers below
// also repeat the last one).
constexpr int kThreads[] = {1, 2, 3};

// (num_u, num_v, num_edges, seed) of a Chung–Lu sweep graph.
using Fixture = std::tuple<int, int, int, uint32_t>;
constexpr Fixture kTipFixtures[] = {
    {70, 45, 340, 71u}, {90, 60, 450, 73u}, {55, 80, 400, 79u}};
constexpr Fixture kWingFixtures[] = {{25, 20, 110, 81u}, {30, 16, 125, 83u}};

BipartiteGraph TipGraph(const Fixture& f) {
  const auto [num_u, num_v, num_edges, seed] = f;
  return ChungLuBipartite(static_cast<VertexId>(num_u),
                          static_cast<VertexId>(num_v),
                          static_cast<uint64_t>(num_edges), 0.6, 0.6, seed);
}

BipartiteGraph WingGraph(const Fixture& f) {
  const auto [num_u, num_v, num_edges, seed] = f;
  return ChungLuBipartite(static_cast<VertexId>(num_u),
                          static_cast<VertexId>(num_v),
                          static_cast<uint64_t>(num_edges), 0.5, 0.5, seed);
}

/// The counters the direction rule decides.
auto DirectionCounters(const PeelStats& s) {
  return std::make_tuple(s.frontier_rounds, s.scan_rounds,
                         s.active_scan_elements, s.index_build_rounds);
}

/// The direction counters report what ran: `n` entities per scan, the
/// merged frontier otherwise, and a merge examines strictly fewer than
/// the scan-only rebuild of the same rounds would.
void ExpectCountersConsistent(const PeelStats& s, uint64_t n) {
  EXPECT_EQ(s.scan_build_elements, n * s.scan_rounds);
  EXPECT_EQ(s.active_scan_elements,
            s.scan_build_elements + s.frontier_build_elements);
  // One index build per range, plus one per HUC-forced full rebuild.
  EXPECT_EQ(s.index_build_rounds, s.num_subsets + s.huc_recounts);
  if (s.frontier_rounds > 0) {
    EXPECT_LT(s.active_scan_elements,
              n * (s.frontier_rounds + s.scan_rounds));
  }
}

/// Runs the tip coarse step at every kThreads count plus one repeat,
/// checks each against the oracle, and returns the (identical) stats.
PeelStats TipCoarseAtEveryThreadCount(const BipartiteGraph& oriented,
                                      TipOptions options) {
  const auto expected =
      oracle::CoarseRanges(oracle::TipModel(oriented), options.num_partitions);
  PeelStats first;
  for (const int threads : {1, 2, 3, 3}) {  // kThreads plus a repeat
    options.num_threads = threads;
    PeelStats stats;
    const CdResult cd = ReceiptCd(oriented, options, &stats);
    oracle::ExpectRanges(expected, cd);
    EXPECT_EQ(stats.sync_rounds, expected.rounds);
    ExpectCountersConsistent(stats, oriented.num_u());
    if (threads == 1) first = stats;
    EXPECT_EQ(DirectionCounters(stats), DirectionCounters(first))
        << "threads " << threads;
  }
  return first;
}

TEST(FrontierEpochsTest, ClaimsOncePerRound) {
  engine::FrontierEpochs epochs;
  epochs.Reset(8);
  epochs.NextRound();
  EXPECT_TRUE(epochs.Claim(3));
  EXPECT_FALSE(epochs.Claim(3));  // second decrement in the same round
  EXPECT_TRUE(epochs.Claim(5));
  epochs.NextRound();
  EXPECT_TRUE(epochs.Claim(3));  // new round, claimable again
  EXPECT_FALSE(epochs.Claim(3));
  // Reset rewinds everything.
  epochs.Reset(8);
  epochs.NextRound();
  EXPECT_TRUE(epochs.Claim(3));
}

class FrontierTipSweep : public ::testing::TestWithParam<Fixture> {};

// Whichever direction each round takes, the rebuilt active sets are the
// scan's: tip numbers equal BUP's, the coarse step equals the oracle's, and
// neither nor the direction counters move with the thread count.
TEST_P(FrontierTipSweep, DirectionsAreBitIdentical) {
  const BipartiteGraph g = TipGraph(GetParam());

  for (const Side side : {Side::kU, Side::kV}) {
    TipOptions bup_options;
    bup_options.side = side;
    const TipResult bup = BupDecompose(g, bup_options);
    const BipartiteGraph oriented =
        side == Side::kU ? g : g.SwappedCopy();

    for (const int partitions : {2, 6}) {
      for (const bool optimized : {false, true}) {
        TipOptions options;
        options.side = side;
        options.num_partitions = partitions;
        options.use_huc = optimized;
        options.use_dgm = optimized;
        TipCoarseAtEveryThreadCount(oriented, options);

        TipResult first;
        for (const int threads : kThreads) {
          options.num_threads = threads;
          const TipResult r = ReceiptDecompose(g, options);
          EXPECT_EQ(r.tip_numbers, bup.tip_numbers)
              << "side " << SideName(side) << ", P=" << partitions
              << ", opt=" << optimized << ", threads " << threads;
          if (threads == 1) first = r;
          EXPECT_EQ(r.subsets, first.subsets);
          EXPECT_EQ(r.range_bounds, first.range_bounds);
          EXPECT_EQ(DirectionCounters(r.stats), DirectionCounters(first.stats));
          EXPECT_EQ(r.stats.TotalWedges(), first.stats.TotalWedges());
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FrontierTipSweep,
                         ::testing::ValuesIn(kTipFixtures));

/// Runs the wing coarse step at every kThreads count plus one repeat,
/// checks each against the oracle, and returns the (identical) stats.
PeelStats WingCoarseAtEveryThreadCount(const BipartiteGraph& g,
                                       int partitions) {
  const auto expected =
      oracle::CoarseRanges(oracle::WingModel(g), partitions);
  PeelStats first;
  for (const int threads : {1, 2, 3, 3}) {  // kThreads plus a repeat
    ReceiptWingOptions options;
    options.num_threads = threads;
    options.num_partitions = partitions;
    PeelStats stats;
    const auto coarse = ReceiptWingCoarse(g, options, &stats);
    oracle::ExpectRanges(expected, coarse);
    EXPECT_EQ(stats.sync_rounds, expected.rounds);
    ExpectCountersConsistent(stats, g.num_edges());
    if (threads == 1) first = stats;
    EXPECT_EQ(DirectionCounters(stats), DirectionCounters(first))
        << "threads " << threads;
  }
  return first;
}

class FrontierWingSweep : public ::testing::TestWithParam<Fixture> {};

// The wing analogue: numbers equal sequential wing peeling, the coarse step
// equals the oracle's, counters are thread-count independent.
TEST_P(FrontierWingSweep, DirectionsAreBitIdentical) {
  const BipartiteGraph g = WingGraph(GetParam());
  const WingResult sequential = WingDecompose(g, /*num_threads=*/1);

  for (const int partitions : {2, 5}) {
    WingCoarseAtEveryThreadCount(g, partitions);
    PeelStats first;
    for (const int threads : kThreads) {
      ReceiptWingOptions options;
      options.num_threads = threads;
      options.num_partitions = partitions;
      const WingResult r = ReceiptWingDecompose(g, options);
      EXPECT_EQ(r.wing_numbers, sequential.wing_numbers)
          << "P=" << partitions << ", threads " << threads;
      if (threads == 1) first = r.stats;
      EXPECT_EQ(DirectionCounters(r.stats), DirectionCounters(first));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FrontierWingSweep,
                         ::testing::ValuesIn(kWingFixtures));

// Both rebuild directions stay exercised: in the tip sweep and in the wing
// sweep, some round merges the frontier and some round scans.
TEST(FrontierCoverageTest, SweepsRunBothDirections) {
  PeelStats tip;
  for (const Fixture& f : kTipFixtures) {
    const BipartiteGraph g = TipGraph(f);
    for (const bool optimized : {false, true}) {
      TipOptions options;
      options.num_partitions = 6;
      options.use_huc = optimized;
      options.use_dgm = optimized;
      tip.Merge(TipCoarseAtEveryThreadCount(g, options));
    }
  }
  EXPECT_GT(tip.frontier_rounds, 0u);
  EXPECT_GT(tip.scan_rounds, 0u);

  PeelStats wing;
  for (const Fixture& f : kWingFixtures) {
    wing.Merge(WingCoarseAtEveryThreadCount(WingGraph(f), 5));
  }
  EXPECT_GT(wing.frontier_rounds, 0u);
  EXPECT_GT(wing.scan_rounds, 0u);
}

// Regression for the candidate-duplication hazard in the frontier merge of
// RangeDecomposer::PeelRange: u4's support is decremented by six
// different vertices peeled in one round (four K_{5,2} partners plus the
// u5/u6 block), so without the epoch-bitmap dedup it would enter the
// merged frontier — and therefore the next active set and its subset —
// more than once. Six disjoint K_{6,2} blocks (support 5, outside the
// first range) keep the alive count high enough that even the undeduped
// frontier stays below kFrontierDensity × alive, so the round takes the
// merge rather than the scan.
TEST(FrontierRegressionTest, MultiDecrementVertexEntersActiveSetOnce) {
  std::vector<BipartiteGraph::Edge> edges;
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = 0; v < 2; ++v) edges.push_back({u, v});
  }
  for (VertexId u = 4; u < 7; ++u) {
    for (VertexId v = 2; v < 4; ++v) edges.push_back({u, v});
  }
  constexpr VertexId kBlocks = 6;
  for (VertexId b = 0; b < kBlocks; ++b) {
    for (VertexId u = 7 + 6 * b; u < 13 + 6 * b; ++u) {
      for (VertexId v = 4 + 2 * b; v < 6 + 2 * b; ++v) edges.push_back({u, v});
    }
  }
  const BipartiteGraph g =
      BipartiteGraph::FromEdges(7 + 6 * kBlocks, 4 + 2 * kBlocks, edges);

  TipOptions bup_options;
  const TipResult bup = BupDecompose(g, bup_options);

  for (const int threads : {1, 3}) {
    TipOptions options;
    options.num_threads = threads;
    options.num_partitions = 18;
    options.use_huc = false;
    options.use_dgm = false;
    const TipResult r = ReceiptDecompose(g, options);
    EXPECT_GT(r.stats.frontier_rounds, 0u) << "threads " << threads;

    // Subsets partition U exactly: every vertex peeled exactly once.
    std::vector<VertexId> peeled;
    for (const auto& subset : r.subsets) {
      peeled.insert(peeled.end(), subset.begin(), subset.end());
    }
    ASSERT_EQ(peeled.size(), static_cast<size_t>(g.num_u()))
        << "threads " << threads;
    std::sort(peeled.begin(), peeled.end());
    std::vector<VertexId> expected(g.num_u());
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(peeled, expected) << "threads " << threads;
    EXPECT_EQ(r.tip_numbers, bup.tip_numbers);
  }
}

}  // namespace
}  // namespace receipt
