// Frontier-driven peel scheduling (Julienne-style direction optimization):
// the engine may rebuild each round's active set either by merging the
// per-thread workspace frontiers or by a full parallel scan. These suites
// pin the contract that both directions are bit-identical — same tip/wing
// numbers, same subsets, same bounds — across every driver, that the
// direction counters report what actually ran, and that the epoch bitmap
// dedups multi-neighbor decrements (the candidate-duplication regression).

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <tuple>
#include <vector>

#include "engine/workspace.h"
#include "graph/generators.h"
#include "tip/bup.h"
#include "tip/receipt.h"
#include "wing/receipt_wing.h"
#include "wing/wing_decomposition.h"

namespace receipt {
namespace {

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

class FrontierTipSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, uint32_t>> {};

TEST_P(FrontierTipSweep, DirectionsAreBitIdentical) {
  const auto [num_u, num_v, num_edges, seed] = GetParam();
  const BipartiteGraph g = ChungLuBipartite(
      static_cast<VertexId>(num_u), static_cast<VertexId>(num_v),
      static_cast<uint64_t>(num_edges), 0.6, 0.6, seed);

  for (const Side side : {Side::kU, Side::kV}) {
    TipOptions bup_options;
    bup_options.side = side;
    const TipResult bup = BupDecompose(g, bup_options);

    for (const int partitions : {2, 6}) {
      for (const bool optimized : {false, true}) {
        TipOptions options;
        options.side = side;
        options.num_threads = 2;
        options.num_partitions = partitions;
        options.use_huc = optimized;
        options.use_dgm = optimized;

        options.frontier_switch = FrontierSwitch::kScanOnly;
        const TipResult scan = ReceiptDecompose(g, options);
        options.frontier_switch = FrontierSwitch::kFrontierOnly;
        const TipResult frontier = ReceiptDecompose(g, options);
        options.frontier_switch = FrontierSwitch::kFixedDensity;
        const TipResult hybrid = ReceiptDecompose(g, options);
        options.frontier_switch = FrontierSwitch::kMeasuredCost;
        const TipResult measured = ReceiptDecompose(g, options);

        // Bit-identical coarse artifacts, not just final numbers.
        EXPECT_EQ(scan.tip_numbers, bup.tip_numbers);
        EXPECT_EQ(frontier.tip_numbers, scan.tip_numbers);
        EXPECT_EQ(hybrid.tip_numbers, scan.tip_numbers);
        EXPECT_EQ(measured.tip_numbers, scan.tip_numbers);
        EXPECT_EQ(frontier.subsets, scan.subsets);
        EXPECT_EQ(hybrid.subsets, scan.subsets);
        EXPECT_EQ(measured.subsets, scan.subsets);
        EXPECT_EQ(frontier.range_bounds, scan.range_bounds);
        EXPECT_EQ(measured.range_bounds, scan.range_bounds);
        EXPECT_EQ(frontier.subset_of, scan.subset_of);
        EXPECT_EQ(measured.subset_of, scan.subset_of);

        // Identical peeling structure: the direction changes how active
        // sets are rebuilt, never what they contain.
        EXPECT_EQ(frontier.stats.sync_rounds, scan.stats.sync_rounds);
        EXPECT_EQ(frontier.stats.TotalWedges(), scan.stats.TotalWedges());

        // The counters report the direction that actually ran. Initial
        // active sets come from the SupportIndex member lists, so
        // forced-frontier runs perform no scans at all.
        EXPECT_EQ(scan.stats.frontier_rounds, 0u);
        EXPECT_GT(scan.stats.scan_rounds, 0u);
        // One index build per range, plus one per HUC-forced full rebuild.
        EXPECT_GE(scan.stats.index_build_rounds, scan.stats.num_subsets);
        if (!optimized) {
          // Without HUC re-counts, a frontier-only run builds from the
          // index exactly once per range and never scans.
          EXPECT_EQ(frontier.stats.scan_rounds, 0u);
          EXPECT_EQ(frontier.stats.index_build_rounds,
                    frontier.stats.num_subsets);
        }
        // The sparse direction examines no more elements than the dense
        // one, and strictly fewer whenever any frontier round ran.
        EXPECT_LE(frontier.stats.active_scan_elements,
                  scan.stats.active_scan_elements);
        if (frontier.stats.frontier_rounds > 0) {
          EXPECT_LT(frontier.stats.active_scan_elements,
                    scan.stats.active_scan_elements);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FrontierTipSweep,
    ::testing::Values(std::make_tuple(70, 45, 340, 71u),
                      std::make_tuple(90, 60, 450, 73u),
                      std::make_tuple(55, 80, 400, 79u)));

class FrontierWingSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, uint32_t>> {};

TEST_P(FrontierWingSweep, DirectionsAreBitIdentical) {
  const auto [num_u, num_v, num_edges, seed] = GetParam();
  const BipartiteGraph g = ChungLuBipartite(
      static_cast<VertexId>(num_u), static_cast<VertexId>(num_v),
      static_cast<uint64_t>(num_edges), 0.5, 0.5, seed);

  const WingResult sequential = WingDecompose(g, /*num_threads=*/1);

  for (const int partitions : {2, 5}) {
    for (const int threads : {1, 3}) {
      ReceiptWingOptions options;
      options.num_threads = threads;
      options.num_partitions = partitions;

      options.frontier_switch = FrontierSwitch::kScanOnly;
      const WingResult scan = ReceiptWingDecompose(g, options);
      options.frontier_switch = FrontierSwitch::kFrontierOnly;
      const WingResult frontier = ReceiptWingDecompose(g, options);
      options.frontier_switch = FrontierSwitch::kFixedDensity;
      const WingResult hybrid = ReceiptWingDecompose(g, options);
      options.frontier_switch = FrontierSwitch::kMeasuredCost;
      const WingResult measured = ReceiptWingDecompose(g, options);

      EXPECT_EQ(scan.wing_numbers, sequential.wing_numbers);
      EXPECT_EQ(frontier.wing_numbers, sequential.wing_numbers);
      EXPECT_EQ(hybrid.wing_numbers, sequential.wing_numbers);
      EXPECT_EQ(measured.wing_numbers, sequential.wing_numbers);
      EXPECT_EQ(frontier.stats.sync_rounds, scan.stats.sync_rounds);
      EXPECT_EQ(frontier.stats.num_subsets, scan.stats.num_subsets);

      EXPECT_EQ(scan.stats.frontier_rounds, 0u);
      // Edge peeling never re-counts, so the frontier-only coarse step
      // builds from the index exactly once per range and never scans.
      EXPECT_EQ(frontier.stats.scan_rounds, 0u);
      EXPECT_EQ(frontier.stats.index_build_rounds,
                frontier.stats.num_subsets);
      EXPECT_LE(frontier.stats.active_scan_elements,
                scan.stats.active_scan_elements);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FrontierWingSweep,
    ::testing::Values(std::make_tuple(25, 20, 110, 81u),
                      std::make_tuple(30, 16, 125, 83u)));

// Regression for the candidate-duplication hazard in the tracked-candidates
// path of RangeDecomposer::PeelRange: u4's support is decremented by six
// different vertices peeled in one round (four K_{5,2} partners plus the
// u5/u6 block), so without the epoch-bitmap dedup it would enter the next
// active set — and therefore its subset — more than once.
TEST(FrontierRegressionTest, MultiDecrementVertexEntersActiveSetOnce) {
  std::vector<BipartiteGraph::Edge> edges;
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = 0; v < 2; ++v) edges.push_back({u, v});
  }
  for (VertexId u = 4; u < 7; ++u) {
    for (VertexId v = 2; v < 4; ++v) edges.push_back({u, v});
  }
  const BipartiteGraph g = BipartiteGraph::FromEdges(7, 4, edges);

  TipOptions bup_options;
  const TipResult bup = BupDecompose(g, bup_options);

  for (const FrontierSwitch frontier_switch :
       {FrontierSwitch::kScanOnly, FrontierSwitch::kFrontierOnly}) {
    for (const int threads : {1, 3}) {
      TipOptions options;
      options.num_threads = threads;
      options.num_partitions = 2;
      options.use_huc = false;
      options.use_dgm = false;
      options.frontier_switch = frontier_switch;
      const TipResult r = ReceiptDecompose(g, options);

      // Subsets partition U exactly: every vertex peeled exactly once.
      std::vector<VertexId> peeled;
      for (const auto& subset : r.subsets) {
        peeled.insert(peeled.end(), subset.begin(), subset.end());
      }
      ASSERT_EQ(peeled.size(), static_cast<size_t>(g.num_u()));
      std::sort(peeled.begin(), peeled.end());
      std::vector<VertexId> expected(g.num_u());
      std::iota(expected.begin(), expected.end(), 0);
      EXPECT_EQ(peeled, expected)
          << "switch " << static_cast<int>(frontier_switch) << ", threads "
          << threads;
      EXPECT_EQ(r.tip_numbers, bup.tip_numbers);
    }
  }
}

}  // namespace
}  // namespace receipt
