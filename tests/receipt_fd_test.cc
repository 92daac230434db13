// Tests for RECEIPT FD (Alg. 4): exactness given a CD partition, scheduling
// invariance, subset wedge-count proxy correctness, and FD-side HUC/DGM.

#include "tip/receipt_fd.h"

#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.h"
#include "tip/bup.h"
#include "tip/receipt_cd.h"

namespace receipt {
namespace {

TipOptions Options(int partitions, int threads, bool huc = true,
                   bool dgm = true,
                   engine::PlacementAssign assign =
                       engine::PlacementAssign::kCostLpt) {
  TipOptions options;
  options.num_partitions = partitions;
  options.num_threads = threads;
  options.use_huc = huc;
  options.use_dgm = dgm;
  options.fd_assignment = assign;
  return options;
}

std::vector<Count> RunFd(const BipartiteGraph& g, const TipOptions& options,
                         PeelStats* stats) {
  const CdResult cd = ReceiptCd(g, options, stats);
  std::vector<Count> tips(g.num_u(), 0);
  ReceiptFd(g, cd, options, tips, stats);
  return tips;
}

TEST(ReceiptFdTest, ExactTipNumbers) {
  const BipartiteGraph g = ChungLuBipartite(250, 150, 1100, 0.6, 0.6, 111);
  PeelStats stats;
  const std::vector<Count> tips = RunFd(g, Options(8, 3), &stats);
  TipOptions bup_options;
  const TipResult bup = BupDecompose(g, bup_options);
  EXPECT_EQ(tips, bup.tip_numbers);
}

TEST(ReceiptFdTest, SchedulingFlagDoesNotChangeResults) {
  const BipartiteGraph g = ChungLuBipartite(200, 120, 900, 0.7, 0.5, 113);
  PeelStats s1, s2;
  const std::vector<Count> with_was = RunFd(
      g, Options(10, 3, true, true, engine::PlacementAssign::kCostLpt), &s1);
  const std::vector<Count> without_was = RunFd(
      g, Options(10, 3, true, true, engine::PlacementAssign::kRoundRobin),
      &s2);
  EXPECT_EQ(with_was, without_was);
}

TEST(ReceiptFdTest, OptimizationFlagsDoNotChangeResults) {
  const BipartiteGraph g = ChungLuBipartite(220, 130, 950, 0.4, 0.9, 127);
  PeelStats s[4];
  const auto base = RunFd(g, Options(7, 2, false, false), &s[0]);
  EXPECT_EQ(RunFd(g, Options(7, 2, true, false), &s[1]), base);
  EXPECT_EQ(RunFd(g, Options(7, 2, false, true), &s[2]), base);
  EXPECT_EQ(RunFd(g, Options(7, 2, true, true), &s[3]), base);
}

TEST(ReceiptFdTest, FdAddsNoSyncRounds) {
  const BipartiteGraph g = ChungLuBipartite(200, 120, 800, 0.5, 0.5, 131);
  const TipOptions options = Options(8, 3);
  PeelStats cd_stats;
  const CdResult cd = ReceiptCd(g, options, &cd_stats);
  const uint64_t rounds_after_cd = cd_stats.sync_rounds;
  std::vector<Count> tips(g.num_u(), 0);
  ReceiptFd(g, cd, options, tips, &cd_stats);
  EXPECT_EQ(cd_stats.sync_rounds, rounds_after_cd);
  EXPECT_GT(cd_stats.wedges_fd, 0u);
}

TEST(ReceiptFdTest, SubsetWedgeCountsMatchNaive) {
  const BipartiteGraph g = ChungLuBipartite(120, 80, 500, 0.5, 0.5, 137);
  // Assign an arbitrary 4-way partition.
  std::vector<uint32_t> subset_of(g.num_u());
  for (VertexId u = 0; u < g.num_u(); ++u) subset_of[u] = u % 4;
  const std::vector<Count> fast =
      ComputeSubsetWedgeCounts(g, subset_of, 4, 2);
  // Naive: for every V vertex and subset, C(neighbors-in-subset, 2).
  std::vector<Count> slow(4, 0);
  for (VertexId vl = 0; vl < g.num_v(); ++vl) {
    std::vector<Count> per_subset(4, 0);
    for (const VertexId u : g.Neighbors(g.VGlobal(vl))) {
      ++per_subset[subset_of[u]];
    }
    for (uint32_t s = 0; s < 4; ++s) slow[s] += Choose2(per_subset[s]);
  }
  EXPECT_EQ(fast, slow);
}

TEST(ReceiptFdTest, FdWedgesAreSubsetOfCdWedges) {
  // §3: FD explores only intra-subset wedges of the induced subgraphs, a
  // small fraction of the full graph's wedge mass (Fig. 8: < 15%... here we
  // just require strictly fewer than CD's traversal on a non-trivial graph).
  const BipartiteGraph g = ChungLuBipartite(400, 250, 1600, 0.6, 0.6, 139);
  const TipOptions options = Options(12, 2, /*huc=*/false, /*dgm=*/false);
  PeelStats stats;
  const CdResult cd = ReceiptCd(g, options, &stats);
  std::vector<Count> tips(g.num_u(), 0);
  ReceiptFd(g, cd, options, tips, &stats);
  EXPECT_LT(stats.wedges_fd, stats.wedges_cd);
}

TEST(ReceiptFdTest, SingleVertexSubsetsHandled) {
  // Degenerate partition: huge P forces many tiny subsets.
  const BipartiteGraph g = ChungLuBipartite(60, 40, 250, 0.5, 0.5, 149);
  PeelStats stats;
  const std::vector<Count> tips = RunFd(g, Options(1000, 2), &stats);
  TipOptions bup_options;
  EXPECT_EQ(tips, BupDecompose(g, bup_options).tip_numbers);
}

}  // namespace
}  // namespace receipt
