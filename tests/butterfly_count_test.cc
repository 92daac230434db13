// Tests for the vertex-priority butterfly counting kernel (Alg. 1):
// cross-validation against the brute-force reference on parameterized
// random-graph sweeps, closed forms, live-subgraph counting, and the
// traversal bound.

#include "butterfly/butterfly_count.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "engine/counting.h"
#include "graph/generators.h"

namespace receipt {
namespace {

TEST(ButterflyCountTest, TinyHandComputedGraph) {
  // u0,u1 share v0,v1 (one butterfly); u2 hangs off v1.
  const BipartiteGraph g = BipartiteGraph::FromEdges(
      3, 2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 1}});
  const auto support = CountButterflies(g, 1);
  EXPECT_EQ(support[0], 1u);
  EXPECT_EQ(support[1], 1u);
  EXPECT_EQ(support[2], 0u);
  EXPECT_EQ(support[g.VGlobal(0)], 1u);
  EXPECT_EQ(support[g.VGlobal(1)], 1u);
  EXPECT_EQ(TotalButterflies(g, 1), 1u);
}

TEST(ButterflyCountTest, CompleteBipartiteClosedForm) {
  for (const auto& [a, b] : {std::pair{2, 2}, {3, 5}, {6, 4}, {8, 8}}) {
    const BipartiteGraph g = CompleteBipartite(a, b);
    const auto support = CountButterflies(g, 2);
    for (int u = 0; u < a; ++u) {
      EXPECT_EQ(support[u], Count(a - 1) * Choose2(b)) << a << "x" << b;
    }
    for (int v = 0; v < b; ++v) {
      EXPECT_EQ(support[g.VGlobal(v)], Count(b - 1) * Choose2(a));
    }
    EXPECT_EQ(TotalButterflies(g, 2), Choose2(a) * Choose2(b));
  }
}

TEST(ButterflyCountTest, StarAndEmpty) {
  EXPECT_EQ(TotalButterflies(Star(50), 1), 0u);
  const BipartiteGraph empty = BipartiteGraph::FromEdges(4, 4, {});
  const auto support = CountButterflies(empty, 1);
  for (const Count c : support) EXPECT_EQ(c, 0u);
}

TEST(ButterflyCountTest, SupportSumIsFourTimesButterflies) {
  const BipartiteGraph g = ChungLuBipartite(200, 150, 900, 0.6, 0.6, 51);
  const auto support = CountButterflies(g, 2);
  Count sum_u = 0;
  Count sum_v = 0;
  for (VertexId u = 0; u < g.num_u(); ++u) sum_u += support[u];
  for (VertexId v = g.num_u(); v < g.num_vertices(); ++v) {
    sum_v += support[v];
  }
  // Each butterfly has two U and two V members.
  EXPECT_EQ(sum_u, sum_v);
  EXPECT_EQ(sum_u / 2, TotalButterflies(g, 2));
}

TEST(ButterflyCountTest, WedgeTraversalWithinPriorityBound) {
  const BipartiteGraph g = ChungLuBipartite(300, 200, 1200, 0.8, 0.8, 53);
  uint64_t wedges = 0;
  CountButterflies(g, 2, &wedges);
  // The vertex-priority kernel traverses at most Σ min(d_u, d_v) wedges.
  EXPECT_LE(wedges, g.CountingCostBound());
  EXPECT_GT(wedges, 0u);
}

TEST(ButterflyCountTest, CountsRespectDeadVertices) {
  // Counting on the live view after kills must equal counting the induced
  // subgraph from scratch (the HUC re-count correctness requirement).
  const BipartiteGraph g = ChungLuBipartite(80, 60, 350, 0.5, 0.5, 57);
  DynamicGraph live(g, g.DegreeDescendingRanks());
  std::vector<VertexId> kept;
  for (VertexId u = 0; u < g.num_u(); ++u) {
    if (u % 3 == 0) {
      live.Kill(u);
    } else {
      kept.push_back(u);
    }
  }
  // Without compaction (dead entries skipped inline).
  std::vector<Count> uncompacted(g.num_vertices(), 0);
  PerVertexButterflyCount(live, 2, uncompacted);
  // With compaction.
  live.Compact(2);
  std::vector<Count> compacted(g.num_vertices(), 0);
  PerVertexButterflyCount(live, 2, compacted);
  // The sequential kernel FD tasks run for their HUC re-counts.
  engine::PeelWorkspace ws;
  std::vector<Count> sequential(g.num_vertices(), 0);
  engine::CountVertexButterfliesSeq(live, ws, sequential);

  // Reference: rebuild the surviving graph.
  std::vector<BipartiteGraph::Edge> edges;
  for (const VertexId u : kept) {
    for (const VertexId gv : g.Neighbors(u)) {
      edges.push_back({u, g.Local(gv)});
    }
  }
  const BipartiteGraph sub =
      BipartiteGraph::FromEdges(g.num_u(), g.num_v(), std::move(edges));
  const auto expected = CountButterflies(sub, 1);
  for (VertexId u : kept) {
    EXPECT_EQ(uncompacted[u], expected[u]) << "u" << u;
    EXPECT_EQ(compacted[u], expected[u]) << "u" << u;
    EXPECT_EQ(sequential[u], expected[u]) << "u" << u;
  }
  for (VertexId v = 0; v < g.num_v(); ++v) {
    const VertexId gv = g.VGlobal(v);
    EXPECT_EQ(uncompacted[gv], expected[gv]) << "v" << v;
    EXPECT_EQ(compacted[gv], expected[gv]) << "v" << v;
    EXPECT_EQ(sequential[gv], expected[gv]) << "v" << v;
  }
}

TEST(ButterflyCountTest, SharedButterfliesReference) {
  const BipartiteGraph g = SmallExampleGraph();
  // Core pair u0,u1 share all four V vertices: C(4,2) = 6 butterflies.
  EXPECT_EQ(SharedButterflies(g, 0, 1), 6u);
  // u0 and u4 share v0,v1: one butterfly.
  EXPECT_EQ(SharedButterflies(g, 0, 4), 1u);
  // u0 and u7 share nothing.
  EXPECT_EQ(SharedButterflies(g, 0, 7), 0u);
}

// -- parameterized kernel-vs-brute-force sweep -----------------------------

using KernelSweepParam =
    std::tuple<VertexId, VertexId, uint64_t, double, double, uint64_t, int>;

class KernelSweep : public testing::TestWithParam<KernelSweepParam> {};

TEST_P(KernelSweep, MatchesBruteForce) {
  const auto [nu, nv, m, au, av, seed, threads] = GetParam();
  const BipartiteGraph g = ChungLuBipartite(nu, nv, m, au, av, seed);
  const auto fast = CountButterflies(g, threads);
  const auto slow = BruteForceButterflyCount(g);
  ASSERT_EQ(fast.size(), slow.size());
  for (VertexId w = 0; w < g.num_vertices(); ++w) {
    ASSERT_EQ(fast[w], slow[w]) << "vertex " << w;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelSweep,
    testing::Values(
        KernelSweepParam{30, 20, 100, 0.0, 0.0, 1, 1},
        KernelSweepParam{30, 20, 100, 0.0, 0.0, 2, 2},
        KernelSweepParam{50, 50, 400, 0.5, 0.5, 3, 2},
        KernelSweepParam{50, 50, 400, 0.5, 0.5, 4, 4},
        KernelSweepParam{100, 30, 500, 0.9, 0.9, 5, 2},
        KernelSweepParam{30, 100, 500, 0.9, 0.1, 6, 2},
        KernelSweepParam{80, 80, 800, 0.3, 0.7, 7, 3},
        KernelSweepParam{120, 60, 700, 0.6, 0.6, 8, 2},
        KernelSweepParam{10, 10, 90, 0.0, 0.0, 9, 1},
        KernelSweepParam{200, 10, 600, 0.2, 1.1, 10, 2}));

}  // namespace
}  // namespace receipt
