// Unit tests for DynamicGraph: kill/compact semantics, rank ordering, cost
// models (§4.2 Dynamic Graph Maintenance substrate).

#include "graph/dynamic_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/generators.h"

namespace receipt {
namespace {

DynamicGraph MakeLive(const BipartiteGraph& g) {
  return DynamicGraph(g, g.DegreeDescendingRanks());
}

TEST(DynamicGraphTest, InitialStateMirrorsGraph) {
  const BipartiteGraph g = ChungLuBipartite(50, 30, 200, 0.5, 0.5, 31);
  const DynamicGraph live = MakeLive(g);
  EXPECT_EQ(live.num_u(), g.num_u());
  EXPECT_EQ(live.num_v(), g.num_v());
  for (VertexId w = 0; w < g.num_vertices(); ++w) {
    EXPECT_TRUE(live.IsAlive(w));
    EXPECT_EQ(live.Degree(w), g.Degree(w));
  }
  EXPECT_EQ(live.LiveEdgeSlots(), 2 * g.num_edges());
  EXPECT_EQ(live.NumAlive(Side::kU), g.num_u());
  EXPECT_EQ(live.NumAlive(Side::kV), g.num_v());
}

TEST(DynamicGraphTest, NeighborsSortedByRank) {
  const BipartiteGraph g = ChungLuBipartite(50, 30, 200, 0.8, 0.8, 33);
  const DynamicGraph live = MakeLive(g);
  for (VertexId w = 0; w < g.num_vertices(); ++w) {
    const auto nbrs = live.Neighbors(w);
    for (size_t i = 1; i < nbrs.size(); ++i) {
      EXPECT_LT(live.Rank(nbrs[i - 1]), live.Rank(nbrs[i]));
    }
  }
}

TEST(DynamicGraphTest, RecountCostBoundMatchesStaticGraph) {
  const BipartiteGraph g = ChungLuBipartite(60, 40, 250, 0.6, 0.6, 35);
  const DynamicGraph live = MakeLive(g);
  EXPECT_EQ(live.RecountCostBound(), g.CountingCostBound());
}

TEST(DynamicGraphTest, KillThenCompactRemovesEdges) {
  // K_{3,3}: killing one u must shave one entry off every v after Compact.
  const BipartiteGraph g = CompleteBipartite(3, 3);
  DynamicGraph live = MakeLive(g);
  live.Kill(0);
  EXPECT_FALSE(live.IsAlive(0));
  // Before compaction, neighbor lists still include the dead vertex.
  EXPECT_EQ(live.Degree(g.VGlobal(0)), 3u);
  live.Compact(2);
  EXPECT_EQ(live.Degree(g.VGlobal(0)), 2u);
  EXPECT_EQ(live.Degree(g.VGlobal(1)), 2u);
  EXPECT_EQ(live.Degree(g.VGlobal(2)), 2u);
  EXPECT_EQ(live.Degree(0), 0u);  // dead vertex's own list is dropped
  for (VertexId v = 0; v < 3; ++v) {
    for (const VertexId u : live.Neighbors(g.VGlobal(v))) {
      EXPECT_TRUE(live.IsAlive(u));
    }
  }
  EXPECT_EQ(live.NumAlive(Side::kU), 2u);
}

TEST(DynamicGraphTest, CompactPreservesRankOrder) {
  const BipartiteGraph g = ChungLuBipartite(80, 40, 300, 0.7, 0.7, 37);
  DynamicGraph live = MakeLive(g);
  for (VertexId u = 0; u < 40; u += 3) live.Kill(u);
  live.Compact(2);
  for (VertexId w = 0; w < g.num_vertices(); ++w) {
    if (!live.IsAlive(w)) continue;
    const auto nbrs = live.Neighbors(w);
    for (size_t i = 1; i < nbrs.size(); ++i) {
      EXPECT_LT(live.Rank(nbrs[i - 1]), live.Rank(nbrs[i]));
    }
    for (const VertexId x : nbrs) EXPECT_TRUE(live.IsAlive(x));
  }
}

TEST(DynamicGraphTest, LiveWedgeCountTracksCompaction) {
  const BipartiteGraph g = CompleteBipartite(4, 3);
  DynamicGraph live = MakeLive(g);
  // In K_{4,3}, u0's wedges: 3 neighbors of degree 4 → 3·3 = 9.
  EXPECT_EQ(live.LiveWedgeCount(0), 9u);
  live.Kill(1);
  live.Compact(1);
  // Now every v has degree 3 → 3·2 = 6.
  EXPECT_EQ(live.LiveWedgeCount(0), 6u);
}

TEST(DynamicGraphTest, RecountCostBoundShrinksAfterKills) {
  const BipartiteGraph g = ChungLuBipartite(100, 60, 400, 0.6, 0.8, 39);
  DynamicGraph live = MakeLive(g);
  const Count before = live.RecountCostBound();
  for (VertexId u = 0; u < 50; ++u) live.Kill(u);
  live.Compact(2);
  const Count after = live.RecountCostBound();
  EXPECT_LT(after, before);
}

TEST(DynamicGraphTest, KillAllYieldsEmptyLiveGraph) {
  const BipartiteGraph g = CompleteBipartite(3, 3);
  DynamicGraph live = MakeLive(g);
  for (VertexId u = 0; u < 3; ++u) live.Kill(u);
  live.Compact(1);
  EXPECT_EQ(live.NumAlive(Side::kU), 0u);
  EXPECT_EQ(live.RecountCostBound(), 0u);
  for (VertexId v = 0; v < 3; ++v) {
    EXPECT_EQ(live.Degree(g.VGlobal(v)), 0u);
  }
}

std::vector<VertexId> ListOf(const DynamicGraph& live, VertexId w) {
  const auto nbrs = live.Neighbors(w);
  return {nbrs.begin(), nbrs.end()};
}

TEST(DynamicGraphTest, CompactRewritesOnlyListsOppositeKilledSide) {
  const BipartiteGraph g = ChungLuBipartite(120, 50, 600, 0.7, 0.7, 41);
  DynamicGraph live = MakeLive(g);
  for (VertexId u = 0; u < g.num_u(); u += 4) live.Kill(u);
  std::vector<std::vector<VertexId>> before(g.num_vertices());
  for (VertexId w = 0; w < g.num_vertices(); ++w) before[w] = ListOf(live, w);

  // Only U vertices died: U lists (V ids) are untouched, V lists lose
  // exactly their dead entries in rank order, dead vertices read degree 0.
  live.Compact(2);
  for (VertexId u = 0; u < g.num_u(); ++u) {
    if (live.IsAlive(u)) {
      EXPECT_EQ(ListOf(live, u), before[u]) << "u" << u;
    } else {
      EXPECT_EQ(live.Degree(u), 0u) << "u" << u;
    }
  }
  for (VertexId v = 0; v < g.num_v(); ++v) {
    const VertexId gv = g.VGlobal(v);
    std::vector<VertexId> expected;
    for (const VertexId u : before[gv]) {
      if (live.IsAlive(u)) expected.push_back(u);
    }
    EXPECT_EQ(ListOf(live, gv), expected) << "v" << v;
  }

  // A V vertex dies: the next Compact() cleans the U lists too.
  const VertexId dead_v = g.VGlobal(0);
  ASSERT_GT(g.Degree(dead_v), 0u);
  live.Kill(dead_v);
  live.Compact(2);
  EXPECT_EQ(live.Degree(dead_v), 0u);
  for (VertexId u = 0; u < g.num_u(); ++u) {
    if (!live.IsAlive(u)) continue;
    std::vector<VertexId> expected;
    for (const VertexId v : before[u]) {
      if (v != dead_v) expected.push_back(v);
    }
    EXPECT_EQ(ListOf(live, u), expected) << "u" << u;
  }
}

TEST(DynamicGraphTest, ParallelBuildAndCostBoundMatchSequential) {
  // Large enough that the parallel reduction leaves its sequential
  // fallback (>= 4096 U vertices).
  const BipartiteGraph g = ChungLuBipartite(6000, 900, 30000, 0.7, 0.7, 43);
  const std::vector<VertexId> rank = g.DegreeDescendingRanks();
  const DynamicGraph sequential(g, rank, 1);
  DynamicGraph reference(g, rank, 1);
  for (VertexId u = 0; u < g.num_u(); u += 5) reference.Kill(u);
  reference.Compact(1);
  const Count reference_bound = reference.RecountCostBound(1);
  for (const int threads : {1, 2, 4}) {
    DynamicGraph live(g, rank, threads);
    for (VertexId w = 0; w < g.num_vertices(); ++w) {
      ASSERT_EQ(ListOf(live, w), ListOf(sequential, w))
          << "w" << w << " t" << threads;
    }
    EXPECT_EQ(live.RecountCostBound(threads), g.CountingCostBound())
        << "t" << threads;
    for (VertexId u = 0; u < g.num_u(); u += 5) live.Kill(u);
    live.Compact(threads);
    EXPECT_EQ(live.RecountCostBound(threads), reference_bound)
        << "t" << threads;
  }
}

}  // namespace
}  // namespace receipt
