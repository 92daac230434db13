// Direct unit tests for the tip support-update kernels (Alg. 2 lines
// 6-13): engine::PeelVertex, the sequential kernel behind BUP and RECEIPT
// FD, and engine::ParallelPeelRound, the one concurrent round behind ParB
// and RECEIPT CD.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "butterfly/butterfly_count.h"
#include "engine/peel_engine.h"
#include "graph/generators.h"
#include "util/parallel.h"

namespace receipt {
namespace {

using engine::ParallelPeelRound;
using engine::PeelVertex;
using engine::PeelWorkspace;

struct Fixture {
  explicit Fixture(const BipartiteGraph& graph)
      : g(graph), live(graph, graph.DegreeDescendingRanks()) {
    support = CountButterflies(graph, 1);
    ws.EnsureVertexCapacity(graph.num_vertices());
  }
  const BipartiteGraph& g;
  DynamicGraph live;
  std::vector<Count> support;
  PeelWorkspace ws;
  engine::WorkspacePool pool;
};

/// Peels `peel_set` (already killed) through ParallelPeelRound at
/// `threads` threads; returns every (survivor, new support) report.
std::vector<std::pair<VertexId, Count>> PeelRoundAt(
    Fixture& f, const std::vector<VertexId>& peel_set, Count floor,
    int threads) {
  ParallelPeelRound(f.live, peel_set, floor, f.support, f.pool, threads,
                    [](PeelWorkspace& ws, VertexId u2, Count s) {
                      ws.updates.emplace_back(u2, s);
                    });
  std::vector<std::pair<VertexId, Count>> reports;
  for (PeelWorkspace& ws : f.pool.workspaces()) {
    for (const auto& [u2, s] : ws.updates) {
      reports.emplace_back(static_cast<VertexId>(u2), s);
    }
    ws.updates.clear();
  }
  return reports;
}

TEST(PeelUpdateTest, DecrementsBySharedButterflies) {
  const BipartiteGraph g = SmallExampleGraph();
  Fixture f(g);
  // Peel u4 (⊲⊳ = 5) at θ = 5: u5 shares 1 butterfly, core shares 1 each.
  f.live.Kill(4);
  std::vector<std::pair<VertexId, Count>> updates;
  const uint64_t wedges = PeelVertex(
      f.live, 4, /*floor=*/5, f.support, f.ws,
      [&updates](VertexId u2, Count s) { updates.emplace_back(u2, s); });
  EXPECT_GT(wedges, 0u);
  // u0..u3 had 20 → 19; u5 had 5 → max(5, 5−1) = 5 (clamped).
  for (VertexId u = 0; u < 4; ++u) EXPECT_EQ(f.support[u], 19u);
  EXPECT_EQ(f.support[5], 5u);
  // Every updated vertex reported exactly once.
  EXPECT_EQ(updates.size(), 5u);
}

TEST(PeelUpdateTest, FloorClampHolds) {
  const BipartiteGraph g = CompleteBipartite(4, 4);
  Fixture f(g);
  // Each pair shares C(4,2) = 6 butterflies; support = 3·6 = 18.
  f.live.Kill(0);
  PeelVertex(f.live, 0, /*floor=*/15, f.support, f.ws,
                    [](VertexId, Count) {});
  for (VertexId u = 1; u < 4; ++u) EXPECT_EQ(f.support[u], 15u);  // 18−6<15
}

TEST(PeelUpdateTest, SkipsDeadTwoHopNeighbors) {
  const BipartiteGraph g = CompleteBipartite(4, 4);
  Fixture f(g);
  f.live.Kill(0);
  f.live.Kill(1);  // dead before the update: must receive nothing
  const Count before = f.support[1];
  PeelVertex(f.live, 0, 0, f.support, f.ws, [](VertexId, Count) {});
  EXPECT_EQ(f.support[1], before);
  EXPECT_EQ(f.support[2], 18u - 6u);
}

TEST(PeelUpdateTest, WedgeCountMatchesLiveTraversal) {
  const BipartiteGraph g = ChungLuBipartite(60, 40, 300, 0.5, 0.5, 501);
  Fixture f(g);
  f.live.Kill(7);
  const uint64_t wedges = PeelVertex(
      f.live, 7, 0, f.support, f.ws, [](VertexId, Count) {});
  // One wedge per (v, u2) slot pair reachable from u=7.
  uint64_t expected = 0;
  for (const VertexId v : g.Neighbors(7)) expected += g.Degree(v);
  EXPECT_EQ(wedges, expected);
}

TEST(PeelUpdateTest, AtomicAndSequentialAgree) {
  // One concurrent round over {5, 9, 21} must leave exactly the supports
  // that peeling them one by one does, at every thread count.
  const BipartiteGraph g = ChungLuBipartite(100, 60, 500, 0.6, 0.6, 503);
  const std::vector<VertexId> peel_set = {5, 9, 21};
  Fixture sequential(g);
  for (const VertexId u : peel_set) sequential.live.Kill(u);
  for (const VertexId u : peel_set) {
    PeelVertex(sequential.live, u, 2, sequential.support, sequential.ws,
               [](VertexId, Count) {});
  }
  for (const int threads : {1, 2, 4}) {
    Fixture round(g);
    for (const VertexId u : peel_set) round.live.Kill(u);
    PeelRoundAt(round, peel_set, 2, threads);
    EXPECT_EQ(sequential.support, round.support) << threads << " threads";
  }
}

TEST(PeelUpdateTest, ConcurrentUpdatesLoseNothing) {
  // Lemma 2: peeling a whole set concurrently must decrement each survivor
  // by exactly the sum of shared butterflies.
  const BipartiteGraph g = ChungLuBipartite(120, 80, 600, 0.5, 0.5, 507);
  std::vector<VertexId> peel_set;
  for (VertexId u = 0; u < 30; ++u) peel_set.push_back(u);
  const std::vector<Count> original = CountButterflies(g, 1);

  for (const int threads : {1, 2, 4}) {
    Fixture f(g);
    for (const VertexId u : peel_set) f.live.Kill(u);
    PeelRoundAt(f, peel_set, 0, threads);
    for (VertexId u = 30; u < g.num_u(); ++u) {
      Count shared = 0;
      for (const VertexId dead : peel_set) {
        shared += SharedButterflies(g, u, dead);
      }
      // A butterfly has exactly two U vertices, so each dead partner
      // contributes independently to u's loss.
      EXPECT_EQ(f.support[u], original[u] - shared)
          << "u" << u << ", " << threads << " threads";
    }
  }
}

TEST(PeelUpdateTest, RoundClampsAtFloorLikeSequentialPeels) {
  // Peeled u0..u2 each share 3 butterflies with survivor u3 (common V
  // {0,1,2}) and 1 with survivors u4, u7 (common V {0,1}); u6 shares a
  // single V vertex with them, so it is touched with multiplicity 1 and
  // owes nothing. Supports: u3 = 11, u4 = u7 = 5, u6 = 0. Floor 4: the
  // summed debts (9 and 3) push u3, u4 and u7 below it.
  std::vector<BipartiteGraph::Edge> edges;
  for (const VertexId u : {0u, 1u, 2u, 3u}) {
    for (const VertexId v : {0u, 1u, 2u}) edges.push_back({u, v});
  }
  for (const VertexId u : {4u, 7u}) {
    for (const VertexId v : {0u, 1u}) edges.push_back({u, v});
  }
  edges.push_back({6, 2});
  edges.push_back({6, 3});
  edges.push_back({5, 3});
  const BipartiteGraph g = BipartiteGraph::FromEdges(8, 4, edges);
  const std::vector<VertexId> peel_set = {0, 1, 2};
  const Count floor = 4;

  Fixture sequential(g);
  ASSERT_EQ(sequential.support[3], 11u);
  ASSERT_EQ(sequential.support[4], 5u);
  ASSERT_EQ(sequential.support[6], 0u);
  const std::vector<Count> original = sequential.support;
  for (const VertexId u : peel_set) sequential.live.Kill(u);
  for (const VertexId u : peel_set) {
    PeelVertex(sequential.live, u, floor, sequential.support, sequential.ws,
               [](VertexId, Count) {});
  }
  EXPECT_EQ(sequential.support[3], floor);
  EXPECT_EQ(sequential.support[4], floor);
  EXPECT_EQ(sequential.support[6], 0u);  // never raised to the floor

  std::set<VertexId> changed;
  for (VertexId u = 3; u < g.num_u(); ++u) {
    if (sequential.support[u] != original[u]) changed.insert(u);
  }
  EXPECT_EQ(changed, (std::set<VertexId>{3, 4, 7}));

  for (const int threads : {1, 2, 4}) {
    Fixture round(g);
    for (const VertexId u : peel_set) round.live.Kill(u);
    const auto reports = PeelRoundAt(round, peel_set, floor, threads);
    EXPECT_EQ(round.support, sequential.support) << threads << " threads";
    std::set<VertexId> reported;
    for (const auto& [u2, s] : reports) {
      reported.insert(u2);
      // A report is the value right after that thread's debt landed;
      // later debts can only lower it further.
      EXPECT_GE(s, round.support[u2]) << "u" << u2;
    }
    EXPECT_EQ(reported, changed) << threads << " threads";
  }
}

}  // namespace
}  // namespace receipt
