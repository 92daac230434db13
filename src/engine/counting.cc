#include "engine/counting.h"

#include <algorithm>

#include "util/parallel.h"

namespace receipt::engine {
namespace {

/// Body of Alg. 1 for one start point `sp`: the vertex-priority algorithm
/// of Chiba–Nishizeki with the cache-efficient degree-descending relabeling
/// of Wang et al. and the batch-aggregation parallelization of ParButterfly.
void CountFromStartPoint(const DynamicGraph& graph, PeelWorkspace& ws,
                         VertexId sp, std::span<Count> support) {
  if (!graph.IsAlive(sp)) return;
  const VertexId sp_rank = graph.Rank(sp);
  ws.touched.clear();

  for (const VertexId mp : graph.Neighbors(sp)) {
    if (!graph.IsAlive(mp)) continue;
    // Neighbors are sorted by ascending rank, so the first endpoint that
    // fails the priority rule ends this wedge group (Alg. 1 line 10).
    const VertexId bound = std::min(graph.Rank(mp), sp_rank);
    for (const VertexId ep : graph.Neighbors(mp)) {
      if (graph.Rank(ep) >= bound) break;
      ++ws.wedges_traversed;
      if (!graph.IsAlive(ep)) continue;  // uncompacted dead entry
      if (ws.wedge_count[ep]++ == 0) ws.touched.push_back(ep);
    }
  }

  // Same-side contribution: every pair of wedges with endpoints (sp, ep)
  // closes one butterfly; it belongs to both endpoints.
  Count sp_total = 0;
  for (const VertexId ep : ws.touched) {
    const Count bcnt = Choose2(ws.wedge_count[ep]);
    if (bcnt > 0) {
      AtomicAdd(&support[ep], bcnt);
      sp_total += bcnt;
    }
  }
  if (sp_total > 0) AtomicAdd(&support[sp], sp_total);

  // Opposite-side contribution: a wedge (sp, mp, ep) participates in
  // (wedge_count[ep] - 1) butterflies, all incident on its mid point.
  // Re-walking each mid point's rank-bounded prefix sums them, so a mid
  // point takes one atomic per (sp, mp) pair rather than one per wedge.
  for (const VertexId mp : graph.Neighbors(sp)) {
    if (!graph.IsAlive(mp)) continue;
    const VertexId bound = std::min(graph.Rank(mp), sp_rank);
    Count mp_total = 0;
    for (const VertexId ep : graph.Neighbors(mp)) {
      if (graph.Rank(ep) >= bound) break;
      if (graph.IsAlive(ep)) mp_total += ws.wedge_count[ep] - 1;
    }
    if (mp_total > 0) AtomicAdd(&support[mp], mp_total);
  }

  // Restore the workspace's clean-state invariant (dense array zeroed,
  // touched list drained) so scratch inspection between kernels is
  // meaningful.
  for (const VertexId ep : ws.touched) ws.wedge_count[ep] = 0;
  ws.touched.clear();
}

}  // namespace

uint64_t CountVertexButterflies(const DynamicGraph& graph, WorkspacePool& pool,
                                int num_threads, std::span<Count> support) {
  const VertexId n = graph.num_vertices();
  pool.Prepare(std::max(1, num_threads), n);
  ParallelFor(n, num_threads, [&support](size_t w) { support[w] = 0; });
  const uint64_t wedges_before = pool.TotalWedges();
  ParallelForWithContext(
      n, num_threads, pool.workspaces(), [&](PeelWorkspace& ws, size_t sp) {
        CountFromStartPoint(graph, ws, static_cast<VertexId>(sp), support);
      });
  return pool.TotalWedges() - wedges_before;
}

uint64_t CountVertexButterfliesSeq(const DynamicGraph& graph,
                                   PeelWorkspace& ws,
                                   std::span<Count> support) {
  const VertexId n = graph.num_vertices();
  ws.EnsureVertexCapacity(n);
  const uint64_t wedges_before = ws.wedges_traversed;
  for (VertexId w = 0; w < n; ++w) support[w] = 0;
  for (VertexId sp = 0; sp < n; ++sp) {
    CountFromStartPoint(graph, ws, sp, support);
  }
  return ws.wedges_traversed - wedges_before;
}

uint64_t CountEdgeButterflies(const BipartiteGraph& graph, WorkspacePool& pool,
                              int num_threads, std::span<Count> support) {
  pool.Prepare(std::max(1, num_threads), graph.num_u());
  const uint64_t wedges_before = pool.TotalWedges();
  ParallelForWithContext(
      graph.num_u(), num_threads, pool.workspaces(),
      [&](PeelWorkspace& ws, size_t ui) {
        const VertexId u = static_cast<VertexId>(ui);
        ws.touched.clear();
        for (const VertexId gv : graph.Neighbors(u)) {
          for (const VertexId u2 : graph.Neighbors(gv)) {
            ++ws.wedges_traversed;
            if (u2 == u) continue;
            if (ws.wedge_count[u2]++ == 0) ws.touched.push_back(u2);
          }
        }
        // bcnt(u, v) = Σ_{u2 ∈ N(v)\{u}} (common(u, u2) − 1).
        const EdgeOffset base = graph.NeighborOffset(u);
        const auto nbrs = graph.Neighbors(u);
        for (size_t j = 0; j < nbrs.size(); ++j) {
          Count bcnt = 0;
          for (const VertexId u2 : graph.Neighbors(nbrs[j])) {
            ++ws.wedges_traversed;
            if (u2 == u) continue;
            const uint64_t common = ws.wedge_count[u2];
            if (common >= 2) bcnt += common - 1;
          }
          support[base + j] = bcnt;
        }
        for (const VertexId u2 : ws.touched) ws.wedge_count[u2] = 0;
        ws.touched.clear();
      });
  return pool.TotalWedges() - wedges_before;
}

}  // namespace receipt::engine
